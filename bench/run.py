"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload playability --seed 1 --seconds 36 --trace 0

The run imports mveff from ``src/`` of the checkout it sits in, builds the
workload's operations from the seed, then times every operation in whole
rounds until the next round would end after ``--seconds``.  Machine speed on
a shared host drifts in phases of seconds to minutes, so every time is
converted to seconds of a nominal machine by a reference loop timed next to
it, and every figure is taken from each operation's fastest round (see
README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).
"""

import os

# pinned before numpy is first imported, and inherited by CLI children
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
SETUP_TICKS = 10  # reference runs before and after each set-up
REF_LOOP = 17500  # iterations of the reference loop
REF_NOMINAL_S = 1e-3  # what the reference loop takes on the nominal machine
REF_WINDOW_S = 1.0  # the host's speed at t is read from reference runs this close to t
REF_QUANTILE = 0.2  # ... as this quantile of their times, above interrupts and below noise
MIN_ROUNDS = 2
TAIL_BEYOND = 10  # samples above the reported tail percentile
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clear_program_caches():
    """Empty every functools cache in mveff, so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mveff" or name.startswith("mveff.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def import_seconds():
    """Time to import mveff and its CLI, timed inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import mveff, mveff.cli; print(time.perf_counter() - t)"
    child = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(child.stdout)


def reference_loop():
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return total


class ReferenceClock:
    """Converts wall seconds into seconds of a nominal machine.

    The host's speed drifts by up to 1.7x in phases of seconds to minutes,
    and every kind of work slows alike (README.md, *Drift*).  A fixed
    pure-Python loop, independent of mveff, is timed next to every timed
    operation; a wall time taken at ``t`` is scaled by ``REF_NOMINAL_S``
    over the loop's time around ``t``.  A slower mveff reads slower; a
    slower host does not.
    """

    def __init__(self):
        self.starts = []
        self.costs = []

    def tick(self):
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.costs.append(time.perf_counter() - start)

    def nominal(self, seconds, at):
        """``seconds`` of wall time spent around ``at``, in nominal seconds."""
        lo = bisect.bisect_left(self.starts, at - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, at + REF_WINDOW_S)
        lo = min(lo, max(hi - 1, 0))  # the nearest earlier run, if none is close
        window = sorted(self.costs[lo:hi])
        return seconds * REF_NOMINAL_S / window[int(REF_QUANTILE * len(window))]


def set_up(workload, clock):
    """Import time in a fresh interpreter plus a cold build and warm-up here.

    A process imports mveff once, so each set-up measures the import in a
    child of its own.  Returns (wall seconds, time at the middle, the ops).
    """
    for _ in range(SETUP_TICKS):
        clock.tick()
    started = time.perf_counter()
    import_s = import_seconds()
    clear_program_caches()
    start = time.perf_counter()
    ops = workload.build()
    try:
        workload.warm(ops)
    except Exception:  # the same operation fails, and is counted, in the rounds
        pass
    ended = time.perf_counter()
    for _ in range(SETUP_TICKS):
        clock.tick()
    return import_s + ended - start, (started + ended) / 2, ops


class Rounds:
    """Per-operation timings over whole rounds of the operation list."""

    def __init__(self, ops, clock):
        self.ops = ops
        self.clock = clock
        self.samples = []  # (operation, wall seconds, middle, traced)
        self.first = [None] * len(ops)  # (result, fingerprint) of the first success
        self.errors = {}
        self.inconsistent = []
        self.attempted = 0
        self.failed = 0
        self.count = 0
        self.durations = []

    def run_round(self, tracer=None):
        started = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.round, tracer.op = self.count, i
            self.attempted += 1
            gc.collect()  # each operation pays only for the garbage it makes
            self.clock.tick()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.errors.setdefault(op.name, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            self.samples.append((i, elapsed, t0 + elapsed / 2, tracer is not None))
            fingerprint = op.fingerprint(out)
            if self.first[i] is None:
                self.first[i] = (out, fingerprint)
            elif fingerprint != self.first[i][1]:
                self.inconsistent.append(op.name)
        self.count += 1
        self.durations.append(time.perf_counter() - started)
        if self.count == 1:
            # the first results are kept for the checks; keep them out of
            # every later collection too
            gc.collect()
            gc.freeze()

    def best(self, traced=False, nominal=True):
        """Each operation's fastest time, in nominal or in wall seconds."""
        best = [math.inf] * len(self.ops)
        for i, elapsed, at, was_traced in self.samples:
            if was_traced == traced:
                seconds = self.clock.nominal(elapsed, at) if nominal else elapsed
                best[i] = min(best[i], seconds)
        return best


def latency_summary(times):
    """Median, and the highest percentile with TAIL_BEYOND samples above it."""
    times = sorted(times)
    count = len(times)
    rank = count - TAIL_BEYOND - 1
    return statistics.median(times), times[rank], 100.0 * (rank + 1) / count


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        print("run without -O: the program's soundness asserts must stay on", file=sys.stderr)
        return 2
    if END_TO_END_UNITS != declared_metrics("end_to_end"):
        print("the end-to-end metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "mveff", "__init__.py")):
        print(f"no mveff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import mveff
    import mveff.cli  # noqa: F401  (the CLI's imports are part of what a user loads)

    if os.path.dirname(os.path.abspath(mveff.__file__)) != os.path.join(SRC, "mveff"):
        print(f"mveff was imported from {mveff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return measure(args, workloads, Tracer)


def run_cli_probe(workloads, seed):
    """The CLI's per-layer metrics, from documents in a scratch directory."""
    workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return workloads.CliProbe(seed, workdir).run()
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


def run_decide_probe(workloads, Tracer, seed):
    """The decide layer's per-layer metrics: every decide query once, traced."""
    probe = workloads.Decide(seed)
    ops = probe.build()
    tracer = Tracer()
    tracer.round = 0
    problems = []
    for i, op in enumerate(ops):
        tracer.op = i
        tracer.install()
        try:
            out = op.run()
        except Exception as exc:  # reported as a failed check, not fatal
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            tracer.uninstall()
        try:
            probe.check(op, out)
        except Exception as exc:  # a check that crashes fails too
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    layers = {k: v for k, v in tracer.layer_metrics().items() if k.startswith("decide.")}
    return layers, problems


def measure(args, workloads, Tracer):
    workload = workloads.WORKLOADS[args.workload](args.seed)
    clock = ReferenceClock()
    elapsed, at, ops = set_up(workload, clock)
    setups = [(elapsed, at)]
    gc.collect()
    gc.freeze()  # the inputs stay alive all run; keep them out of every later collection

    tracer = Tracer() if args.trace else None
    rounds = Rounds(ops, clock)
    began = time.perf_counter()
    mid_setup_done = False
    while True:
        if tracer is not None and rounds.count % 2 == 1:
            # odd rounds traced, even rounds plain: the overhead is measured
            # in the same run, under the same machine conditions
            tracer.install()
            try:
                rounds.run_round(tracer)
            finally:
                tracer.uninstall()
        else:
            rounds.run_round()
        spent = time.perf_counter() - began
        if not mid_setup_done and spent >= args.seconds / 2:
            setups.append(set_up(workload, clock)[:2])
            mid_setup_done = True
            spent = time.perf_counter() - began
        if rounds.count >= MIN_ROUNDS and spent + statistics.median(rounds.durations) > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(workload, clock)[:2])

    checks_began = time.perf_counter()
    problems = [f"{name}: result changed between rounds" for name in rounds.inconsistent]
    for op, first in zip(ops, rounds.first):
        if first is None:
            continue
        try:
            workload.check(op, first[0])
        except Exception as exc:  # a check that crashes fails too
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    checks_s = time.perf_counter() - checks_began
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, error in sorted(rounds.errors.items()):
        print(f"FAILED {name}: {error}")

    ok = [i for i, first in enumerate(rounds.first) if first is not None]
    values = {
        "setup_s": statistics.median(clock.nominal(elapsed, at) for elapsed, at in setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if len(ok) >= 4 * TAIL_BEYOND:
        best = rounds.best()
        p50, tail, tail_pct = latency_summary([best[i] for i in ok])
        values.update(
            ops_per_s=len(ok) / sum(best[i] for i in ok),
            latency_p50_s=p50,
            latency_tail_s=tail,
        )
        wall = rounds.best(nominal=False)
        wall_p50, wall_tail, _ = latency_summary([wall[i] for i in ok])
        tail_note = (
            f"tail = p{tail_pct:.1f} of {len(ok)} per-operation best times; in wall seconds: "
            f"ops_per_s {len(ok) / sum(wall[i] for i in ok):.4g}, p50 {wall_p50:.4g}, tail {wall_tail:.4g}, "
            f"setup {statistics.median(elapsed for elapsed, _ in setups):.4g}"
        )
    else:
        # the result is still printed, so the failures are reported
        tail_note = "no latency metrics"
        problems.append(f"only {len(ok)} of {len(ops)} operations ever succeeded, too few for a tail percentile")
    end_to_end = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    print(
        f"workload {args.workload} seed {args.seed}: {len(ops)} operations x {rounds.count} rounds "
        f"in {sum(rounds.durations):.1f} s, checked in {checks_s:.1f} s (rounds: {', '.join(f'{d:.2f}' for d in rounds.durations)}); {tail_note}"
    )
    if args.trace:
        cli_metrics, cli_problems = run_cli_probe(workloads, args.seed)
        decide_metrics, decide_problems = run_decide_probe(workloads, Tracer, args.seed)
        for problem in cli_problems + decide_problems:
            print(f"CHECK FAILED {problem}")
        problems += cli_problems + decide_problems
        metrics = layer_metrics(tracer, rounds, {**cli_metrics, **decide_metrics})
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "ops": [op.name for op in ops]},
        )
    else:
        metrics = end_to_end
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:45s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def declared_metrics(kind):
    """Names and units of one kind of metric, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def layer_metrics(tracer, rounds, probe_metrics):
    """Every per-layer metric; a layer this workload never reaches reads 0."""
    units = declared_metrics("per_layer")
    values = dict.fromkeys(units, 0)
    for key, value in tracer.layer_metrics().items():
        if key in values:
            values[key] = value
    values.update((k, v) for k, v in probe_metrics.items() if k in values)
    plain, traced = rounds.best(), rounds.best(traced=True)
    both = [i for i, t in enumerate(traced) if math.isfinite(t + plain[i])]
    if both:
        values["trace.overhead_ratio"] = sum(traced[i] for i in both) / sum(plain[i] for i in both) - 1.0
    else:
        del values["trace.overhead_ratio"]
    return {name: (value, units[name]) for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
