"""Spans around mveff's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function in every ``mveff`` module
namespace that binds it (the defining module, the package, and modules that
imported it by name) with a wrapper that records a span: name, start, end,
parent span and the (round, operation) it ran under.  ``uninstall`` puts the
originals back, so untraced rounds run the program unmodified.  Spans stay
in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import oracle

# (module, function) pairs wrapped when tracing is on
TRACED = (
    ("games", "effectivity_table"),
    ("tables", "check_playability"),
    ("tables", "boolean_skeleton"),
    ("tables", "lift_boolean"),
    ("formulas", "parse"),
    ("formulas", "subformulas"),
    ("models", "eval_vector"),
    ("models", "is_valid"),
    ("filtration", "quotient"),
    ("filtration", "definable_class_vectors"),
    ("filtration", "playable_filtration"),
    ("filtration", "enriched_filtration"),
    ("decide", "search_countermodel"),
)


def _table_counts(args, kwargs, out):
    E = args[0]
    return {"tables.check_playability.cells": (1 << E.k) * (E.chain.n + 1) ** len(E.outcomes)}


def _valuation_counts(args, kwargs, out):
    model, phi = args[0], args[1]
    support = args[2] if len(args) > 2 else kwargs.get("prop_support")
    if support is None:
        support = oracle.propositions(phi)
    count = (model.chain.n + 1) ** (len(list(support)) * len(model.states))
    return {"models.is_valid.valuations": count}


def _verdict_counts(args, kwargs, out):
    return {
        f"decide.{key}": out.stats.get(key, 0)
        for key in ("signatures", "survivors", "elimination_rounds")
    }


# per-layer counts each span records, computed after the call returns
COUNTERS = {
    "tables.check_playability": _table_counts,
    "models.is_valid": _valuation_counts,
    "filtration.definable_class_vectors": lambda a, kw, out: {
        "filtration.definable_class_vectors.size": len(out)
    },
    "filtration.quotient": lambda a, kw, out: {"filtration.classes": out.num_classes},
    "decide.search_countermodel": _verdict_counts,
}

# layers whose distinct arguments are counted per round: the key of each
# call's argument, giving "<layer>.distinct_ratio" = distinct keys / calls
DISTINCT = {"tables.check_playability": lambda args, kwargs: hash(args[0])}


class Tracer:
    FIELDS = ("name", "start", "end", "parent", "round", "op", "counts")

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []
        self.distinct = {}  # (layer, round) -> set of argument keys
        self.round = -1
        self.op = -1

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        key_of = DISTINCT.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, out)
            if key_of is not None:
                self.distinct.setdefault((name, self.round), set()).add(key_of(args, kwargs))
            return out

        return wrapper

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "mveff" or key.startswith("mveff."))
        ]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"mveff.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def layer_metrics(self):
        """Per-round layer totals: the fastest round for times, the median for counts."""
        children = {}
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]] = children.get(span[3], 0.0) + span[2] - span[1]
        per_round = {}
        for idx, (name, start, end, _, rnd, _, counts) in enumerate(self.spans):
            totals = per_round.setdefault(rnd, {})
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            self_s = end - start - children.get(idx, 0.0)
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
            for key, value in (counts or {}).items():
                totals[key] = totals.get(key, 0) + value
        for (name, rnd), keys in self.distinct.items():
            totals = per_round[rnd]
            totals[f"{name}.distinct_ratio"] = len(keys) / totals[f"{name}.calls"]
        out = {}
        for key in {key for totals in per_round.values() for key in totals}:
            column = sorted(totals.get(key, 0) for totals in per_round.values())
            out[key] = column[0] if key.endswith("self_s") else column[len(column) // 2]
        return out

    def write(self, path, meta):
        with open(path, "w") as handle:
            json.dump(dict(meta, fields=self.FIELDS, spans=self.spans), handle)
