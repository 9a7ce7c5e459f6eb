import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from click.testing import CliRunner

import mveff.cli
from mveff import tables
from mveff.chain import Chain
from mveff.cli import main
from mveff.corpus import (
    playable_boolean_tables,
    random_game_form,
    random_playable_model,
)
from mveff.games import GameForm, effectivity_table
from mveff.models import standardize
from mveff.tables import EffFn


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path):
    rng = random.Random(0)
    form = random_game_form(rng, 2, 2)
    (tmp_path / "gf.json").write_text(form.to_json())
    model = random_playable_model(rng, Chain(2), 3)
    (tmp_path / "model.json").write_text(model.to_json())
    (tmp_path / "emodel.json").write_text(standardize(model).to_json())
    (tmp_path / "bool.json").write_text(playable_boolean_tables()[2].to_json())
    eff = effectivity_table(form, Chain(2))
    (tmp_path / "eff.json").write_text(eff.to_json())
    return tmp_path


def test_effectivity_command(runner, workdir):
    result = runner.invoke(main, ["effectivity", str(workdir / "gf.json"), "--n", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "effectivity"
    assert doc == json.loads((workdir / "eff.json").read_text())


def test_check_command_full_report(runner, workdir):
    result = runner.invoke(main, ["check", str(workdir / "eff.json")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "playability-report"
    assert doc["truly_playable"] is True


def test_check_command_specific_properties(runner, workdir):
    result = runner.invoke(
        main, ["check", str(workdir / "eff.json"), "regular", "principal"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["regular"] is True and doc["principal"] is True


def test_check_properties_share_one_battery(runner, workdir):
    # one run of every predicate and one report for playable and
    # truly_playable, whose verdicts answer the other names too; the
    # document's table is homogeneous, so it holds its generators and is
    # decided on them once, with no superadditivity count
    args = ["playable", "truly_playable", "superadditive", "semi_playable", "playable"]
    with mock.patch.object(tables, "_decide", wraps=tables._decide) as decide, mock.patch.object(
        tables, "_report", wraps=tables._report
    ) as reports, mock.patch.object(
        tables, "_pair_counts", wraps=tables._pair_counts
    ) as counts, mock.patch.object(
        tables, "_generators_hold", wraps=tables._generators_hold
    ) as generators:
        result = runner.invoke(main, ["check", str(workdir / "eff.json"), *args])
    assert result.exit_code == 0
    assert result.output == json.dumps(
        {"kind": "property-check", **dict.fromkeys(args, True)}, indent=2, sort_keys=True
    ) + "\n"
    assert decide.call_count == 1 and reports.call_count == 1
    assert generators.call_count == 1 and counts.call_count == 0


def test_check_failure_exit_code(runner, workdir):
    doc = json.loads((workdir / "eff.json").read_text())
    doc["table"]["{}"][0] = 2  # break safety
    (workdir / "bad.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["check", str(workdir / "bad.json")])
    assert result.exit_code == 1


def test_check_model_document(runner, workdir):
    result = runner.invoke(main, ["check", str(workdir / "emodel.json")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["standard"] is True


def test_eval_command(runner, workdir):
    result = runner.invoke(main, ["eval", str(workdir / "model.json"), "1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert set(doc["values"].values()) == {2}
    result = runner.invoke(
        main, ["eval", str(workdir / "model.json"), "p1", "--state", "s0"]
    )
    doc = json.loads(result.output)
    assert doc["state"] == "s0"


def test_eval_parse_error_exit_2(runner, workdir):
    result = runner.invoke(main, ["eval", str(workdir / "model.json"), "p1 ->"])
    assert result.exit_code == 2


def test_filter_then_eval_round_trip(runner, workdir):
    result = runner.invoke(
        main, ["filter", str(workdir / "model.json"), "[{1}]p1 -> p2"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "model"
    assert "class_map" in doc
    (workdir / "filtered.json").write_text(
        json.dumps({k: v for k, v in doc.items() if k != "class_map"})
    )
    # the filtered document must be a usable model in its own right
    check = runner.invoke(
        main, ["filter", str(workdir / "filtered.json"), "p1 -> p2"]
    )
    assert check.exit_code == 0
    check = runner.invoke(main, ["eval", str(workdir / "filtered.json"), "1"])
    assert check.exit_code == 0


def test_filter_enriched_stage(runner, workdir):
    result = runner.invoke(
        main,
        ["filter", str(workdir / "emodel.json"), "[O]p1", "--stage", "enriched"],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["kind"] == "enriched-model"


def test_synthesize_command(runner, workdir):
    result = runner.invoke(main, ["synthesize", str(workdir / "eff.json")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "game-form"


def test_lift_then_check(runner, workdir):
    result = runner.invoke(main, ["lift", str(workdir / "bool.json"), "--n", "3"])
    assert result.exit_code == 0
    lifted = result.output
    (workdir / "lifted.json").write_text(lifted)
    check = runner.invoke(main, ["check", str(workdir / "lifted.json")])
    assert check.exit_code == 0
    assert json.loads(check.output)["playable"] is True


def test_effectivity_budget_counts_the_document_cells(runner, tmp_path):
    # a 2-player form on 12 outcomes: its n = 2 document has 4 x 3^12 =
    # 2 125 764 cells, over the default budget, though the Boolean table it
    # is computed on has 4 x 2^12; a 3-outcome form has 4 x 3^3 = 108.  The
    # refusal comes before any cell of the document is built.
    (tmp_path / "twelve.json").write_text(random_game_form(random.Random(3), 2, 12).to_json())
    small = random_game_form(random.Random(3), 2, 3)
    (tmp_path / "small.json").write_text(small.to_json())
    with mock.patch.object(EffFn, "_cells", side_effect=AssertionError):
        for name, extra, message in (
            ("twelve.json", [], "2125764 table cells exceed budget 1048576"),
            ("small.json", ["--budget-cells", "107"], "108 table cells exceed budget 107"),
        ):
            args = ["effectivity", str(tmp_path / name), "--n", "2", *extra]
            result = runner.invoke(main, args)
            assert result.exit_code == 2 and result.stderr == f"error: {message}\n"
    args = ["effectivity", str(tmp_path / "small.json"), "--n", "2", "--budget-cells", "108"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert json.loads(result.output) == effectivity_table(small, Chain(2)).to_doc()


def test_lift_over_the_cell_budget_exit_2(runner, tmp_path):
    # 4 x 513^2 cells: the lift is held as its skeleton, and the budget
    # raises where the document's cells are built
    (tmp_path / "bool2.json").write_text(playable_boolean_tables()[2].to_json())
    result = runner.invoke(main, ["lift", str(tmp_path / "bool2.json"), "--n", "512"])
    assert result.exit_code == 2
    assert result.stderr == "error: 1052676 lifted table cells exceed budget 1048576\n"


def test_decide_countermodel_exit_1(runner):
    result = runner.invoke(main, ["decide", "[{}]p1 -> p1", "--max-states", "2"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["status"] == "CountermodelFound"


def test_decide_theorem_exit_0(runner):
    result = runner.invoke(
        main, ["decide", "~[{1}]0", "--max-states", "99999999"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["status"] == "TheoremByFiltrationBound"


def test_stdin_input(runner, workdir):
    payload = (workdir / "gf.json").read_text()
    result = runner.invoke(main, ["effectivity", "-", "--n", "1"], input=payload)
    assert result.exit_code == 0
    assert json.loads(result.output)["kind"] == "effectivity"


def test_text_format(runner, workdir):
    result = runner.invoke(
        main, ["check", str(workdir / "eff.json"), "--format", "text"]
    )
    assert result.exit_code == 0
    assert "truly_playable: true" in result.output


def test_missing_file_exit_2(runner):
    result = runner.invoke(main, ["check", "/nonexistent/x.json"])
    assert result.exit_code == 2


def test_check_over_the_dense_budget_exit_2(runner, tmp_path):
    # non-homogeneous, k = 2, n = 2, 9 outcomes: over the budget as a dense
    # scan (9 pairs x 3^18 cells), decided by the superadditivity count
    E = effectivity_table(random_game_form(random.Random(3), 2, 9), Chain(2))
    doc = E.to_doc()
    doc["table"]["{}"][-1] = 1
    (tmp_path / "nine.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["check", str(tmp_path / "nine.json")])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["properties"]["superadditive"] and not report["playable"]
    # k = 2, n = 700, one outcome, a middle value at the top: each transform
    # multiplies 701 x 701 chain matrices, (2 x 4 x 701 + 9) x 700 x 701
    # cells in all
    rows = [[0] * 700 + [700] for _ in range(4)]
    rows[0][-1] = 1
    doc = EffFn(Chain(700), 2, ["s0"], rows).to_doc()
    (tmp_path / "big.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["check", str(tmp_path / "big.json")])
    assert result.exit_code == 2
    assert "budget" in result.output
    # named properties raise the first error in the order named
    for names, message in (
        (["regular", "superadditive", "sideways"], "budget"),
        (["regular", "sideways", "superadditive"], "unknown property"),
        (["regular", "playable", "sideways"], "budget"),
    ):
        result = runner.invoke(main, ["check", str(tmp_path / "big.json"), *names])
        assert result.exit_code == 2 and message in result.output, names


def test_check_failing_ten_outcome_table_exit_1(runner, tmp_path):
    # k = 2, n = 2, 10 outcomes, the empty coalition's last cell below top
    # raised: a dense witness scan of its failing pair would be 3^20 cells
    E = effectivity_table(random_game_form(random.Random(3), 2, 10), Chain(2))
    doc = E.to_doc()
    row = doc["table"]["{}"]
    row[max(i for i, value in enumerate(row) if value < 2)] += 1
    (tmp_path / "ten.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["check", str(tmp_path / "ten.json")])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert not report["properties"]["superadditive"]
    c1, c2, fi, gi = report["witnesses"]["superadditive"]
    assert c1 & c2 == 0 and fi < len(row) and gi < len(row)


def test_document_missing_key_exit_2(runner, workdir):
    (workdir / "short.json").write_text(json.dumps({"kind": "effectivity", "n": 1}))
    result = runner.invoke(main, ["check", str(workdir / "short.json")])
    assert result.exit_code == 2


def test_unknown_outcome_exit_2(runner, workdir):
    doc = json.loads((workdir / "gf.json").read_text())
    doc["o"][0] = "nowhere"
    (workdir / "stray.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["effectivity", str(workdir / "stray.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, name, field",
    [
        ("effectivity", "gf.json", "outcomes"),
        ("check", "eff.json", "outcomes"),
        ("check", "model.json", "states"),
    ],
)
def test_repeated_name_exit_2(runner, workdir, command, name, field):
    # a document that declares an outcome or a state twice is refused: the
    # game form could never reach the first copy, and the model would keep
    # one table for two states
    doc = json.loads((workdir / name).read_text())
    doc[field][1] = doc[field][0]
    (workdir / "twice.json").write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(workdir / "twice.json")])
    assert result.exit_code == 2
    assert result.stderr == f"error: {field} declares {doc[field][0]!r} twice\n"


def test_non_object_document_exit_2(runner, workdir):
    (workdir / "list.json").write_text("[]")
    result = runner.invoke(main, ["check", str(workdir / "list.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, name, field, change",
    [
        ("check", "eff.json", "table", lambda table: []),
        ("check", "eff.json", "table", lambda table: {**table, "N": "0" * len(table["N"])}),
        ("effectivity", "gf.json", "strategies", lambda counts: "22"),
        ("eval", "model.json", "val", lambda val: {u: [0] for u in val}),
    ],
    ids=["table-list", "row-string", "strategies-string", "valuation-list"],
)
def test_wrong_typed_field_exit_2(runner, workdir, command, name, field, change):
    doc = json.loads((workdir / name).read_text())
    doc[field] = change(doc[field])
    (workdir / "typed.json").write_text(json.dumps(doc))
    args = [command, str(workdir / "typed.json")] + (["p1"] if command == "eval" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


def test_determinism_byte_identical(runner, workdir):
    args = ["effectivity", str(workdir / "gf.json"), "--n", "2"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


@pytest.fixture()
def malformed(workdir):
    """The workdir, plus documents that are malformed in one field each."""

    def edit(source, target, change):
        doc = json.loads((workdir / source).read_text())
        change(doc)
        (workdir / target).write_text(json.dumps(doc))

    edit("eff.json", "negative-players.json", lambda d: d.update(players=-1))
    edit("eff.json", "letter-key.json", lambda d: d["table"].update({"{a}": d["table"].pop("{1}")}))
    edit("eff.json", "extra-key.json", lambda d: d["table"].update({" {1}": d["table"]["{2}"]}))
    edit("eff.json", "same-key.json", lambda d: d["table"].update({" {1}": d["table"].pop("{2}")}))
    edit("model.json", "valuation-name.json", lambda d: d["val"]["s0"].update(px=1))
    edit("model.json", "long-name.json", lambda d: d["val"]["s0"].update({"p" + _DIGITS: 1}))
    edit("emodel.json", "unknown-r-state.json", lambda d: d["R"].append(["s0", "nope"]))
    edit("emodel.json", "r-triple.json", lambda d: d["R"].append(["s0", "s1", "s2"]))
    three = random_playable_model(random.Random(1), Chain(2), 3, k=3).to_doc()["E"]["s1"]
    edit("model.json", "mixed-players.json", lambda d: d["E"].update(s1=three))
    (workdir / "no-states.json").write_text(
        '{"kind": "model", "n": 1, "states": [], "E": {}, "val": {}}'
    )
    # 2^64 profiles: a product in int64 wraps to 0, and the empty map matched it
    (workdir / "profile-overflow.json").write_text(json.dumps({
        "kind": "game-form", "players": 2, "strategies": [1 << 32, 1 << 32],
        "outcomes": ["a"], "o": [],
    }))
    (workdir / "latin-1.json").write_bytes(b'{"kind": "game-form", "outcomes": ["\xe9"]}')
    (workdir / "invalid.json").write_text('{"kind": ')
    (workdir / "deep.json").write_text("[" * 100_000)
    (workdir / "long-int.json").write_text('{"kind": "model", "n": ' + _DIGITS + "}")
    return workdir


_DEEP_NEGATION = "~" * 1000 + "p1"
_DEEP_PARENTHESES = "(" * 300 + "p1" + ")" * 300
# more digits than int() converts from a string (4300 by default)
_DIGITS = "9" * 5000


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["effectivity", "latin-1.json"], id="effectivity-not-utf8"),
        pytest.param(["effectivity", "invalid.json"], id="effectivity-invalid-json"),
        pytest.param(["effectivity", "profile-overflow.json"], id="effectivity-profile-overflow"),
        pytest.param(["check", "negative-players.json"], id="check-negative-players"),
        pytest.param(["check", "letter-key.json"], id="check-coalition-key"),
        pytest.param(["check", "extra-key.json"], id="check-extra-coalition-key"),
        pytest.param(["check", "same-key.json"], id="check-repeated-coalition-key"),
        pytest.param(["check", "r-triple.json"], id="check-r-triple"),
        pytest.param(["check", "deep.json"], id="check-deep-json"),
        pytest.param(["check", "mixed-players.json"], id="check-mixed-players"),
        pytest.param(["check", "no-states.json"], id="check-no-states"),
        pytest.param(["check", "model.json", "nonsense_property"], id="check-model-with-property"),
        pytest.param(["check", "model.json", "playable"], id="check-model-with-known-property"),
        pytest.param(["eval", "mixed-players.json", "[{1}]p1"], id="eval-mixed-players"),
        pytest.param(["eval", "no-states.json", "p1"], id="eval-no-states"),
        pytest.param(["filter", "no-states.json", "p1"], id="filter-no-states"),
        pytest.param(["eval", "model.json", "p1", "--state", "nope"], id="eval-unknown-state"),
        pytest.param(["eval", "valuation-name.json", "p1"], id="eval-valuation-name"),
        pytest.param(["eval", "model.json", _DEEP_NEGATION], id="eval-deep-negation"),
        pytest.param(["eval", "model.json", _DEEP_PARENTHESES], id="eval-deep-parentheses"),
        pytest.param(["eval", "model.json", "[{1,}]p1"], id="eval-malformed-coalition"),
        pytest.param(["eval", "model.json", _DIGITS + ".p1"], id="eval-long-nfold-count"),
        pytest.param(["eval", "model.json", "p" + _DIGITS], id="eval-long-proposition"),
        pytest.param(["eval", "model.json", f"tau({_DIGITS})p1"], id="eval-long-tau-level"),
        pytest.param(["eval", "model.json", f"[{{{_DIGITS}}}]p1"], id="eval-long-player"),
        pytest.param(["eval", "model.json", "99999999999999999999.p1"], id="eval-huge-nfold-count"),
        pytest.param(["eval", "long-int.json", "p1"], id="eval-long-json-integer"),
        pytest.param(["eval", "long-name.json", "p1"], id="eval-long-valuation-name"),
        pytest.param(["filter", "unknown-r-state.json", "p1"], id="filter-unknown-r-state"),
        pytest.param(["filter", "model.json", _DEEP_PARENTHESES], id="filter-deep-parentheses"),
        pytest.param(["synthesize", "invalid.json"], id="synthesize-invalid-json"),
        pytest.param(["synthesize", "negative-players.json"], id="synthesize-negative-players"),
        pytest.param(["decide", "1", "--players", "16"], id="decide-player-budget"),
        pytest.param(["decide", "1", "--players", "-1"], id="decide-negative-players"),
        pytest.param(["decide", _DEEP_NEGATION], id="decide-deep-negation"),
        pytest.param(
            [
                "decide",
                "[{1}]p1 & [{2}]p2 & [{1}]p3 & [{2}]p4 & [{1}]p5 -> [N](p1 & p2 & p3 & p4 & p5)",
                "--max-states",
                "8",
            ],
            id="decide-presentation-subset-cap",
        ),
        pytest.param(["decide", "[{}]p1 -> p1", "--strategy", "randomized"], id="decide-no-strategy"),
        pytest.param(["decide", "[{}]p1 -> p1", "--seed", "5"], id="decide-no-seed"),
        pytest.param(["lift", "letter-key.json", "--n", "2"], id="lift-coalition-key"),
        pytest.param(["lift", "latin-1.json", "--n", "2"], id="lift-not-utf8"),
        pytest.param(["lift", "bool.json", "--n", "100000"], id="lift-cell-budget"),
    ],
)
def test_malformed_input_exit_2(runner, malformed, args):
    args = [str(malformed / a) if a.endswith(".json") else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # not an escaped error
    # a library error is one "error:" line; click refuses an unknown option
    # with its usage text, which ends in one "Error:" line
    lines = result.stderr.splitlines()
    assert lines[0].startswith("error:") or lines[-1].startswith("Error: No such option")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_cli_import_leaves_out_the_corpus():
    # the generators of random models are test and demo inputs only
    src = os.path.dirname(os.path.dirname(os.path.abspath(mveff.cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = "import sys, mveff.cli; print('mveff.corpus' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


_ONE_OUTCOME_FORM = {
    "kind": "game-form", "players": 2, "strategies": [1, 1], "outcomes": ["a"], "o": ["a"]
}


@pytest.mark.parametrize(
    "args",
    (
        ["effectivity", "form.json", "--n", "200000"],
        ["lift", "bool1.json", "--n", "200000"],
        ["lift", "bool2.json", "--n", "511"],
    ),
    ids=("effectivity-one-outcome", "lift-one-outcome", "lift-two-outcomes"),
)
def test_large_chain_fits_a_memory_limit(tmp_path, args):
    # 800 004 and 2^20 cells, under the cell budget: building them takes
    # memory linear in the table
    (tmp_path / "form.json").write_text(json.dumps(_ONE_OUTCOME_FORM))
    one = effectivity_table(GameForm.from_doc(_ONE_OUTCOME_FORM), Chain(1))
    (tmp_path / "bool1.json").write_text(one.to_json())
    (tmp_path / "bool2.json").write_text(playable_boolean_tables()[2].to_json())
    out = _run_under_memory_limit(tmp_path, args)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    n = int(args[-1])
    assert len(doc["table"]["N"]) == (n + 1) ** len(doc["outcomes"])


@pytest.mark.parametrize(
    "args",
    (
        ["synthesize", "eff.json", "--budget-strategies", "5000"],
        ["effectivity", "form.json", "--n", "1000", "--budget-cells", "10000000000"],
    ),
    ids=("synthesize-strategy-budget", "effectivity-out-of-memory"),
)
def test_over_memory_exit_2(tmp_path, args):
    # 5000^2 strategy counts are refused before any is built; the 4 * 1001^3
    # cells are within the cell budget given, but their arrays are not
    # within the memory limit
    form = random_game_form(random.Random(0), 2, 2)
    (tmp_path / "eff.json").write_text(effectivity_table(form, Chain(2)).to_json())
    (tmp_path / "form.json").write_text(random_game_form(random.Random(0), 2, 3).to_json())
    out = _run_under_memory_limit(tmp_path, args)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    if args[0] == "synthesize":
        assert "strategy counts exceed budget" in out.stderr


def _run_under_memory_limit(tmp_path, args):
    """The CLI run in a child process under a 1 GiB address-space limit set
    in the child alone."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(os.path.abspath(mveff.cli.__file__)))
    path = os.environ.get("PYTHONPATH")
    threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **threads}
    return subprocess.run(
        [sys.executable, "-m", "mveff.cli", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, preexec_fn=cap, timeout=300,
    )


def test_deep_nesting_message(runner, workdir):
    result = runner.invoke(main, ["eval", str(workdir / "model.json"), _DEEP_NEGATION])
    assert result.stderr == "error: formula nested too deeply\n"


def test_unknown_state_message(runner, workdir):
    args = ["eval", str(workdir / "model.json"), "p1", "--state", "nope"]
    assert runner.invoke(main, args).stderr == "error: unknown state 'nope'\n"
