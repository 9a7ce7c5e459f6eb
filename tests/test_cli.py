import json
import random

import pytest
from click.testing import CliRunner

from mveff.chain import Chain
from mveff.cli import main
from mveff.corpus import (
    playable_boolean_tables,
    random_game_form,
    random_playable_model,
)
from mveff.games import effectivity_table
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
        pytest.param(["check", "negative-players.json"], id="check-negative-players"),
        pytest.param(["check", "letter-key.json"], id="check-coalition-key"),
        pytest.param(["check", "extra-key.json"], id="check-extra-coalition-key"),
        pytest.param(["check", "same-key.json"], id="check-repeated-coalition-key"),
        pytest.param(["check", "r-triple.json"], id="check-r-triple"),
        pytest.param(["check", "deep.json"], id="check-deep-json"),
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
        pytest.param(["lift", "letter-key.json", "--n", "2"], id="lift-coalition-key"),
        pytest.param(["lift", "latin-1.json", "--n", "2"], id="lift-not-utf8"),
    ],
)
def test_malformed_input_exit_2(runner, malformed, args):
    args = [str(malformed / a) if a.endswith(".json") else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # not an escaped error
    assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_deep_nesting_message(runner, workdir):
    result = runner.invoke(main, ["eval", str(workdir / "model.json"), _DEEP_NEGATION])
    assert result.stderr == "error: formula nested too deeply\n"


def test_unknown_state_message(runner, workdir):
    args = ["eval", str(workdir / "model.json"), "p1", "--state", "nope"]
    assert runner.invoke(main, args).stderr == "error: unknown state 'nope'\n"
