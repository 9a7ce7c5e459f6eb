"""File-oriented command line front end.

Each subcommand reads self-describing JSON documents (a "kind" field names
the document type), writes one document or a text rendering to stdout, and
exits 0 on success, 1 when the checked property fails or a countermodel is
found, 2 on errors: an MveffError or an OSError, mapped in one place.
"""

from __future__ import annotations

import json
import sys

import click

from .chain import Chain
from .decide import LOGIC_PN, LOGIC_TPN, search_countermodel
from .errors import BadDocument, BudgetExceeded, InvalidInput, MveffError, check_document
from .filtration import (
    STAGE_ENRICHED,
    STAGE_INTERMEDIATE,
    STAGE_PLAYABLE,
    enriched_filtration,
    intermediate_filtration,
    playable_filtration,
)
from .formulas import DIALECT_L, DIALECT_LPLUS, parse
from .games import GameForm, effectivity_table
from .models import EnrichedLnModel, LnModel, eval_vector, is_standard
from .tables import (
    EffFn,
    check_playability,
    check_playability_many,
    check_properties,
    lift_boolean,
    synthesize_game_form,
)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
    # a ValueError: undecodable bytes, invalid JSON or, with no class of its
    # own, an integer of more digits than int() reads
    except (ValueError, RecursionError) as exc:
        source = "standard input" if path == "-" else path
        raise BadDocument(f"{source} is not a UTF-8 JSON document: {exc}") from exc
    check_document(doc, ())
    return doc


def _model_and_formula(path: str, text: str):
    """The model document at path, and the formula parsed in its dialect."""
    model = LnModel.from_doc(_read_doc(path))
    dialect = DIALECT_LPLUS if isinstance(model, EnrichedLnModel) else DIALECT_L
    return model, parse(text, model.k, dialect=dialect, chain=model.chain)


def _emit(doc: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in sorted(doc.items()):
            if key == "kind":
                continue
            click.echo(f"{key}: {json.dumps(value, sort_keys=True)}")


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json"
)


class _Main(click.Group):
    """The command group, and the one place an error becomes exit 2.  A
    RecursionError can only come from a deeply nested formula: _read_doc
    turns one from a deeply nested document into a BadDocument.  A
    MemoryError is an allocation within a budget the machine cannot hold."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (MveffError, OSError) as exc:
            message = str(exc)
        except RecursionError:
            message = "formula nested too deeply"
        except MemoryError as exc:
            message = str(exc) or "out of memory"
        click.echo(f"error: {message}", err=True)
        ctx.exit(2)


@click.group(cls=_Main)
def main():
    """Exact chain-valued effectivity toolkit."""


@main.command("effectivity")
@click.argument("game_form_file")
@click.option("--n", default=1, show_default=True, help="chain parameter")
@click.option("--budget-cells", default=1 << 20, show_default=True)
@_format_option
def cmd_effectivity(game_form_file, n, budget_cells, fmt):
    """Full effectivity table of a game form document."""
    form = GameForm.from_doc(_read_doc(game_form_file))
    chain = Chain(n)
    # the document is dense: its cells count against the budget, and are
    # built under it
    cells = (n + 1) ** len(form.outcomes) << form.k
    if cells > budget_cells:
        raise BudgetExceeded(f"{cells} table cells exceed budget {budget_cells}")
    table = effectivity_table(form, chain, cell_budget=budget_cells)
    table._cells(budget_cells)
    _emit(table.to_doc(), fmt)


@main.command("check")
@click.argument("input_file")
@click.argument("properties", nargs=-1)
@_format_option
def cmd_check(input_file, properties, fmt):
    """Playability (or standardness) report for a table or model document.

    With no explicit properties the full report is produced; the exit code
    is 1 as soon as any requested property fails.  Properties are refused
    with a model document.
    """
    doc = _read_doc(input_file)
    kind = doc.get("kind", "effectivity")
    if kind in ("model", "enriched-model"):
        if properties:
            raise InvalidInput("properties are checked on a table document, not on a model")
        model = LnModel.from_doc(doc)
        reports = check_playability_many(model.eff)
        results = {u: report.to_doc() for u, report in zip(model.states, reports)}
        out = {"kind": "model-check", "per_state": results}
        if isinstance(model, EnrichedLnModel):
            out["standard"] = is_standard(model)
        playable = all(r["truly_playable"] for r in results.values())
        verdict = playable and out.get("standard", True)
    else:
        E = EffFn.from_doc(doc)
        if properties:
            checks = check_properties(E, properties)
            out = {"kind": "property-check"}
            out.update((check.name, check.holds) for check in checks)
            verdict = all(check.holds for check in checks)
        else:
            report = check_playability(E)
            out = report.to_doc()
            verdict = report.playable
    _emit(out, fmt)
    sys.exit(0 if verdict else 1)


@main.command("eval")
@click.argument("model_file")
@click.argument("formula_text")
@click.option("--state", default=None, help="evaluate at one state only")
@_format_option
def cmd_eval(model_file, formula_text, state, fmt):
    """Value of a formula in a model, per state or at one state."""
    model, phi = _model_and_formula(model_file, formula_text)
    values = eval_vector(model, phi)
    if state is not None:
        value = values[model.state_index(state)]
        _emit({"kind": "value", "state": state, "value": value, "n": model.n}, fmt)
        sys.exit(0 if value == model.n else 1)
    doc = {
        "kind": "values",
        "n": model.n,
        "values": {u: values[j] for j, u in enumerate(model.states)},
    }
    _emit(doc, fmt)
    sys.exit(0 if all(v == model.n for v in values) else 1)


_FILTRATIONS = {
    STAGE_INTERMEDIATE: intermediate_filtration,
    STAGE_PLAYABLE: playable_filtration,
    STAGE_ENRICHED: enriched_filtration,
}


@main.command("filter")
@click.argument("model_file")
@click.argument("formula_text")
@click.option(
    "--stage",
    type=click.Choice(list(_FILTRATIONS)),
    default=STAGE_PLAYABLE,
    show_default=True,
)
@_format_option
def cmd_filter(model_file, formula_text, stage, fmt):
    """Filtration of a model by a formula, at the chosen stage."""
    model, phi = _model_and_formula(model_file, formula_text)
    result = _FILTRATIONS[stage](model, phi)
    doc = result.model.to_doc()
    doc["class_map"] = result.quotient.to_doc()["classes"]
    _emit(doc, fmt)


@main.command("synthesize")
@click.argument("effectivity_file")
@click.option("--budget-strategies", default=3, show_default=True)
@_format_option
def cmd_synthesize(effectivity_file, budget_strategies, fmt):
    """A game form realizing a truly playable effectivity table."""
    E = EffFn.from_doc(_read_doc(effectivity_file))
    form = synthesize_game_form(E, budget=budget_strategies)
    _emit(form.to_doc(), fmt)


@main.command("decide")
@click.argument("formula_text")
@click.option(
    "--logic", type=click.Choice([LOGIC_PN, LOGIC_TPN]), default=LOGIC_PN
)
@click.option("--n", default=1, show_default=True)
@click.option("--players", default=2, show_default=True)
@click.option("--max-states", default=8, show_default=True)
@_format_option
def cmd_decide(formula_text, logic, n, players, max_states, fmt):
    """Countermodel search; exit 1 when a countermodel is found."""
    chain = Chain(n)
    dialect = DIALECT_LPLUS if logic == LOGIC_TPN else DIALECT_L
    phi = parse(formula_text, players, dialect=dialect, chain=chain)
    verdict = search_countermodel(
        phi, logic=logic, max_states=max_states, chain=chain, players=players
    )
    _emit(verdict.to_doc(), fmt)
    sys.exit(1 if verdict.model is not None else 0)


@main.command("lift")
@click.argument("boolean_effectivity_file")
@click.option("--n", required=True, type=int, help="target chain parameter")
@_format_option
def cmd_lift(boolean_effectivity_file, n, fmt):
    """Canonical chain-valued lift of a playable Boolean table."""
    H = EffFn.from_doc(_read_doc(boolean_effectivity_file))
    E = lift_boolean(H, Chain(n))
    _emit(E.to_doc(), fmt)


if __name__ == "__main__":
    main()
