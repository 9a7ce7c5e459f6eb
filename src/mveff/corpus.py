"""Deterministic corpora of game forms, tables, models and formulas.

Everything here is seeded; the same seed reproduces the same objects, which
is what makes the downstream reports byte-stable.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .chain import Chain
from .formulas import (
    Box,
    BoxO,
    Coalition,
    Formula,
    Implies,
    Neg,
    Prop,
    TOP,
    meet,
    odot,
    oplus,
)
from .games import GameForm, effectivity_table
from .models import EnrichedLnModel, LnModel, standardize
from .tables import BOOL_CHAIN, EffFn, check_playability, game_form_maps

BOOL = BOOL_CHAIN


def state_names(count: int) -> tuple[str, ...]:
    return tuple(f"s{j}" for j in range(count))


def all_game_forms(k: int, max_strategies: int, num_outcomes: int):
    """Every game form up to the strategy cap, in the order of
    tables.game_form_maps."""
    outcomes = state_names(num_outcomes)
    for shape, outcome_map in game_form_maps(k, max_strategies, range(num_outcomes)):
        yield GameForm(strategy_counts=shape, outcomes=outcomes, outcome_map=outcome_map)


@lru_cache(maxsize=None)
def playable_boolean_tables(num_states: int = 2, k: int = 2) -> tuple[EffFn, ...]:
    """Exhaustive enumeration of playable two-valued tables.

    Liveness and safety pin the extreme cells, so only the remaining cells
    are enumerated before the full playability check filters the rest.
    """
    num_assessments = 1 << num_states
    free = [fi for fi in range(num_assessments) if fi not in (0, num_assessments - 1)]
    masks = range(1 << k)
    out = []
    for bits in itertools.product((0, 1), repeat=len(free) * len(masks)):
        table = []
        pos = 0
        for _ in masks:
            row = [0] * num_assessments
            row[num_assessments - 1] = 1
            for fi in free:
                row[fi] = bits[pos]
                pos += 1
            table.append(row)
        E = EffFn(
            chain=BOOL, k=k, outcomes=state_names(num_states), table=table
        )
        if check_playability(E).playable:
            out.append(E)
    return tuple(out)


def random_game_form(rng: random.Random, k: int, num_outcomes: int, max_strategies: int = 3) -> GameForm:
    shape = tuple(rng.randint(1, max_strategies) for _ in range(k))
    num_profiles = 1
    for m in shape:
        num_profiles *= m
    outcome_map = [rng.randrange(num_outcomes) for _ in range(num_profiles)]
    # guarantee every outcome is hit somewhere so liveness has bite
    if num_profiles >= num_outcomes:
        positions = rng.sample(range(num_profiles), num_outcomes)
        for o, pos in enumerate(positions):
            outcome_map[pos] = o
    return GameForm(
        strategy_counts=shape,
        outcomes=state_names(num_outcomes),
        outcome_map=tuple(outcome_map),
    )


def random_eff_table(rng: random.Random, chain: Chain, num_states: int, k: int) -> EffFn:
    """A mixed draw: playable (from a game form), perturbed, or uniform."""
    style = rng.randrange(3)
    if style == 0:
        form = random_game_form(rng, k, num_states)
        return effectivity_table(form, chain)
    if style == 1:
        form = random_game_form(rng, k, num_states)
        E = effectivity_table(form, chain)
        table = E.rows().copy()
        for _ in range(rng.randint(1, 3)):
            mask = rng.randrange(1 << k)
            fi = rng.randrange(table.shape[1])
            table[mask, fi] = rng.randint(0, chain.n)
        return EffFn(chain=chain, k=k, outcomes=E.outcomes, table=table)
    count = (chain.n + 1) ** num_states
    table = [
        [rng.randint(0, chain.n) for _ in range(count)] for _ in range(1 << k)
    ]
    return EffFn(chain=chain, k=k, outcomes=state_names(num_states), table=table)


def random_playable_model(
    rng: random.Random,
    chain: Chain,
    num_states: int,
    k: int = 2,
    props=(1, 2),
    max_strategies: int = 3,
) -> LnModel:
    """A model whose every state carries the table of a random game form.

    Tables of game forms are truly playable, so the whole model is.
    """
    states = state_names(num_states)
    eff = tuple(
        effectivity_table(random_game_form(rng, k, num_states, max_strategies), chain)
        for _ in states
    )
    valuation = {
        p: tuple(rng.randint(0, chain.n) for _ in states) for p in props
    }
    return LnModel(chain=chain, states=states, eff=eff, valuation=valuation)


def random_enriched_model(
    rng: random.Random, chain: Chain, num_states: int, k: int = 2, props=(1, 2)
) -> EnrichedLnModel:
    """A standardized enriched model over a random playable base."""
    return standardize(random_playable_model(rng, chain, num_states, k, props))


def random_formula(
    rng: random.Random,
    depth: int,
    props,
    k: int,
    chain: Chain,
    allow_outcome: bool = False,
) -> Formula:
    """A random kernel formula of bounded depth."""
    if depth == 0 or rng.random() < 0.2:
        choice = rng.randrange(len(props) + 1)
        if choice == len(props):
            return TOP
        return Prop(props[choice])
    shapes = ["neg", "implies", "box", "oplus", "odot", "meet"]
    if allow_outcome:
        shapes.append("boxo")
    shape = rng.choice(shapes)
    sub = lambda: random_formula(rng, depth - 1, props, k, chain, allow_outcome)
    if shape == "neg":
        return Neg(sub())
    if shape == "implies":
        return Implies(sub(), sub())
    if shape == "box":
        return Box(Coalition(rng.randrange(1 << k), k), sub())
    if shape == "boxo":
        return BoxO(sub())
    if shape == "oplus":
        return oplus(sub(), sub())
    if shape == "odot":
        return odot(sub(), sub())
    return meet(sub(), sub())


def known_truly_playable_tables(min_count: int = 10) -> tuple[EffFn, ...]:
    """Distinct truly playable tables computed from small game forms.

    Covers both the two-valued chain and the three-element chain over a
    two-outcome state set; used as synthesis targets.
    """
    out = []
    seen = set()
    for chain in (Chain(1), Chain(2)):
        for form in all_game_forms(k=2, max_strategies=2, num_outcomes=2):
            E = effectivity_table(form, chain)
            if E not in seen:
                seen.add(E)
                out.append(E)
        if len(out) >= min_count * 2:
            break
    return tuple(out)
