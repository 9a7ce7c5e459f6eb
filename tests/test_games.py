import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mveff.chain import Chain
from mveff.corpus import random_game_form
from mveff.errors import BadDocument, BudgetExceeded, InvalidInput
from mveff.formulas import Coalition
from mveff.games import (
    GameForm,
    boolean_effectivity,
    effectivity_table,
    mv_effectivity,
)
from mveff.tables import enumerate_assessments


def _brute_max_min(g, mask, f, n):
    """The displayed max-min, by walking every joint strategy of the
    coalition and of its complement."""
    inside = [i for i in range(g.k) if mask >> i & 1]
    outside = [i for i in range(g.k) if not mask >> i & 1]
    best = 0
    for joint_in in itertools.product(*(range(g.strategy_counts[i]) for i in inside)):
        worst = n
        for joint_out in itertools.product(
            *(range(g.strategy_counts[i]) for i in outside)
        ):
            profile = [0] * g.k
            for i, s in zip(inside + outside, joint_in + joint_out):
                profile[i] = s
            worst = min(worst, f[g.outcome_of(profile)])
        best = max(best, worst)
    return best


def _matching_pennies():
    # two players, two strategies, outcome decided by parity
    return GameForm(
        strategy_counts=(2, 2),
        outcomes=("s0", "s1"),
        outcome_map=(0, 1, 1, 0),
    )


def test_shape_validation():
    with pytest.raises(ValueError):
        GameForm((2,), ("a", "b"), (0, 1))
    with pytest.raises(ValueError):
        GameForm((2, 2), ("a", "b"), (0, 1, 0))
    with pytest.raises(ValueError):
        GameForm((2, 2), ("a", "b"), (0, 1, 0, 2))


def test_profiles_and_outcomes():
    g = _matching_pennies()
    assert g.num_profiles == 4
    assert list(g.profiles()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert g.outcome_of((1, 0)) == 1
    assert g.range_of_outcomes() == frozenset({0, 1})


def test_boolean_effectivity_matching_pennies():
    g = _matching_pennies()
    k = 2
    # neither player alone can force a single outcome
    for player in (1, 2):
        c = Coalition.of([player], k)
        assert not boolean_effectivity(g, c, {0})
        assert not boolean_effectivity(g, c, {1})
        assert boolean_effectivity(g, c, {0, 1})
    # the grand coalition forces anything in the range
    grand = Coalition.grand(k)
    assert boolean_effectivity(g, grand, {0})
    assert boolean_effectivity(g, grand, {1})
    # the empty coalition forces only supersets of the range
    empty = Coalition.empty(k)
    assert not boolean_effectivity(g, empty, {0})
    assert boolean_effectivity(g, empty, {0, 1})


def test_boolean_effectivity_reads_the_boolean_table():
    rng = random.Random(1)
    for _ in range(10):
        g = random_game_form(rng, 2, 3)
        table = effectivity_table(g, Chain(1))
        for mask in range(4):
            for f in enumerate_assessments(1, 3):
                target = {j for j, x in enumerate(f) if x}
                forced = boolean_effectivity(g, Coalition(mask, 2), target)
                assert forced == (table.value_num(mask, f) == 1)


def test_mv_effectivity_is_max_min():
    rng = random.Random(0)
    chain = Chain(3)
    for k, outcomes, forms in ((2, 2, 20), (3, 2, 8)):
        for _ in range(forms):
            g = random_game_form(rng, k, outcomes)
            for mask in range(1 << k):
                c = Coalition(mask, k)
                for f in enumerate_assessments(3, outcomes):
                    assert mv_effectivity(g, chain, c, f).num == _brute_max_min(g, mask, f, 3)


@pytest.mark.parametrize("f", [(1.5, 2), (0, 7), (-1, 0), (0, None), (0, 1, 2), ((0, 1), (1, 0))])
def test_mv_effectivity_rejects_assessments_off_the_chain(f):
    # an entry that is not an int in 0..n is an input error even where the
    # max-min would not land on it
    g = _matching_pennies()
    with pytest.raises(InvalidInput):
        mv_effectivity(g, Chain(2), Coalition.empty(2), f)


def test_effectivity_table_matches_pointwise():
    rng = random.Random(1)
    chain = Chain(2)
    for k, outcomes, forms in ((2, 3, 10), (3, 3, 4)):
        for _ in range(forms):
            g = random_game_form(rng, k, outcomes)
            E = effectivity_table(g, chain)
            for mask in range(1 << k):
                for fi, f in enumerate(enumerate_assessments(2, outcomes)):
                    assert E.table[mask][fi] == _brute_max_min(g, mask, f, 2)


def test_empty_coalition_single_empty_joint_strategy():
    g = _matching_pennies()
    chain = Chain(2)
    empty = Coalition.empty(2)
    # E(emptyset, f) = min over all profiles of f(o(profile))
    assert mv_effectivity(g, chain, empty, (1, 2)).num == 1
    assert mv_effectivity(g, chain, empty, (2, 2)).num == 2


def test_cell_budget():
    # the budget counts the profiles x 2^k cells the reductions of the
    # profile cube read: 4 x 4 = 16 for matching pennies, at every n
    g = _matching_pennies()
    with pytest.raises(BudgetExceeded):
        effectivity_table(g, Chain(2), cell_budget=10)
    assert effectivity_table(g, Chain(2), cell_budget=16).rows().size == 36


def test_document_round_trip():
    g = random_game_form(random.Random(2), 2, 2)
    doc = json.loads(g.to_json())
    assert doc["kind"] == "game-form"
    assert GameForm.from_doc(doc) == g
    rng = random.Random(3)
    for k in (2, 3, 4):
        for outcomes in (1, 3):
            g = random_game_form(rng, k, outcomes)
            assert GameForm.from_doc(json.loads(g.to_json())) == g


@st.composite
def _game_forms(draw, max_outcomes=3):
    """Any game form of 2 to 3 players, 1 to 3 strategies each, and 1 to
    max_outcomes outcomes."""
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    size = draw(st.integers(1, max_outcomes))
    outcomes = draw(st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True))
    profiles = math.prod(counts)
    omap = draw(st.lists(st.integers(0, size - 1), min_size=profiles, max_size=profiles))
    return GameForm(strategy_counts=counts, outcomes=tuple(outcomes), outcome_map=tuple(omap))


@settings(max_examples=60, deadline=None)
@given(_game_forms())
def test_document_round_trip_of_any_game_form(g):
    assert GameForm.from_doc(json.loads(g.to_json())) == g


def _dense_max_min_table(g, n):
    """Every cell of the chain-valued table by the displayed max-min, over
    all (n+1)^S assessments at once: per coalition, the max over its joint
    strategies of the min over the profiles that extend each one."""
    f = np.array(list(enumerate_assessments(n, len(g.outcomes))))
    profiles = list(g.profiles())
    values = f[:, [g.outcome_of(p) for p in profiles]]
    table = []
    for mask in range(1 << g.k):
        extending = {}
        for j, p in enumerate(profiles):
            joint = tuple(s for i, s in enumerate(p) if mask >> i & 1)
            extending.setdefault(joint, []).append(j)
        table.append(np.max([values[:, js].min(axis=1) for js in extending.values()], axis=0))
    return np.array(table)


@settings(max_examples=80, deadline=None)
@given(_game_forms(max_outcomes=5), st.integers(1, 4))
def test_table_is_the_dense_max_min(g, n):
    # the table is computed at n = 1 and held as that skeleton; its cells
    # are the max-min of every (coalition, assessment)
    E = effectivity_table(g, Chain(n))
    assert E.rows().tolist() == _dense_max_min_table(g, n).tolist()


def test_bad_game_form_documents():
    doc = random_game_form(random.Random(2), 2, 2).to_doc()
    with pytest.raises(BadDocument):
        GameForm.from_doc({**doc, "o": ["elsewhere"] * len(doc["o"])})
    with pytest.raises(BadDocument):
        GameForm.from_doc({key: value for key, value in doc.items() if key != "o"})


def test_wrong_typed_game_form_fields():
    doc = random_game_form(random.Random(2), 2, 2).to_doc()
    for bad in (
        {"strategies": 4},
        {"strategies": ["2", "2"]},
        {"o": [["s0"]] * len(doc["o"])},
    ):
        with pytest.raises(BadDocument):
            GameForm.from_doc({**doc, **bad})


def test_game_form_refuses_repeated_outcomes():
    with pytest.raises(InvalidInput, match="outcomes declares 's0' twice"):
        GameForm(strategy_counts=(1, 2), outcomes=("s0", "s0"), outcome_map=(0, 1))
