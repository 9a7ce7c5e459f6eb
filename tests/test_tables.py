import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mveff import tables
from mveff.chain import Chain
from mveff.corpus import (
    playable_boolean_tables,
    random_eff_table,
    random_game_form,
    state_names,
)
from mveff.errors import (
    BadDocument,
    NotHomogeneous,
    NotPlayableInput,
    NotTrulyPlayable,
    SynthesisBudgetExceeded,
)
from mveff.games import GameForm, effectivity_table
from mveff.tables import (
    PLAYABLE_PARTS,
    PROPERTY_NAMES,
    EffFn,
    PlayabilityReport,
    boolean_skeleton,
    check_playability,
    check_property,
    decode_assessment,
    encode_assessment,
    enumerate_assessments,
    equal_by_skeleton,
    lift_boolean,
    synthesize_game_form,
)

BOOL = Chain(1)


def _game_table(seed=0, n=2, outcomes=2):
    rng = random.Random(seed)
    return effectivity_table(random_game_form(rng, 2, outcomes), Chain(n))


def test_assessment_encoding_round_trip():
    for n in (1, 2, 3):
        for size in (1, 2, 3):
            for fi, f in enumerate(enumerate_assessments(n, size)):
                assert encode_assessment(f, n) == fi
                assert decode_assessment(fi, n, size) == f


def test_geometry_tuples_follow_enumeration_order():
    for n in (1, 2, 3):
        for size in (1, 2, 3):
            tuples = tables._geometry(n, size).tuples
            assert tuples.dtype == np.int64
            assert [tuple(f) for f in tuples.tolist()] == list(
                enumerate_assessments(n, size)
            )
            assert not tuples.flags.writeable


def test_table_validation():
    with pytest.raises(ValueError):
        EffFn(Chain(1), 2, ("a", "b"), [[0, 0, 0, 1]] * 3)
    with pytest.raises(ValueError):
        EffFn(Chain(1), 2, ("a", "b"), [[0, 0, 0, 2]] * 4)


def test_game_form_tables_truly_playable():
    for seed in range(10):
        E = _game_table(seed)
        report = check_playability(E)
        assert report.truly_playable, report.witnesses


def test_property_witnesses():
    # break safety on an otherwise fine table and watch the witness
    E = _game_table(3)
    table = [list(row) for row in E.table]
    table[1][0] = 1
    bad = EffFn(E.chain, E.k, E.outcomes, table)
    check = check_property(bad, "safety")
    assert not check.holds and check.witness == (1, 0)
    assert not check_playability(bad).playable


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        check_property(_game_table(0), "sideways")


def test_regularity_failure_detected():
    # a table where both proper coalitions force complementary outcomes
    table = [
        [0, 0, 0, 1],  # empty
        [0, 1, 0, 1],  # {1} forces {s1}; assessments encode (f(s0), f(s1))
        [0, 0, 1, 1],  # {2} forces {s0}
        [0, 1, 1, 1],  # N
    ]
    E = EffFn(BOOL, 2, state_names(2), table)
    assert not check_property(E, "regular").holds
    assert not check_property(E, "superadditive").holds


def test_skeleton_and_lift_round_trip():
    chain = Chain(3)
    for H in playable_boolean_tables(2, 2):
        E = lift_boolean(H, chain)
        assert boolean_skeleton(E) == H
        report = check_playability(E)
        assert report.playable
        assert report.truly_playable == check_playability(H).truly_playable


def test_lift_is_identity_on_boolean():
    H = playable_boolean_tables(2, 2)[0]
    assert lift_boolean(H, BOOL) is H


def test_lift_requires_playable_input():
    table = [[0, 0, 0, 1]] * 4
    table[0] = [0, 1, 1, 1]  # empty coalition stronger than N: not N-maximal
    H = EffFn(BOOL, 2, state_names(2), [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]])
    bad_rows = [list(r) for r in H.table]
    bad_rows[0][1] = 1
    bad = EffFn(BOOL, 2, state_names(2), bad_rows)
    with pytest.raises(NotPlayableInput):
        lift_boolean(bad, Chain(2))


def test_skeleton_rejects_inhomogeneous_cells():
    E = _game_table(1, n=2)
    table = [list(row) for row in E.table]
    # put a middle value on an idempotent assessment
    idx = encode_assessment((2, 0), 2)
    table[3][idx] = 1
    broken = EffFn(E.chain, E.k, E.outcomes, table)
    with pytest.raises(NotHomogeneous):
        boolean_skeleton(broken)
    assert boolean_skeleton(broken, strict=False).table[3][2] == 0


def test_equal_by_skeleton():
    chain = Chain(2)
    tables = [lift_boolean(H, chain) for H in playable_boolean_tables(2, 2)]
    for i, E in enumerate(tables):
        for j, F in enumerate(tables):
            assert equal_by_skeleton(E, F, debug=True) == (i == j)


def test_synthesis_round_trip():
    for seed in range(6):
        E = _game_table(seed, n=1)
        form = synthesize_game_form(E, budget=3)
        assert effectivity_table(form, E.chain) == E


def test_synthesis_rejects_non_truly_playable():
    table = [[0, 1, 1, 1]] * 4  # accepts every nonempty set, empty coalition too strong
    E = EffFn(BOOL, 2, state_names(2), table)
    with pytest.raises(NotTrulyPlayable):
        synthesize_game_form(E)


def test_synthesis_budget():
    E = _game_table(0, n=1)
    with pytest.raises(SynthesisBudgetExceeded):
        synthesize_game_form(E, budget=0)


def test_document_round_trip():
    E = _game_table(4)
    doc = json.loads(E.to_json())
    assert doc["kind"] == "effectivity"
    assert set(doc["table"]) == {"{}", "{1}", "{2}", "N"}
    assert EffFn.from_doc(doc) == E


def test_random_tables_playable_iff_all_parts():
    rng = random.Random(9)
    for _ in range(60):
        chain = Chain(rng.randint(1, 3))
        E = random_eff_table(rng, chain, rng.randint(1, 2), 2)
        report = check_playability(E)
        parts = report.properties
        expected = (
            parts["outcome_monotonic"]
            and parts["N_maximal"]
            and parts["superadditive"]
            and parts["homogeneous"]
            and parts["liveness"]
            and parts["safety"]
        )
        assert report.playable == expected


def test_bad_effectivity_documents():
    doc = _game_table(4).to_doc()
    del doc["players"]
    with pytest.raises(BadDocument):
        EffFn.from_doc(doc)
    with pytest.raises(BadDocument):
        EffFn.from_doc([doc])


def test_wrong_typed_effectivity_fields():
    doc = _game_table(4).to_doc()
    for bad in (
        {"table": []},
        {"table": {**doc["table"], "N": "ab"}},
        {"players": "2"},
        {"outcomes": "s0"},
    ):
        with pytest.raises(BadDocument):
            EffFn.from_doc({**doc, **bad})


# -- the skeleton-first battery against the dense one --------------------------


def _dense_report(E):
    """Reference: every predicate run on the full table itself."""
    checks = {name: check_property(E, name) for name in PROPERTY_NAMES}
    semi = check_property(E, "semi_playable")
    witnesses = {
        name: check.witness
        for name, check in [*checks.items(), ("semi_playable", semi)]
        if check.witness is not None
    }
    playable = all(checks[name].holds for name in PLAYABLE_PARTS)
    return PlayabilityReport(
        properties={name: check.holds for name, check in checks.items()},
        witnesses=witnesses,
        semi_playable=semi.holds,
        playable=playable,
        truly_playable=playable and checks["principal"].holds,
    ).to_doc()


@st.composite
def _upset_table(draw, n, k, size):
    """Lift of a Boolean table whose rows are random upsets."""
    rows = []
    for _ in range(1 << k):
        generators = draw(st.lists(st.integers(0, (1 << size) - 1), max_size=3))
        rows.append(
            [int(any(g & ~a == 0 for g in generators)) for a in range(1 << size)]
        )
    H = EffFn(BOOL, k, state_names(size), rows)
    return lift_boolean(H, Chain(n), check_input=False)


@st.composite
def _game_form_table(draw, n, k, size):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(k))
    profiles = 1
    for m in shape:
        profiles *= m
    outcome_map = draw(
        st.lists(st.integers(0, size - 1), min_size=profiles, max_size=profiles)
    )
    form = GameForm(shape, state_names(size), tuple(outcome_map))
    return effectivity_table(form, Chain(n))


@st.composite
def _battery_inputs(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.sampled_from((2, 3)))
    size = draw(st.integers(1, 3))
    style = draw(st.sampled_from(("upset", "perturbed upset", "game form")))
    make = _game_form_table if style == "game form" else _upset_table
    E = draw(make(n, k, size))
    if style == "perturbed upset":
        table = [list(row) for row in E.table]
        mask = draw(st.integers(0, len(table) - 1))
        fi = draw(st.integers(0, len(table[0]) - 1))
        table[mask][fi] = draw(st.integers(0, n))
        E = EffFn(E.chain, k, E.outcomes, table)
    return E


@settings(max_examples=200, deadline=None)
@given(_battery_inputs())
def test_playability_report_matches_dense_battery(E):
    assert check_playability(E).to_doc() == _dense_report(E)


def test_superadditivity_blocks_match_one_block(monkeypatch):
    rng = random.Random(5)
    inputs = [
        random_eff_table(rng, Chain(rng.randint(1, 3)), 3, rng.choice((2, 3)))
        for _ in range(40)
    ]
    expected = [_dense_report(E) for E in inputs]
    monkeypatch.setattr(tables, "_MEET_MATRIX_CAP", 50)
    assert [_dense_report(E) for E in inputs] == expected


def test_dense_battery_past_one_meet_block():
    # 3^8 = 6561 assessments: the meet index spans several blocks
    E = effectivity_table(random_game_form(random.Random(3), 2, 8), Chain(2))
    count = len(E.table[0])
    assert count * count > tables._MEET_MATRIX_CAP
    fstar = count - 2
    rows = [list(row) for row in E.table]
    rows[0][fstar] += 1  # breaks homogeneity, so the dense battery runs
    bad = EffFn(E.chain, E.k, E.outcomes, rows)
    report = check_playability(bad)
    assert not report.properties["homogeneous"]
    # every other row of the pair (empty, N) is that of a game-form table,
    # which is superadditive: the first violation lies in row fstar
    f = decode_assessment(fstar, 2, 8)
    full = rows[3]
    gi = next(
        gi
        for gi in range(count)
        if min(rows[0][fstar], full[gi])
        > full[encode_assessment(tuple(map(min, f, decode_assessment(gi, 2, 8))), 2)]
    )
    assert report.witnesses["superadditive"] == (0, 3, fstar, gi)
