import itertools
import json
import math
import pickle
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mveff import tables
from mveff.chain import TAU_ODOT, TAU_OPLUS, Chain
from mveff.corpus import (
    playable_boolean_tables,
    random_eff_table,
    random_game_form,
    state_names,
)
from mveff.errors import (
    BadDocument,
    BudgetExceeded,
    InvalidInput,
    NotHomogeneous,
    NotPlayableInput,
    NotTrulyPlayable,
    SynthesisBudgetExceeded,
)
from mveff.formulas import Coalition
from mveff.games import GameForm, boolean_effectivity, effectivity_table, mv_effectivity
from mveff.models import _valuation_grid
from mveff.tables import (
    PLAYABLE_PARTS,
    PROPERTY_NAMES,
    EffFn,
    PlayabilityReport,
    boolean_skeleton,
    check_playability,
    check_playability_many,
    check_properties,
    check_property,
    encode_assessment,
    enumerate_assessments,
    game_form_maps,
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
            tuples = tables._geometry(n, size).tuples
            for fi, f in enumerate(enumerate_assessments(n, size)):
                assert encode_assessment(f, n) == fi
                assert tuple(tuples[fi].tolist()) == f


def test_geometry_tuples_follow_enumeration_order():
    for n in (1, 2, 3):
        for size in (1, 2, 3):
            tuples = tables._geometry(n, size).tuples
            assert tuples.dtype == np.int64
            assert [tuple(f) for f in tuples.tolist()] == list(
                enumerate_assessments(n, size)
            )
            assert not tuples.flags.writeable


def test_table_from_lists_equals_table_from_array():
    E = _game_table(2)
    from_lists = EffFn(E.chain, E.k, E.outcomes, [list(row) for row in E.table])
    from_array = EffFn(E.chain, E.k, E.outcomes, np.array(E.table, dtype=np.int64))
    assert from_lists == from_array == E
    assert hash(from_lists) == hash(from_array) == hash(E)
    assert from_lists != EffFn(E.chain, E.k, ("x", "y"), from_array.rows())
    assert from_lists.rows().dtype == np.int8


def test_table_view_is_tuples_of_ints():
    E = _game_table(2)
    assert isinstance(E.table, tuple)
    assert all(isinstance(row, tuple) for row in E.table)
    assert all(type(v) is int for row in E.table for v in row)
    assert E.table == tuple(tuple(row) for row in E.rows().tolist())


def test_rows_are_read_only():
    E = _game_table(2)
    assert E.rows() is E.rows()
    with pytest.raises(ValueError):
        E.rows()[0, 0] = 1
    source = np.array(E.table)
    copy = EffFn(E.chain, E.k, E.outcomes, source)
    source[0, 0] = 1  # the table keeps its own cells
    assert copy == E
    with pytest.raises(AttributeError):
        E.k = 3


def test_table_validation():
    with pytest.raises(ValueError):
        EffFn(Chain(1), 2, ("a", "b"), [[0, 0, 0, 1]] * 3)
    with pytest.raises(ValueError):
        EffFn(Chain(1), 2, ("a", "b"), [[0, 0, 0, 2]] * 4)
    with pytest.raises(ValueError, match="shape"):
        EffFn(Chain(1), 2, ("a", "b"), [[0, 0, 0, 1]] * 3 + [[0, 0, 1]])
    with pytest.raises(ValueError, match="outside"):
        EffFn(Chain(1), 2, ("a", "b"), np.full((4, 4), -1))


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


def test_check_properties_decides_once():
    # one _decide run answers any names: every predicate of the report when
    # playable or truly_playable is named, the named ones alone otherwise
    E = _game_table(3)
    table = [list(row) for row in E.table]
    table[1][0] = 1  # break safety
    bad = EffFn(E.chain, E.k, E.outcomes, table)
    report = check_playability(bad)
    holds = {**report.properties, "semi_playable": report.semi_playable}
    for names, decided in (
        (("semi_playable", "safety", "regular"), ("regular", "safety", "semi_playable")),
        (("safety", "truly_playable", "superadditive", "playable"), tables._REPORT_ORDER),
    ):
        with mock.patch.object(tables, "_decide", wraps=tables._decide) as decide:
            checks = check_properties(bad, names)
        assert decide.call_count == 1 and decide.call_args.args[1] == decided
        assert [check.name for check in checks] == list(names)
        for check in checks:
            if check.name in ("playable", "truly_playable"):
                assert check.holds == getattr(report, check.name)
            else:
                assert check.holds == holds[check.name]
                assert check.witness == report.witnesses.get(check.name)
    # k = 2, n = 700, one outcome, a middle value at the top: its
    # superadditivity count is over the budget, and the report raises that
    # after the regular verdict, in the order named
    rows = [[0] * 700 + [700] for _ in range(4)]
    rows[0][-1] = 1
    big = EffFn(Chain(700), 2, ["s0"], rows)
    with mock.patch.object(tables, "_decide", wraps=tables._decide) as decide:
        [regular] = check_properties(big, ("regular",))
        with mock.patch.object(tables, "PropertyCheck", wraps=tables.PropertyCheck) as made:
            with pytest.raises(BudgetExceeded):
                check_properties(big, ("regular", "playable"))
    assert decide.call_count == 2
    assert made.call_args_list == [mock.call("regular", regular.holds, regular.witness)]
    for names in (("superadditive", "regular"), ("truly_playable",)):
        with pytest.raises(BudgetExceeded):
            check_properties(big, names)


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


def _reference_lift(H, n):
    """E(C, f) = the largest i/n whose threshold cut of f H accepts, else 0."""
    cut = lambda f, i: encode_assessment([int(x >= i) for x in f], 1)
    return [
        [
            max([i for i in range(1, n + 1) if row[cut(f, i)]], default=0)
            for f in itertools.product(range(n + 1), repeat=H.num_outcomes)
        ]
        for row in H.rows().tolist()
    ]


def _lift_cells(n, k, outcomes, rows):
    """The lift to Chain(n) of the outcome-monotone Boolean table with the
    given cells, unchecked, held as the generators EffFn takes from them."""
    return tables._generated(Chain(n), k, outcomes, EffFn(BOOL, k, outcomes, rows)._gens)


def _unchecked_lift(H, n):
    """The lift of any Boolean table to Chain(n): held as its generators
    when it is outcome-monotone (as lift_boolean holds a playable table),
    else its dense cells by the threshold definition."""
    if check_property(H, "outcome_monotonic").holds:
        return _lift_cells(n, H.k, H.outcomes, H.rows())
    return EffFn(Chain(n), H.k, H.outcomes, _reference_lift(H, n))


def test_lift_matches_threshold_definition():
    # random Boolean tables, unsafe and unplayable ones too, and game forms'
    # tables, which are playable, each with a copy with one cell flipped:
    # lift_boolean refuses exactly the unplayable ones and holds the others'
    # lifts as their skeletons; the threshold values of every skeleton,
    # monotone or not, are the definition's
    rng = random.Random(4)
    inputs = []
    for draw in range(180):
        n, k, size = rng.choice((2, 3, 5, 64)), rng.randint(2, 3), rng.randint(1, 3)
        if n == 64:
            size = 1
        if draw < 150:
            rows = [[rng.randint(0, 1) for _ in range(1 << size)] for _ in range(1 << k)]
            inputs.append((n, EffFn(BOOL, k, state_names(size), rows)))
            continue
        H = effectivity_table(random_game_form(rng, k, size), BOOL)
        rows = H.rows().copy()
        rows[rng.randrange(1 << k), rng.randrange(1 << size)] ^= 1
        inputs += [(n, H), (n, EffFn(BOOL, k, H.outcomes, rows))]
    playable = 0
    for n, H in inputs:
        reference = _reference_lift(H, n)
        cuts = tables._geometry(n, H.num_outcomes).lift_cuts
        assert tables._lift_values(H.rows(), cuts).tolist() == reference
        if not check_playability(H).playable:
            with pytest.raises(NotPlayableInput):
                lift_boolean(H, Chain(n))
            continue
        playable += 1
        E = lift_boolean(H, Chain(n))
        assert E._gens == H._gens and E._rows is None
        assert E.rows().tolist() == reference
    assert 30 <= playable < len(inputs)


def test_lift_cell_budget():
    # k = 2, 9 outcomes: 4 x 4^9 = 2^20 cells at n = 3 is the effectivity
    # budget exactly; 4 x 5^9 at n = 4 is over it.  A lift is held as its
    # skeleton, so the budget applies where its cells are first built, and
    # raises there before their geometry is built
    H = effectivity_table(random_game_form(random.Random(2), 2, 9), BOOL)
    assert lift_boolean(H, Chain(3)).rows().size == 1 << 20
    E = lift_boolean(H, Chain(4))
    tables._geometry.cache_clear()
    for build in (E.rows, lambda: E.table, E.to_doc):
        with pytest.raises(BudgetExceeded, match="^7812500 lifted table cells exceed budget 1048576$"):
            build()
    assert tables._geometry.cache_info().currsize == 0


def test_lift_requires_playable_input():
    table = [[0, 0, 0, 1]] * 4
    table[0] = [0, 1, 1, 1]  # empty coalition stronger than N: not N-maximal
    H = EffFn(BOOL, 2, state_names(2), [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]])
    bad_rows = [list(r) for r in H.table]
    bad_rows[0][1] = 1
    bad = EffFn(BOOL, 2, state_names(2), bad_rows)
    with pytest.raises(NotPlayableInput):
        lift_boolean(bad, Chain(2))
    # {2} accepts {s0} (assessment 4) and not {s0, s1} (6): a table that
    # fails outcome monotonicity alone, whose lift would not be homogeneous
    rows = [[0] * 7 + [1], [0] * 7 + [1], [0, 1, 1, 1, 1, 1, 0, 1], [0] + [1] * 7]
    bad = EffFn(BOOL, 2, state_names(3), rows)
    report = check_playability(bad)
    assert [name for name in PLAYABLE_PARTS if not report.properties[name]] == ["outcome_monotonic"]
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


def test_equal_by_skeleton():
    # lifted tables are equal exactly when their Boolean skeletons are
    chain = Chain(2)
    lifted = [lift_boolean(H, chain) for H in playable_boolean_tables(2, 2)]
    for i, E in enumerate(lifted):
        for j, F in enumerate(lifted):
            assert (boolean_skeleton(E) == boolean_skeleton(F)) == (E == F) == (i == j)


def test_synthesis_round_trip():
    for seed in range(6):
        E = _game_table(seed, n=1)
        form = synthesize_game_form(E, budget=3)
        assert effectivity_table(form, E.chain) == E


def test_forced_range_is_the_intersection_of_accepted_sets():
    for seed in range(6):
        H = _game_table(seed, n=1)
        accepted = [
            {j for j, x in enumerate(f) if x}
            for f, value in zip(enumerate_assessments(1, H.num_outcomes), H.table[0])
            if value == 1
        ]
        forced = set.intersection(*accepted)
        forced_range = tables._forced_range(H.rows()[None], H.geometry())[0]
        assert set(np.flatnonzero(forced_range).tolist()) == forced
        assert synthesize_game_form(H).range_of_outcomes() == forced
    # an empty coalition that accepts nothing forces nothing away
    nothing = EffFn(BOOL, 2, state_names(2), [[0, 0, 0, 0]] * 4)
    assert tables._forced_range(nothing.rows()[None], nothing.geometry()).tolist() == [[True, True]]


def test_synthesis_rejects_non_truly_playable():
    table = [[0, 1, 1, 1]] * 4  # accepts every nonempty set, empty coalition too strong
    E = EffFn(BOOL, 2, state_names(2), table)
    with pytest.raises(NotTrulyPlayable):
        synthesize_game_form(E)


def test_synthesis_budget():
    E = _game_table(0, n=1)
    with pytest.raises(SynthesisBudgetExceeded):
        synthesize_game_form(E, budget=0)
    # 1025^2 strategy counts are over DEFAULT_CELL_BUDGET: refused before
    # any is built, though a realizing form has far fewer
    with pytest.raises(BudgetExceeded, match="1025\\^2 strategy counts"):
        synthesize_game_form(E, budget=1025)


def test_game_form_maps_keep_the_sorted_order():
    for k, budget in itertools.product((1, 2, 3), range(7)):
        shapes = sorted(
            itertools.product(range(1, budget + 1), repeat=k),
            key=lambda shape: (math.prod(shape), shape),
        )
        assert [shape for shape, _ in game_form_maps(k, budget, "a")] == shapes
        expected = (
            (shape, outcome_map)
            for shape in shapes
            for outcome_map in itertools.product("ab", repeat=math.prod(shape))
        )
        got = game_form_maps(k, budget, "ab")
        assert list(itertools.islice(got, 300)) == list(itertools.islice(expected, 300))


def test_first_game_form_map_starts_at_once():
    # 1024^2 strategy counts are within the cap; the first form is reached
    # without building the others
    tracemalloc.start()
    try:
        assert next(game_form_maps(2, 1024, [0])) == ((1, 1), (0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_document_round_trip():
    E = _game_table(4)
    doc = json.loads(E.to_json())
    assert doc["kind"] == "effectivity"
    assert set(doc["table"]) == {"{}", "{1}", "{2}", "N"}
    assert EffFn.from_doc(doc) == E
    rng = random.Random(4)
    for _ in range(10):
        E = random_eff_table(rng, Chain(rng.randint(1, 3)), rng.randint(1, 3), rng.choice((2, 3)))
        assert EffFn.from_doc(json.loads(E.to_json())) == E


@st.composite
def _tables(draw):
    """Any table of n 1 to 3, k 2 to 3 and 1 to 3 outcomes."""
    n, k, size = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    outcomes = draw(st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True))
    cells = st.lists(st.integers(0, n), min_size=(n + 1) ** size, max_size=(n + 1) ** size)
    return EffFn(Chain(n), k, outcomes, draw(st.lists(cells, min_size=1 << k, max_size=1 << k)))


@settings(max_examples=60, deadline=None)
@given(_tables())
def test_document_round_trip_of_any_table(E):
    assert EffFn.from_doc(json.loads(E.to_json())) == E


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


# -- an independent oracle: the per-mask loop predicates ----------------------
#
# One Python loop per coalition, coordinate and coalition pair, over index
# arrays built from enumerate_assessments, and a superadditivity scan that
# holds each pair's whole meet matrix: the loop form of each predicate of
# the array battery, and the reference for every witness.


class _OracleGeometry:
    def __init__(self, n, size):
        self.count = (n + 1) ** size
        self.tuples = np.array(list(enumerate_assessments(n, size)), dtype=np.int64)
        self.tuples = self.tuples.reshape(self.count, size)
        powers = (n + 1) ** np.arange(size - 1, -1, -1, dtype=np.int64)
        self.neg_idx = (n - self.tuples) @ powers
        self.oplus_self_idx = np.minimum(2 * self.tuples, n) @ powers
        self.odot_self_idx = np.maximum(2 * self.tuples - n, 0) @ powers
        self.dec_idx = []
        for j in range(size):
            dec = self.tuples.copy()
            dec[:, j] = np.maximum(dec[:, j] - 1, 0)
            self.dec_idx.append(dec @ powers)
        meets = np.minimum(self.tuples[:, None, :], self.tuples[None, :, :])
        self.meet = meets @ powers


def _oracle_rows(E):
    return np.array(E.table, dtype=np.int64), _OracleGeometry(E.n, len(E.outcomes))


def _oracle_outcome_monotonic(E, masks=None):
    rows, geo = _oracle_rows(E)
    masks = range(1 << E.k) if masks is None else masks
    for mask in masks:
        row = rows[mask]
        for j in range(len(E.outcomes)):
            bad = np.nonzero(row < row[geo.dec_idx[j]])[0]
            if bad.size:
                fi = int(bad[0])
                return False, (mask, fi, int(geo.dec_idx[j][fi]))
    return True, None


def _oracle_n_maximal(E):
    rows, geo = _oracle_rows(E)
    full = (1 << E.k) - 1
    bad = np.nonzero(E.n - rows[0][geo.neg_idx] > rows[full])[0]
    if bad.size:
        return False, (full, int(bad[0]))
    return True, None


def _oracle_regular(E):
    rows, geo = _oracle_rows(E)
    full = (1 << E.k) - 1
    for mask in range(1 << E.k):
        comp = full & ~mask
        bad = np.nonzero(rows[mask] > E.n - rows[comp][geo.neg_idx])[0]
        if bad.size:
            return False, (mask, int(bad[0]))
    return True, None


def _oracle_superadditive(E, proper_unions_only=False):
    rows, geo = _oracle_rows(E)
    full = (1 << E.k) - 1
    for c1 in range(1 << E.k):
        # every c2 disjoint from c1, in decreasing order
        for c2 in range(full, -1, -1):
            if c1 & c2:
                continue
            if proper_unions_only and c1 | c2 == full:
                continue
            lhs = np.minimum.outer(rows[c1], rows[c2])
            bad = (lhs > rows[c1 | c2][geo.meet]).ravel()
            first = int(bad.argmax())
            if bad[first]:
                fi, gi = divmod(first, geo.count)
                return False, (c1, c2, fi, gi)
    return True, None


def _oracle_coalition_monotonic(E):
    rows, _ = _oracle_rows(E)
    for mask in range(1 << E.k):
        for i in range(E.k):
            if mask >> i & 1:
                continue
            bigger = mask | 1 << i
            bad = np.nonzero(rows[mask] > rows[bigger])[0]
            if bad.size:
                return False, (mask, bigger, int(bad[0]))
    return True, None


def _oracle_homogeneous(E):
    rows, geo = _oracle_rows(E)
    n = E.n
    for mask in range(1 << E.k):
        row = rows[mask]
        bad = np.nonzero(row[geo.oplus_self_idx] != np.minimum(2 * row, n))[0]
        if bad.size:
            return False, (mask, int(bad[0]), "oplus")
        bad = np.nonzero(row[geo.odot_self_idx] != np.maximum(2 * row - n, 0))[0]
        if bad.size:
            return False, (mask, int(bad[0]), "odot")
    return True, None


def _oracle_liveness(E, masks=None):
    top = len(E.table[0]) - 1
    for mask in range(1 << E.k) if masks is None else masks:
        if E.table[mask][top] != E.n:
            return False, (mask, top)
    return True, None


def _oracle_safety(E, masks=None):
    for mask in range(1 << E.k) if masks is None else masks:
        if E.table[mask][0] != 0:
            return False, (mask, 0)
    return True, None


def _oracle_principal(E):
    """Search every outcome subset for a generator of the accepted set."""
    _, geo = _oracle_rows(E)
    ones = np.array(E.table[0]) == E.n
    size = len(E.outcomes)
    for combo_size in range(size + 1):
        for combo in itertools.combinations(range(size), combo_size):
            upset = np.ones(geo.count, dtype=bool)
            for j in combo:
                upset &= geo.tuples[:, j] == E.n
            if np.array_equal(upset, ones):
                return True, None
    return False, None


def _oracle_semi_playable(E):
    proper = range((1 << E.k) - 1)
    for name, check in (
        ("outcome_monotonic", lambda: _oracle_outcome_monotonic(E, proper)),
        ("liveness", lambda: _oracle_liveness(E, proper)),
        ("safety", lambda: _oracle_safety(E, proper)),
        ("superadditive", lambda: _oracle_superadditive(E, proper_unions_only=True)),
    ):
        ok, w = check()
        if not ok:
            return False, (name,) + w
    return True, None


_ORACLE = {
    "outcome_monotonic": _oracle_outcome_monotonic,
    "N_maximal": _oracle_n_maximal,
    "regular": _oracle_regular,
    "superadditive": _oracle_superadditive,
    "coalition_monotonic": _oracle_coalition_monotonic,
    "homogeneous": _oracle_homogeneous,
    "liveness": _oracle_liveness,
    "safety": _oracle_safety,
    "principal": _oracle_principal,
    "semi_playable": _oracle_semi_playable,
}


def _report(E, check):
    """The report doc built from check(E, name) -> (holds, witness)."""
    checks = {name: check(E, name) for name in (*PROPERTY_NAMES, "semi_playable")}
    playable = all(checks[name][0] for name in PLAYABLE_PARTS)
    semi = checks.pop("semi_playable")
    witnesses = {name: w for name, (_, w) in checks.items() if w is not None}
    if semi[1] is not None:
        witnesses["semi_playable"] = semi[1]
    return PlayabilityReport(
        properties={name: holds for name, (holds, _) in checks.items()},
        witnesses=witnesses,
        semi_playable=semi[0],
        playable=playable,
        truly_playable=playable and checks["principal"][0],
    ).to_doc()


def _dense_report(E):
    """Reference: every oracle predicate run on the full table itself."""
    return _report(E, lambda E, name: _ORACLE[name](E))


def _battery_check(E, name):
    check = check_property(E, name)
    return check.holds, check.witness


def _battery_report(E):
    """Every predicate of the array battery run on the full table itself."""
    return _report(E, _battery_check)


@st.composite
def _upset_table(draw, n, k, size):
    """Lift of a Boolean table whose rows are random upsets."""
    rows = []
    for _ in range(1 << k):
        generators = draw(st.lists(st.integers(0, (1 << size) - 1), max_size=3))
        rows.append(
            [int(any(g & ~a == 0 for g in generators)) for a in range(1 << size)]
        )
    return _lift_cells(n, k, state_names(size), rows)


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
def _uniform_table(draw, n, k, size):
    """Every cell drawn on its own: rows far from outcome-monotone, which
    most pairs of coalitions fail."""
    count = (n + 1) ** size
    rows = [
        draw(st.lists(st.integers(0, n), min_size=count, max_size=count))
        for _ in range(1 << k)
    ]
    return EffFn(Chain(n), k, state_names(size), rows)


@st.composite
def _battery_geometry(draw):
    """(n, k, size) with up to 256 assessments, so the dense oracle stays
    quick."""
    size = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5 if size < 4 else 3))
    return n, draw(st.sampled_from((2, 3))), size


@st.composite
def _battery_inputs(draw, geometry=_battery_geometry()):
    n, k, size = draw(geometry)
    style = draw(st.sampled_from(("upset", "perturbed upset", "game form", "uniform")))
    make = {"game form": _game_form_table, "uniform": _uniform_table}.get(style, _upset_table)
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


@st.composite
def _battery_stacks(draw):
    """1-6 tables of one geometry in mixed styles, some of them repeated."""
    geometry = st.just(draw(_battery_geometry()))
    distinct = draw(st.lists(_battery_inputs(geometry), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(_battery_stacks(), st.sampled_from((300, tables._SCAN_CAP)))
def test_stacked_reports_match_single_and_dense(stack, scan_cap):
    # a scan cap of 300 cells cuts the coalition pairs into runs of one or a
    # few, for the whole stack
    dense = {E: _dense_report(E) for E in stack}
    expected = [dense[E] for E in stack]
    with mock.patch.object(tables, "_SCAN_CAP", scan_cap):
        assert [report.to_doc() for report in check_playability_many(stack)] == expected
        assert [check_playability(E).to_doc() for E in stack] == expected


def test_mixed_geometries_keep_input_order():
    rng = random.Random(11)
    perturbed = [list(row) for row in _game_table(2, n=2, outcomes=3).table]
    perturbed[0][-1] = 1  # not homogeneous, not superadditive in general
    stack = [
        _game_table(0, n=2, outcomes=2),
        _game_table(1, n=1, outcomes=3),
        EffFn(Chain(2), 2, state_names(3), perturbed),
        effectivity_table(random_game_form(rng, 3, 2), Chain(3)),
        random_eff_table(rng, Chain(2), 3, 2),
        _game_table(0, n=2, outcomes=2),
        _game_table(1, n=1, outcomes=3),
    ]
    reports = check_playability_many(stack)
    assert [r.to_doc() for r in reports] == [check_playability(E).to_doc() for E in stack]
    assert len({r.truly_playable for r in reports}) == 2
    assert check_playability_many([]) == []


def test_stack_raises_the_first_tables_error(monkeypatch):
    # a k = 2 Boolean table on S outcomes counts (2 x 4 x 2^S + 9) x 2^S
    # cells (each transform is one product over all 2^S assessments, then 9
    # pairs): 164 on two outcomes, under a budget of 200, and 584 and 2192
    # on three and four
    # a game-form table passes on its generators, with no count; the others
    # accept the empty set in the empty coalition's row alone, so are not
    # outcome-monotone, are held as their cells and are counted
    ok, small, large = (_game_table(0, n=1, outcomes=size) for size in (2, 3, 4))
    broken = [E.rows().copy() for E in (small, large)]
    for rows in broken:
        rows[0, 0] = 1
    small, large = (EffFn(BOOL, 2, E.outcomes, rows) for E, rows in zip((small, large), broken))
    monkeypatch.setattr(tables, "_DENSE_CELL_BUDGET", 200)
    for stack, cells in (([ok, small, large], 584), ([large, ok, small], 2192)):
        with pytest.raises(BudgetExceeded, match=f"count of {cells} cells"):
            check_playability_many(stack)
    assert check_playability_many([ok])[0].truly_playable


@st.composite
def _boolean_inputs(draw):
    """k = 3 two-valued tables that fail some predicates: random upsets,
    upsets with one cell flipped, and uniform random rows."""
    size = draw(st.integers(1, 3))
    style = draw(st.sampled_from(("upset", "perturbed upset", "uniform")))
    if style == "uniform":
        rows = [
            draw(st.lists(st.integers(0, 1), min_size=1 << size, max_size=1 << size))
            for _ in range(8)
        ]
        return EffFn(BOOL, 3, state_names(size), rows)
    E = draw(_upset_table(1, 3, size))
    if style == "perturbed upset":
        rows = E.rows().copy()
        mask = draw(st.integers(0, 7))
        fi = draw(st.integers(0, (1 << size) - 1))
        rows[mask, fi] = 1 - rows[mask, fi]
        E = EffFn(BOOL, 3, E.outcomes, rows)
    return E


@settings(max_examples=150, deadline=None)
@given(_boolean_inputs(), st.data())
def test_boolean_battery_matches_oracle_in_split_chunks(E, data):
    # n = 1: no skeleton, the battery runs on the table itself.  A scan cap
    # of 1-300 cells cuts the 27 pairs into runs of one pair or more.
    scan_cap = data.draw(st.integers(1, 300))
    with mock.patch.object(tables, "_SCAN_CAP", scan_cap):
        assert check_playability(E).to_doc() == _dense_report(E)
        assert _battery_report(E) == _dense_report(E)


def test_superadditivity_blocks_match_one_block(monkeypatch):
    rng = random.Random(5)
    inputs = [
        random_eff_table(rng, Chain(rng.randint(1, 3)), 3, rng.choice((2, 3)))
        for _ in range(40)
    ]
    expected = [_dense_report(E) for E in inputs]
    # one coalition pair per run
    monkeypatch.setattr(tables, "_SCAN_CAP", 1)
    assert [_battery_report(E) for E in inputs] == expected
    assert [check_playability(E).to_doc() for E in inputs] == expected


def _brute_transform(x, n, size, kind):
    """The transform of one row x over the assessments, cell by cell."""
    tuples = list(enumerate_assessments(n, size))
    if kind in ("zeta_up", "zeta_down"):
        sign = 1 if kind == "zeta_up" else -1
        return [
            sum(x[j] for j, g in enumerate(tuples) if all(sign * (b - a) >= 0 for a, b in zip(f, g)))
            for f in tuples
        ]
    # the Moebius function of a product of chains: (-1)^|f - g| when f - g
    # is a 0/1 vector, else 0
    return [
        sum(
            (-1) ** sum(np.subtract(f, g)) * x[j]
            for j, g in enumerate(tuples)
            if all(0 <= a - b <= 1 for a, b in zip(f, g))
        )
        for f in tuples
    ]


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("size", (1, 2, 3, 4))
@pytest.mark.parametrize("block_cap", (1, 9, tables._BLOCK_CAP))
def test_transforms_match_brute_force_sums(n, size, block_cap):
    # block caps of 1 and 9 put one coordinate, or a few, in each product
    with mock.patch.object(tables, "_BLOCK_CAP", block_cap):
        geo = tables._Geometry(n, size)
    count = geo.count
    rng = np.random.default_rng(n * 10 + size)
    x = rng.integers(-3, 4, (2, count))
    kinds = ("zeta_up", "zeta_down", "mobius_down")
    # (kinds, assessments, rows) -> (kinds, rows, assessments)
    cells = np.broadcast_to(x.T, (3, count, 2)).astype(np.float64)
    out = tables._transform(cells, geo, kinds)
    assert out.shape == (3, 2, count)
    for w, kind in enumerate(kinds):
        for r in range(2):
            assert out[w, r].tolist() == _brute_transform(x[r].tolist(), n, size, kind)
    # the Moebius transform inverts the downward sum, also in wrapping uint64
    for dtype in (np.float64, np.uint64):
        down = tables._transform(x.T.astype(dtype)[None], geo, ("zeta_down",))
        back = tables._transform(down.transpose(0, 2, 1), geo, ("mobius_down",))
        assert (back[0] == x.astype(dtype)).all()


def test_budget_refuses_before_enumerating_pairs():
    # 20 players, one outcome: 2^20 rows of two cells, but 3^20 coalition
    # pairs, about 3.5e9, which _pair_stack would build in Python
    rows = np.zeros((1 << 20, 2), dtype=np.int8)
    rows[:, 1] = 1
    E = EffFn(BOOL, 20, ["s0"], rows)
    with mock.patch.object(tables, "_pair_stack", side_effect=AssertionError):
        with pytest.raises(BudgetExceeded, match="superadditivity count"):
            check_property(E, "superadditive")


def test_dense_battery_on_eight_outcomes():
    # 3^8 = 6561 assessments
    E = effectivity_table(random_game_form(random.Random(3), 2, 8), Chain(2))
    count = len(E.table[0])
    fstar = count - 2
    rows = [list(row) for row in E.table]
    rows[0][fstar] += 1  # breaks homogeneity, so the dense battery runs
    bad = EffFn(E.chain, E.k, E.outcomes, rows)
    report = check_playability(bad)
    assert not report.properties["homogeneous"]
    # every other row of the pair (empty, N) is that of a game-form table,
    # which is superadditive: the first violation lies in row fstar
    assessments = tables._geometry(2, 8).tuples
    full = rows[3]
    gi = next(
        gi
        for gi in range(count)
        if min(rows[0][fstar], full[gi])
        > full[encode_assessment(np.minimum(assessments[fstar], assessments[gi]), 2)]
    )
    assert report.witnesses["superadditive"] == (0, 3, fstar, gi)


def _nine_outcome_table():
    """A non-homogeneous k = 2, n = 2 table on 9 outcomes: its dense
    superadditivity scan would be 9 pairs x 3^18 cells."""
    E = effectivity_table(random_game_form(random.Random(3), 2, 9), Chain(2))
    rows = E.rows().copy()
    rows[0, -1] = 1  # a middle value at the top assessment
    return EffFn(E.chain, E.k, E.outcomes, rows)


def _over_budget_table():
    """k = 2, n = 700, one outcome, with a middle value at the top: not
    homogeneous, and its count is over the budget, (2 x 4 x 701 + 9) x 700
    x 701 cells, as each transform multiplies 701 x 701 chain matrices."""
    rows = np.zeros((4, 701), dtype=np.int16)
    rows[:, -1] = 700
    rows[0, -1] = 1
    return EffFn(Chain(700), 2, ["s0"], rows)


def test_dense_battery_budget():
    E = _nine_outcome_table()
    assert not check_property(E, "homogeneous").holds
    count = len(E.table[0])
    assert 9 * count * count > tables._DENSE_CELL_BUDGET
    # over the budget as a dense scan, but decided by the count
    report = check_playability(E)
    assert report.properties["superadditive"] and not report.playable
    assert check_property(E, "superadditive").holds
    # and so are the pairs with a proper union, semi-playability's scope
    hits, verdict = tables._count_pairs(E.rows()[None], E.geometry())
    assert [verdict(t, q) for t, (_, q) in enumerate(hits)] == [(True, None)]
    big = _over_budget_table()
    assert (2 * 4 * 701 + 9) * 700 * 701 > tables._DENSE_CELL_BUDGET
    # refused before the pairs are built or anything is transformed
    with mock.patch.object(tables, "_pair_stack", side_effect=AssertionError), mock.patch.object(
        tables, "_transform", side_effect=AssertionError
    ):
        with pytest.raises(BudgetExceeded):
            check_playability(big)
        with pytest.raises(BudgetExceeded):
            check_property(big, "superadditive")


@st.composite
def _pair_stacks(draw):
    """A stack of 1-4 homogeneous tables of one geometry, n 2 or 3 and k 2
    or 3, game-form tables or lifted upsets, perhaps with cells changed, and
    a disjoint pair (c1, c2)."""
    n, k = draw(st.sampled_from((2, 3))), draw(st.sampled_from((2, 3)))
    size = draw(st.integers(1, 3))
    make = st.sampled_from((_game_form_table, _upset_table))
    stack = np.stack(
        [draw(draw(make)(n, k, size)).rows() for _ in range(draw(st.integers(1, 4)))]
    )
    c1 = draw(st.integers(0, (1 << k) - 1))
    c2 = draw(st.sampled_from([m for m in range(1 << k) if not m & c1]))
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.integers(0, len(stack) - 1))
        mask = draw(st.sampled_from((c1, c2, c1 | c2, draw(st.integers(0, (1 << k) - 1)))))
        stack[t, mask, draw(st.integers(0, stack.shape[2] - 1))] = draw(st.integers(0, n))
    return stack, tables._geometry(n, size), c1, c2


@settings(max_examples=150, deadline=None)
@given(_pair_stacks())
def test_superadditive_on_pair_matches_the_dense_count(case):
    rows, geo, c1, c2 = case
    three = rows[:, [c1, c2, c1 | c2]]
    pair = tuple(np.array([i]) for i in range(3))
    dense = not tables._pair_counts(three, geo, pair)[2].any()
    homogeneous = all(
        tables.commutes_with_doublings(rows, geo, (op,)) for op in (TAU_OPLUS, TAU_ODOT)
    )
    assert tables.superadditive_on_pair(three, geo) == dense
    # the tables' three rows are read on their generators exactly when
    # every table of the stack is homogeneous, with the same verdict
    k = rows.shape[1].bit_length() - 1
    states = tuple(f"s{j}" for j in range(geo.size))
    held = [EffFn(Chain(geo.n), k, states, table) for table in rows]
    gens = tables._generator_rows(held, [c1, c2, c1 | c2])
    assert (gens is not None) == homogeneous
    if gens is not None:
        assert tables.superadditive_on_generators(gens) == dense


def test_skeleton_failure_rescanned_on_its_pair_alone():
    # the Boolean game-form table on 9 outcomes with the empty coalition's
    # row replaced by the grand coalition's, lifted to n = 2: homogeneous,
    # and a full dense superadditivity scan (9 pairs x 3^18 cells) is over
    # the budget, but the count on its cells finds each failing pair's
    # first failing cell
    H = effectivity_table(random_game_form(random.Random(3), 2, 9), BOOL)
    rows = H.rows().copy()
    rows[0] = rows[-1]
    E = _lift_cells(2, 2, H.outcomes, rows)
    table = E.rows()
    count = table.shape[1]
    assert 9 * count * count > tables._DENSE_CELL_BUDGET
    report = check_playability(E)
    assert report.properties["homogeneous"]
    assert not report.properties["superadditive"] and not report.semi_playable
    digits = np.array(list(itertools.product(range(3), repeat=9)))
    powers = 3 ** np.arange(8, -1, -1)
    for c1, c2, fi, gi in (
        report.witnesses["superadditive"],
        report.witnesses["semi_playable"][1:],
    ):
        assert c1 & c2 == 0
        # the first failing cell of the pair, row-major
        for f in range(fi + 1):
            meet = np.minimum(digits[f], digits) @ powers
            bad = np.minimum(table[c1, f], table[c2]) > table[c1 | c2, meet]
            assert bad.any() == (f == fi)
        assert int(np.argmax(bad)) == gi


def test_lowered_top_cell_witness_on_eleven_outcomes():
    # the Boolean game-form table on 11 outcomes with the grand coalition's
    # top cell lowered: every pair with N fails at the top assessment
    H = effectivity_table(random_game_form(random.Random(3), 2, 11), BOOL)
    rows = H.rows().copy()
    rows[-1, -1] = 0
    E = EffFn(BOOL, 2, H.outcomes, rows)
    report = check_playability(E)
    assert report.witnesses["superadditive"] == (1, 2, 2047, 2047)


def _raised_table(size):
    """The k = 2, n = 2 game-form table on size outcomes with the empty
    coalition's last cell below top raised by one, which superadditivity
    with N fails."""
    E = effectivity_table(random_game_form(random.Random(3), 2, size), Chain(2))
    rows = E.rows().copy()
    rows[0, np.flatnonzero(rows[0] < 2)[-1]] += 1
    return EffFn(E.chain, E.k, E.outcomes, rows)


@pytest.mark.parametrize("size", (9, 10))
def test_raised_table_gets_the_first_witness_of_its_row(size):
    # a dense witness scan of the failing pair would be 3^18 and 3^20 cells
    E = _raised_table(size)
    table = E.rows()
    report = check_playability(E)
    assert not report.properties["superadditive"] and not report.semi_playable
    geo = E.geometry()
    for c1, c2, fi, gi in (
        report.witnesses["superadditive"],
        report.witnesses["semi_playable"][1:],
    ):
        assert c1 & c2 == 0
        meet = np.minimum(geo.tuples[fi], geo.tuples) @ geo.powers
        bad = np.minimum(table[c1, fi], table[c2]) > table[c1 | c2, meet]
        # the witness fails, and nothing before it in its row does
        assert bad[gi] and not bad[:gi].any()
    if size == 9:
        # as a dense scan of the pair reports it
        assert report.witnesses["superadditive"] == (0, 3, 19681, 2)


def test_one_count_answers_both_pair_scopes():
    # the first failing pair, (empty, N), has the grand union, so the
    # proper-union scope of semi-playability reports a later pair of the
    # same count
    E = _raised_table(9)
    with mock.patch.object(tables, "_transform", wraps=tables._transform) as transform:
        report = check_playability(E)
    assert report.witnesses["superadditive"][:2] == (0, 3)
    assert report.witnesses["semi_playable"][:3] == ("superadditive", 0, 2)
    kinds = [call.args[2] for call in transform.call_args_list]
    assert kinds.count(("zeta_up", "mobius_down")) == 1
    # one witness transform per reported pair
    assert kinds.count(("zeta_down",)) == 2


def test_lifted_table_reruns_one_count_for_both_pair_scopes():
    # the Boolean game-form table on 6 outcomes with the empty coalition's
    # row replaced by the grand coalition's, lifted to n = 2: its
    # generators fail, and the check of its cells counts its pairs once
    # for both superadditivity and semi-playability
    H = effectivity_table(random_game_form(random.Random(3), 2, 6), BOOL)
    rows = H.rows().copy()
    rows[0] = rows[-1]
    E = _lift_cells(2, 2, H.outcomes, rows)
    with mock.patch.object(tables, "_transform", wraps=tables._transform) as transform:
        report = check_playability(E)
    assert report.properties["homogeneous"]
    assert report.witnesses["superadditive"] == (0, 3, 3, 27)
    assert report.witnesses["semi_playable"] == ("superadditive", 0, 2, 3, 27)
    full = [call.args[2] for call in transform.call_args_list if call.args[1].count == 729]
    assert full.count(("zeta_up", "mobius_down")) == 1
    # one witness transform per reported pair
    assert full.count(("zeta_down",)) == 2


def test_semi_playable_on_failing_proper_rows_runs_no_count():
    # coalition {1} accepts every assessment, the bottom one too
    E = _game_table(3, n=2, outcomes=3)
    rows = E.rows().copy()
    rows[1] = 2
    E = EffFn(E.chain, E.k, E.outcomes, rows)
    with mock.patch.object(tables, "_transform", side_effect=AssertionError):
        check = check_property(E, "semi_playable")
    assert not check.holds and check.witness == ("safety", 1, 0)


def test_stacked_skeleton_reruns_keep_player_counts_apart():
    # lifted tables of 2 and 3 players whose grand coalition accepts only
    # the top: both fail N-maximality on their generators, and each is
    # checked on its own cells
    stack = []
    for k in (2, 3):
        H = effectivity_table(random_game_form(random.Random(1), k, 2), BOOL)
        rows = H.rows().copy()
        rows[-1] = 0
        rows[-1, -1] = 1
        stack.append(_lift_cells(2, k, H.outcomes, rows))
    single = [check_playability(E).to_doc() for E in stack]
    assert not any(doc["properties"]["N_maximal"] for doc in single)
    assert [report.to_doc() for report in check_playability_many(stack)] == single


# -- tables held as their generators ----------------------------------------


@st.composite
def _lifts(draw):
    """A table, n 1 to 4: a game form's table, or the unchecked lift of
    random upsets, or of uniform random rows (held as cells when these are
    not outcome-monotone); these are rarely playable."""
    n, k, size = draw(st.integers(1, 4)), draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
    style = draw(st.sampled_from(("game form", "upset", "uniform")))
    if style == "game form":
        return draw(_game_form_table(n, k, size))
    if style == "upset":
        return draw(_upset_table(n, k, size))
    rows = st.lists(st.integers(0, 1), min_size=1 << size, max_size=1 << size)
    H = EffFn(BOOL, k, state_names(size), draw(st.lists(rows, min_size=1 << k, max_size=1 << k)))
    return _unchecked_lift(H, n)


@settings(max_examples=120, deadline=None)
@given(_lifts())
def test_lift_behaves_as_its_dense_table(E):
    # one holding rule for game-form, upset and uniform tables, their dense
    # copies and the tables read from their documents: each holds its
    # generators, the same ones, exactly when the dense battery finds it
    # homogeneous and outcome-monotone (at n > 1, homogeneous), and else
    # its cells; equality, hash, documents, pickling and the report are
    # those of the cells.  A table held as its generators holds no cells
    # until first use at n > 1
    held = E._gens is not None
    assert held or E._rows is not None
    unbuilt = E._rows is None
    assert unbuilt or not held or E.n == 1
    key = hash(E)
    assert (E._rows is None) == unbuilt  # hashing builds no cells
    dense = EffFn(E.chain, E.k, E.outcomes, E.rows())
    properties = _dense_battery_doc(dense)["properties"]
    assert held == (properties["homogeneous"] and properties["outcome_monotonic"])
    assert E.n == 1 or held == properties["homogeneous"]
    for copy in (dense, EffFn.from_doc(E.to_doc())):
        assert copy._gens == E._gens
    # the skeleton built from the generators is the one the cells have
    skeleton = tables._skeleton_cells(dense.rows(), dense.geometry())
    assert not held or tables._upset_skeleton(E._gens, E.num_outcomes).tobytes() == skeleton.tobytes()
    assert E == dense and dense == E and hash(dense) == key
    assert E.to_json() == dense.to_json()
    for table in (E, dense):
        again = pickle.loads(pickle.dumps(table))
        assert again == E and again == dense and hash(again) == key
    fresh = pickle.loads(pickle.dumps(E))
    assert (fresh._rows is None) == held  # unpickled as its generators
    assert check_playability(fresh).to_doc() == check_playability(dense).to_doc()
    assert check_playability(E).to_doc() == check_playability(dense).to_doc()
    # a dense table with one cell off the lift is another table
    rows = E.rows().copy()
    middle = len(rows[-1]) // 2
    rows[-1, middle] = (rows[-1, middle] + 1) % (E.n + 1)
    assert EffFn(E.chain, E.k, E.outcomes, rows) != pickle.loads(pickle.dumps(E))


def _dense_battery_doc(E):
    """The report of the battery run on the table's own cells, homogeneity
    included, with no skeleton."""
    found = tables._battery(E.rows()[None], E.geometry(), tables._REPORT_ORDER)
    return tables._report({name: column[0] for name, column in found.items()}).to_doc()


@settings(max_examples=80, deadline=None)
@given(_boolean_inputs(), st.integers(2, 4))
def test_unplayable_lift_reports_dense_witnesses(H, n):
    # a lift whose generators fail is checked on its cells: each witness
    # is the first failing dense cell.  The lift of a table that is
    # not outcome-monotone is not homogeneous.
    E = _unchecked_lift(H, n)
    monotone = check_property(H, "outcome_monotonic").holds
    assert check_property(E, "homogeneous").holds == monotone
    assert check_playability(E).to_doc() == _dense_battery_doc(E) == _dense_report(E)


@st.composite
def _generator_tables(draw, n=None, k=None, size=None):
    """(table, its game form or None): a game form's table, held as its
    minimal accepted sets, n 1 to 3, k 2 or 3, on 1 to 4 outcomes (n, k
    and size when given); or those sets with one dropped, added, shrunk or
    grown; or with two incomparable sets in the empty coalition's row,
    which is then not principal."""
    n = draw(st.integers(1, 3)) if n is None else n
    k = draw(st.sampled_from((2, 3))) if k is None else k
    styles = ("game form", "perturbed") + ("two in row 0",) * (size != 1)
    style = draw(st.sampled_from(styles))
    if size is None:
        size = draw(st.integers(2 if style == "two in row 0" else 1, 4))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(k))
    omap = draw(st.lists(st.integers(0, size - 1), min_size=math.prod(shape), max_size=math.prod(shape)))
    form = GameForm(shape, state_names(size), tuple(omap))
    E = effectivity_table(form, Chain(n))
    if style == "game form":
        return E, form
    rows = [list(row) for row in E._gens]
    some = st.integers(0, (1 << size) - 1)
    if style == "perturbed":
        row = rows[draw(st.integers(0, (1 << k) - 1))]
        change = draw(st.sampled_from(("drop", "add", "shrink", "grow")))
        if change == "add" or not row:
            row.append(draw(some))
        else:
            i = draw(st.integers(0, len(row) - 1))
            if change == "drop":
                row.pop(i)
            elif change == "shrink":
                row[i] &= draw(some)
            else:
                row[i] |= draw(some)
    else:
        i, j = draw(st.permutations(range(size)))[:2]
        rows[0] = [1 << i | draw(some) & ~(1 << j), 1 << j | draw(some) & ~(1 << i)]
    return tables._generated(E.chain, k, E.outcomes, rows), None


@settings(max_examples=200, deadline=None)
@given(_generator_tables())
def test_generator_held_tables_report_as_the_dense_battery(drawn):
    # a table held as its generators is decided on them when every
    # predicate holds there, and otherwise on its cells: either way its
    # report is that of its cells held densely
    E, form = drawn
    report = check_playability(E).to_doc()
    dense = EffFn(E.chain, E.k, E.outcomes, E.rows())
    assert report == check_playability(dense).to_doc()
    assert tables._generators_hold(E._gens) == report["truly_playable"]
    assert form is None or report["truly_playable"]
    if form is not None and E.num_outcomes <= 3:
        # the skeleton is the max-min rule's, cell by cell, an outcome set's
        # index having outcome j at bit S - 1 - j
        size = E.num_outcomes
        skeleton = tables._upset_skeleton(E._gens, size)
        for mask in range(1 << E.k):
            for x in range(1 << size):
                target = [j for j in range(size) if x >> (size - 1 - j) & 1]
                expected = boolean_effectivity(form, Coalition(mask, E.k), target)
                assert skeleton[mask, x] == expected


@st.composite
def _generator_stacks(draw):
    """1 to 3 tables of one geometry from _generator_tables."""
    first, _ = draw(_generator_tables())
    geometry = first.n, first.k, first.num_outcomes
    return [first] + [draw(_generator_tables(*geometry))[0] for _ in range(draw(st.integers(0, 2)))]


@settings(max_examples=150, deadline=None)
@given(_generator_stacks(), st.data())
def test_generator_values_are_the_cells(stack, data):
    # every [C] row read on generators, game-form, perturbed and
    # non-principal ones, is a gather of the cells and value_num's value,
    # on one assessment and on a grid of valuations, and builds no cells;
    # so are the rows with no generator and with the empty one
    n, k, size = stack[0].n, stack[0].k, stack[0].num_outcomes
    stack = stack + [tables._generated(Chain(n), k, stack[0].outcomes, [(), (0,)] * (1 << k - 1))]
    dtype = tables._value_dtype(n)
    f = np.array(data.draw(st.lists(st.integers(0, n), min_size=size, max_size=size)), dtype=dtype)
    # one or two propositions on their lead axes, joined or met when two
    props = (1, 2) if (n + 1) ** (2 * size) <= 1 << 16 and data.draw(st.booleans()) else (1,)
    grid = _valuation_grid(n, size, props, 1 << 16)
    lattice = data.draw(st.sampled_from((np.maximum, np.minimum)))
    g = grid[1] if len(props) == 1 else lattice(grid[1], grid[2])
    reads = [(tables._row_values(stack, mask, f), tables._row_values(stack, mask, g)) for mask in range(1 << k)]
    assert all(E._rows is None for E in stack)
    for mask, (single, many) in enumerate(reads):
        cells = np.stack([E.rows()[mask] for E in stack])
        assert single.dtype == many.dtype == dtype
        assert single.tolist() == cells[:, encode_assessment(f.tolist(), n)].tolist()
        assert single.tolist() == [E.value_num(mask, f.tolist()) for E in stack]
        assert many.shape == (len(stack),) + g.shape[1:]
        assert np.array_equal(many, cells.take(tables.encode_assessments(g, n), axis=1))


def test_n_maximality_is_decided_on_generators():
    # every row generated by both outcomes together is live, safe, principal
    # and superadditive, and N-maximal only once the grand coalition has
    # each outcome on its own
    for grand, holds in (((0b11,), False), ((0b01, 0b10), True)):
        E = tables._generated(Chain(2), 2, state_names(2), [(0b11,)] * 3 + [grand])
        report = check_playability(E).to_doc()
        assert report == check_playability(EffFn(E.chain, 2, E.outcomes, E.rows())).to_doc()
        assert report["properties"]["N_maximal"] == holds == report["truly_playable"]
        assert all(report["properties"][name] for name in PROPERTY_NAMES if name != "N_maximal")


def _forced_sets(form, mask):
    """Per joint strategy of the coalition, the outcome set the others can
    still reach against it, outcome j at bit S - 1 - j, by a loop over the
    profiles."""
    size, sets = len(form.outcomes), {}
    for profile in form.profiles():
        joint = tuple(s for i, s in enumerate(profile) if mask >> i & 1)
        sets[joint] = sets.get(joint, 0) | 1 << (size - 1 - form.outcome_of(profile))
    return sets.values()


@pytest.mark.parametrize("size", (64, 65))
def test_sixty_four_outcomes_decided_on_generators(monkeypatch, size):
    # a 4-player form on 64 outcomes, and on 65, past a uint64 word: 2^64
    # outcome sets and more, yet its table is built and found truly
    # playable on its minimal accepted sets alone, the minimal sets its
    # joint strategies force
    form = random_game_form(random.Random(3), 4, size)

    def refuse(*args):
        raise AssertionError("a skeleton was built")

    monkeypatch.setattr(tables, "_upset_skeleton", refuse)
    E = effectivity_table(form, Chain(2))
    report = check_playability(E)
    assert report.truly_playable and report.witnesses == {}
    # compared, hashed, pickled, reduced to its Boolean table and lifted
    # back, printed and read on its generators too
    again = effectivity_table(form, Chain(2))
    assert E == again and hash(E) == hash(again)
    assert pickle.loads(pickle.dumps(E)) == E
    H = boolean_skeleton(E)
    assert H.chain == BOOL and H._gens == E._gens
    assert lift_boolean(H, E.chain) == E
    assert repr(E) == f"<EffFn chain=Chain(2) k=4 outcomes={form.outcomes!r} generators={E._gens!r}>"
    rng = random.Random(size)
    for _ in range(20):
        mask, f = rng.randrange(16), tuple(rng.randint(0, 2) for _ in range(size))
        assert E.value_num(mask, f) == mv_effectivity(form, Chain(2), Coalition(mask, 4), f).num
    forced = [sorted(set(_forced_sets(form, mask))) for mask in range(16)]
    assert E._gens == tuple(
        tuple(g for g in sets if not any(h != g and h & ~g == 0 for h in sets)) for sets in forced
    )


def test_equal_tables_however_held():
    H = effectivity_table(random_game_form(random.Random(5), 3, 3), BOOL)
    E = lift_boolean(H, Chain(3))
    dense = EffFn(E.chain, E.k, E.outcomes, E.rows())
    held = {E: "lift"}
    assert held[dense] == "lift" and dense in held
    assert boolean_skeleton(dense) == H == boolean_skeleton(E)
    # a table with the same skeleton that is not its lift is not
    # homogeneous, so it holds its cells and equals no table held as
    # generators
    rows = E.rows().copy()
    rows[0, 1] = 1 - rows[0, 1] if rows[0, 1] < 2 else 1
    other = EffFn(E.chain, E.k, E.outcomes, rows)
    skeleton = tables._upset_skeleton(E._gens, E.num_outcomes)
    assert tables._skeleton_cells(rows, E.geometry()).tobytes() == skeleton.tobytes()
    assert other._gens is None and other != E and E != other


def test_equality_with_a_held_table_over_the_budget():
    # a 12-outcome game-form table at n = 2 has 4 x 3^12 cells, over the
    # 2^20 budget: it equals its dense copy, in a set too, without building
    # its own cells, and a copy with one cell changed is another table
    form = random_game_form(random.Random(3), 2, 12)
    try:
        cells = effectivity_table(form, Chain(2))._cells(1 << 40)
        assert cells.size > 1 << 20
        dense = EffFn(Chain(2), 2, form.outcomes, cells)
        E = effectivity_table(form, Chain(2))
        assert E == dense and dense == E
        assert dense in {E} and E in {dense}
        rows = cells.copy()
        rows[-1, 1] = (rows[-1, 1] + 1) % 3
        assert E != EffFn(Chain(2), 2, form.outcomes, rows)
        assert E._rows is None
    finally:
        tables._geometry.cache_clear()  # the 3^12-assessment geometry is large


def test_value_num_of_a_held_table_reads_its_skeleton(monkeypatch):
    # a 16-outcome game-form table at n = 2 has 4 x 3^16 cells, over the
    # budget: each value, read on its generators, is max{i : H(C, [f >=
    # i])}, H decided by the max-min rule, and no cell or skeleton is built
    def refuse(*args):
        raise AssertionError("a skeleton was built")

    monkeypatch.setattr(tables, "_upset_skeleton", refuse)
    rng = random.Random(7)
    form = random_game_form(rng, 2, 16)
    E = effectivity_table(form, Chain(2))
    for _ in range(40):
        mask = rng.randrange(4)
        f = tuple(rng.randint(0, 2) for _ in range(16))
        accepted = [
            i
            for i in (1, 2)
            if boolean_effectivity(form, Coalition(mask, 2), (j for j, v in enumerate(f) if v >= i))
        ]
        assert E.value_num(mask, f) == max(accepted, default=0)
    assert E.value_num(3, (2,) * 16) == 2 and E.value_num(0, (0,) * 16) == 0
    assert E._rows is None


def test_effectivity_function_refuses_repeated_outcomes():
    with pytest.raises(InvalidInput, match="outcomes declares 's0' twice"):
        EffFn(Chain(1), 2, ("s0", "s0"), np.zeros((4, 4), dtype=int))


def test_twenty_outcome_boolean_table_prints_its_generators():
    # 4 x 2^20 cells, over the budget: a game form's Boolean table prints
    # as its generators
    E = effectivity_table(random_game_form(random.Random(3), 2, 20), BOOL)
    assert repr(E) == f"<EffFn chain=Chain(1) k=2 outcomes={E.outcomes!r} generators={E._gens!r}>"
    assert E._rows is None


@pytest.mark.parametrize("n", (2, 9))
def test_sixteen_outcomes_checked_on_the_skeleton(n):
    # a 2-player form on 16 outcomes: (n+1)^16 assessments, far over the
    # cell budget, yet its table and report take a few MB
    form = random_game_form(random.Random(3), 2, 16)
    tracemalloc.start()
    try:
        E = effectivity_table(form, Chain(n))
        report = check_playability(E)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.truly_playable and report.witnesses == {}
    assert E._rows is None and peak < (n + 1) ** 16
    with pytest.raises(BudgetExceeded, match="lifted table cells exceed budget 1048576"):
        E.rows()
    assert repr(E) == f"<EffFn chain={E.chain!r} k=2 outcomes={E.outcomes!r} generators={E._gens!r}>"
    assert E._rows is None


def test_value_num_refuses_what_is_not_a_cell():
    # value_num reads through _row_values on either holding form, after the
    # checks mv_effectivity makes: a mask outside the players or an
    # assessment off the outcomes or the chain raises InvalidInput instead
    # of reading another cell
    E = effectivity_table(random_game_form(random.Random(1), 2, 3), Chain(2))
    rows = E.rows().copy()
    rows[0, 1] = 1  # a middle value below the assessment 0: not homogeneous
    dense = EffFn(E.chain, E.k, E.outcomes, rows)
    assert E._gens is not None and dense._gens is None
    bad = (
        (3, (2, 2), "assessment length does not match the outcome set"),
        (3, (2, 2, 2, 2), "assessment length does not match the outcome set"),
        (3, (5, 5, 5), "assessment entry outside the chain"),
        (0, (-1, 0, 0), "assessment entry outside the chain"),
        (0, (1.0, 0, 0), "assessment entry outside the chain"),
        (7, (0, 0, 0), "mask 7 does not fit 2 players"),
        (-1, (0, 0, 0), "mask -1 does not fit 2 players"),
    )
    for table in (E, dense):
        for mask, f, message in bad:
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
                table.value_num(mask, f)
        for mask in range(4):
            for fi, f in enumerate(enumerate_assessments(2, 3)):
                assert table.value_num(mask, f) == table.rows()[mask, fi]


def test_failing_generator_table_reports_the_dense_witness(monkeypatch):
    # a 7-outcome game-form table whose empty row's generator grows by one
    # outcome fails N-maximality alone: its generators fail, so it is
    # decided on its 3^7 cells, every transform of the superadditivity
    # count runs there, and it reports the witness its dense copy reports
    E = effectivity_table(random_game_form(random.Random(0), 2, 7), Chain(2))
    (z,) = E._gens[0]
    grown = tables._generated(E.chain, E.k, E.outcomes, ((z | 1,), *E._gens[1:]))
    dense = EffFn(E.chain, E.k, E.outcomes, grown.rows())
    transform, counts = tables._transform, []

    def counting(cells, geo, kinds):
        counts.append(geo.count)
        return transform(cells, geo, kinds)

    monkeypatch.setattr(tables, "_transform", counting)
    report = check_playability(grown)
    assert counts and set(counts) == {3**7}
    monkeypatch.undo()
    assert [name for name in PROPERTY_NAMES if not report.properties[name]] == ["N_maximal"]
    assert report.to_doc() == check_playability(dense).to_doc()


def test_failing_generator_table_refuses_cells_over_the_budget(monkeypatch):
    # a failing 2-player generator-held table on 19 outcomes: its cells,
    # 4 x 3^19, are over the budget, and the check refuses before building
    # them
    E = effectivity_table(random_game_form(random.Random(3), 2, 19), Chain(2))
    failing = tables._generated(E.chain, E.k, E.outcomes, (*E._gens[:-1], E._gens[-1][1:]))
    assert not tables._generators_hold(failing._gens)
    with pytest.raises(BudgetExceeded, match="^4649045868 lifted table cells exceed budget 1048576$"):
        check_playability(failing)
    assert failing._rows is None
    # a table given as its Boolean cells holds its generators beside them,
    # and its check reads those cells at any size: under a 256-cell budget,
    # the 4 x 2^7 cells of a failing table are refused when built from its
    # generators and read when held
    E = effectivity_table(random_game_form(random.Random(3), 2, 7), BOOL)
    gens = (*E._gens[:-1], E._gens[-1][1:])
    held = EffFn(BOOL, E.k, E.outcomes, tables._upset_skeleton(gens, E.num_outcomes))
    report = check_playability(tables._generated(BOOL, E.k, E.outcomes, gens)).to_doc()
    assert not report["properties"]["N_maximal"]
    monkeypatch.setattr(tables, "DEFAULT_CELL_BUDGET", 1 << 8)
    failing = tables._generated(BOOL, E.k, E.outcomes, gens)
    assert held._gens == failing._gens and failing._rows is None
    with pytest.raises(BudgetExceeded, match="^512 lifted table cells exceed budget 256$"):
        check_playability(failing)
    assert check_playability(held).to_doc() == report


def test_failing_generator_table_over_the_budget_raises_in_input_order():
    # a 2-player game-form table on 16 outcomes at n = 2 with one generator
    # dropped from row N fails on its generators, and its 4 x 3^16 cells
    # are over the budget: its verdict on every predicate is that refusal,
    # liveness too, which its generators would pass.  Beside a failing
    # table given as its cells, each table's verdicts or error come in
    # input order, and the first table's error raises first
    E = effectivity_table(random_game_form(random.Random(3), 2, 16), Chain(2))
    failing = tables._generated(E.chain, E.k, E.outcomes, (*E._gens[:-1], E._gens[-1][1:]))
    assert not tables._generators_hold(failing._gens)
    over = "^172186884 lifted table cells exceed budget 1048576$"
    with pytest.raises(BudgetExceeded, match=over):
        check_property(failing, "liveness")
    rows = _game_table(3, n=2, outcomes=3).rows().copy()
    rows[1] = 2  # coalition {1} accepts the bottom assessment: unsafe
    dense = EffFn(Chain(2), 2, state_names(3), rows)
    report = check_playability(dense)
    assert not report.properties["safety"]
    first, second = tables._decide([dense, failing], tables._REPORT_ORDER)
    assert tables._report(first) == report
    assert {type(verdict) for verdict in second.values()} == {BudgetExceeded}
    with pytest.raises(BudgetExceeded, match=over):
        check_playability_many([dense, failing])
    # an over-budget superadditivity count is the first table's error, and
    # raises before the second table's refusal
    with mock.patch.object(tables, "_DENSE_CELL_BUDGET", 1):
        with pytest.raises(BudgetExceeded, match="^superadditivity count of"):
            check_playability_many([dense, failing])
    assert failing._rows is None
