import itertools
import json
import random
from unittest import mock

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
    BudgetExceeded,
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
    check_playability_many,
    check_property,
    encode_assessment,
    enumerate_assessments,
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
    ok, small, large = (_game_table(0, n=1, outcomes=size) for size in (2, 3, 4))
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
    # of 1-300 cells cuts the pairs (27, 19 with a proper union) into runs
    # of one pair or more.
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
    proper = tables._check_superadditive(E.rows()[None], E.geometry(), proper_unions_only=True)
    assert proper == [(True, None)]
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


def test_skeleton_failure_rescanned_on_its_pair_alone():
    # the Boolean game-form table on 9 outcomes with the empty coalition's
    # row replaced by the grand coalition's, lifted to n = 2: homogeneous,
    # and a full dense superadditivity scan (9 pairs x 3^18 cells) is over
    # the budget, but the table fails exactly the pairs its skeleton fails
    H = effectivity_table(random_game_form(random.Random(3), 2, 9), BOOL)
    rows = H.rows().copy()
    rows[0] = rows[-1]
    E = lift_boolean(EffFn(BOOL, 2, H.outcomes, rows), Chain(2), check_input=False)
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
