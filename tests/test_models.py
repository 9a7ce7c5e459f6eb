import copy
import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mveff import models
from mveff.chain import Chain
from mveff.corpus import random_enriched_model, random_formula, random_playable_model
from mveff.errors import (
    BadDocument,
    BudgetExceeded,
    DialectViolation,
    InvalidInput,
    UnknownProposition,
)
from mveff.filtration import quotient
from mveff.formulas import (
    Box,
    BoxO,
    Coalition,
    Implies,
    Neg,
    Prop,
    Top,
    iff,
    join,
    meet,
    odot,
    oplus,
    parse,
    subformulas,
    substitute,
)
from mveff.models import (
    EnrichedLnModel,
    LnModel,
    _ax4,
    _ax7,
    _ax8,
    _eval_nodes,
    _valuation_grid,
    _value_dtype,
    b_family,
    check_axiom_schema,
    eval_formula,
    eval_vector,
    is_standard,
    is_true,
    is_valid,
    pn_axioms,
    standard_relation,
    standardize,
    tpn_axioms,
)
from mveff.tables import EffFn, boolean_skeleton, encode_assessment, enumerate_assessments


def _single_state_model(n=2, val=1):
    # E(u)(C, f) = f(u) for every coalition: the one-state identity table
    chain = Chain(n)
    table = [[v for v in range(n + 1)] for _ in range(4)]
    E = EffFn(chain, 2, ("s0",), table)
    return LnModel(chain, ("s0",), (E,), {1: (val,)})


def test_eval_top_and_prop():
    M = _single_state_model()
    assert eval_formula(M, "s0", parse("1", 2)).num == 2
    assert eval_formula(M, "s0", parse("p1", 2)).num == 1
    assert eval_formula(M, "s0", parse("~p1", 2)).num == 1


def test_eval_box_identity_table():
    # one-state model, n=2, Val(p)=1/2: the coalition box just reads f(u)
    M = _single_state_model()
    for text in ("[{1}]p1", "[N]p1", "[{}]p1"):
        assert eval_formula(M, "s0", parse(text, 2)).num == 1


def test_eval_box_liveness_in_playable_models():
    rng = random.Random(0)
    M = random_playable_model(rng, Chain(2), 3)
    assert is_true(M, parse("[{1}]1", 2))
    assert is_true(M, parse("~[{2}]0", 2))


def test_unknown_proposition():
    M = _single_state_model()
    with pytest.raises(UnknownProposition):
        eval_vector(M, parse("p9", 2))


def test_outcome_modality_needs_enrichment():
    M = _single_state_model()
    with pytest.raises(DialectViolation):
        eval_vector(M, parse("[O]p1", 2, dialect="L+"))


def test_outcome_modality_min_and_empty_min():
    chain = Chain(2)
    rng = random.Random(1)
    base = random_playable_model(rng, chain, 3)
    M = EnrichedLnModel(
        chain, base.states, base.eff, dict(base.valuation), {(0, 1), (0, 2)}
    )
    phi = parse("[O]p1", 2, dialect="L+")
    row = M.prop_row(1)
    values = eval_vector(M, phi)
    assert values[0] == min(row[1], row[2])
    # states 1 and 2 have no successors: the empty min is top
    assert values[1] == values[2] == 2


def test_is_valid_finds_counter_valuation():
    rng = random.Random(2)
    M = random_playable_model(rng, Chain(1), 2)
    holds, witness = is_valid(M, parse("[{}]p1 -> p1", 2))
    # not an axiom; some valuation on this model may refute it, but if it
    # holds the witness must be empty
    assert holds == (witness is None)
    assert is_valid(M, parse("1", 2))[0]


def test_is_valid_budget():
    rng = random.Random(3)
    M = random_playable_model(rng, Chain(3), 4)
    with pytest.raises(BudgetExceeded):
        is_valid(M, parse("p1 -> p2", 2), budget=10)


def _reference_vector(model, phi, val):
    """Value of phi at every state, by recursion on phi, in Python ints."""
    n, size = model.n, model.num_states
    rec = lambda psi: _reference_vector(model, psi, val)
    if isinstance(phi, Top):
        return (n,) * size
    if isinstance(phi, Prop):
        return val[phi.index]
    if isinstance(phi, Neg):
        return tuple(n - x for x in rec(phi.sub))
    if isinstance(phi, Implies):
        return tuple(min(n, n - x + y) for x, y in zip(rec(phi.left), rec(phi.right)))
    if isinstance(phi, Box):
        arg = rec(phi.sub)
        return tuple(E.value_num(phi.coalition.mask, arg) for E in model.eff)
    assert isinstance(phi, BoxO)
    sub = rec(phi.sub)
    return tuple(min((sub[v] for w, v in model.R if w == u), default=n) for u in range(size))


def _reference_is_valid(model, phi, support):
    """First falsifying (valuation, state) over itertools.product order."""
    size = model.num_states
    cells = itertools.product(range(model.n + 1), repeat=len(support) * size)
    for flat in cells:
        rows = {p: flat[i * size : (i + 1) * size] for i, p in enumerate(support)}
        vec = _reference_vector(model, phi, {**dict(model.valuation), **rows})
        for u, v in enumerate(vec):
            if v < model.n:
                return False, (rows, u)
    return True, None


@st.composite
def _model_formula_support(draw):
    # every dtype boundary of the evaluator: int8 holds [-n, 2n] up to n = 63
    n = draw(st.sampled_from([1, 2, 3, 63, 64, 127, 128]))
    size = draw(st.integers(1, 3 if n <= 3 else 2))
    # at most 1024 valuations, so the reference stays quick
    max_props = min(3, int(math.log(1024, n + 1) + 1e-9) // size)
    # the support in any order (grid axis i is support[i]); a proposition
    # the formula uses but the support leaves out is read from the model
    order = draw(st.permutations((1, 2, 3)))
    support = tuple(order[: draw(st.integers(0, max_props))])
    enriched = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    chain = Chain(n)
    if enriched:
        model = random_enriched_model(rng, chain, size, props=(1, 2, 3))
    else:
        model = random_playable_model(rng, chain, size, props=(1, 2, 3))
    phi = random_formula(rng, 4, (1, 2, 3), 2, chain, allow_outcome=enriched)
    psi = random_formula(rng, 2, (1, 2, 3), 2, chain, allow_outcome=enriched)
    return model, phi, psi, support


def _lattice_heavy(phi, psi):
    """Formulas built from phi and psi with | and &, whose inner desugared
    nodes the evaluator may skip."""
    return (
        join(phi, psi),
        meet(phi, psi),
        meet(join(phi, psi), meet(psi, join(phi, Neg(psi)))),
        # the meet's inner ~phi, and its inner join, read by another node
        Implies(meet(phi, psi), Neg(phi)),
        Implies(meet(phi, psi), join(Neg(phi), Neg(psi))),
        # a join whose second b is a deep copy, which is the same node
        Implies(Implies(phi, psi), copy.deepcopy(psi)),
    )


@settings(max_examples=80, deadline=None)
@given(_model_formula_support())
def test_evaluator_matches_recursive_reference(case):
    model, phi, psi, support = case
    assert copy.deepcopy(psi) is psi
    val = dict(model.valuation)
    assert eval_vector(model, phi) == _reference_vector(model, phi, val)
    assert is_valid(model, phi, support) == _reference_is_valid(model, phi, support)
    # a node that lists one child twice
    twice = Implies(phi, phi)
    assert eval_vector(model, twice) == _reference_vector(model, twice, val)
    # join and implication roots too, witness included
    for chi in _lattice_heavy(phi, psi):
        assert eval_vector(model, chi) == _reference_vector(model, chi, val)
        assert is_valid(model, chi, support) == _reference_is_valid(model, chi, support)


def test_eval_nodes_returns_exactly_the_kept_nodes():
    rng = random.Random(8)
    chain = Chain(2)
    for _ in range(40):
        model = random_enriched_model(rng, chain, rng.randint(1, 3), props=(1, 2))
        phi = random_formula(rng, 3, (1, 2), 2, chain, allow_outcome=True)
        psi = random_formula(rng, 2, (1, 2), 2, chain, allow_outcome=True)
        val = dict(model.valuation)
        for chi in _lattice_heavy(phi, psi):
            nodes = subformulas(chi)
            every = _eval_nodes(nodes, chain.n, {}, model)
            assert list(every) == list(nodes)
            for keep in ((chi,), rng.sample(nodes, rng.randint(1, len(nodes))), ()):
                kept = _eval_nodes(nodes, chain.n, {}, model, keep=keep)
                assert set(kept) == set(keep)
                for node in keep:
                    assert np.array_equal(kept[node], every[node])
                    assert tuple(kept[node].tolist()) == _reference_vector(model, node, val)


def test_evaluator_on_nodes_that_list_one_child_twice():
    model = random_playable_model(random.Random(4), Chain(2), 3, props=(1, 2))
    val = dict(model.valuation)
    for text in ("p1 -> p1", "[{1}]p2 -> [{1}]p2", "~(p1 -> p1) -> (p2 -> p2)"):
        phi = parse(text, 2)
        assert eval_vector(model, phi) == _reference_vector(model, phi, val)
        for support in ((), (1,), (2, 1)):
            assert is_valid(model, phi, support) == _reference_is_valid(model, phi, support)


def test_valuation_grid_is_product_order():
    for n, size, props in [
        (1, 1, ()),
        (1, 1, (1,)),
        (1, 3, (1, 2)),
        (2, 2, (1, 2)),
        (3, 1, (4, 1, 2)),
        (63, 1, (1,)),
        (64, 2, (1,)),
        (128, 1, (1, 2)),
    ]:
        grid = _valuation_grid(n, size, props, 1 << 20)
        cells = len(props) * size
        expect = np.asarray(
            list(itertools.product(range(n + 1), repeat=cells)), dtype=np.int64
        ).reshape((n + 1) ** cells, cells)
        # an open grid: proposition i varies on lead axis i only
        full = (size,) + ((n + 1) ** size,) * len(props)
        for i, p in enumerate(props):
            assert grid[p].shape == tuple(
                length if axis in (0, i + 1) else 1 for axis, length in enumerate(full)
            )
        got = [np.broadcast_to(grid[p], full).reshape(size, -1).T for p in props]
        got = np.hstack(got) if props else np.empty((1, 0))
        assert np.array_equal(got, expect)
        assert all(grid[p].dtype == _value_dtype(n) for p in props)


def test_value_dtype_is_the_narrowest_that_holds_minus_n_to_2n():
    for n in (1, 63, 64, 127, 128, 16383, 16384):
        info = np.iinfo(_value_dtype(n))
        assert info.min <= -n and info.max >= 2 * n
        assert info.bits == 8 or np.iinfo(f"int{info.bits // 2}").max < 2 * n


def test_over_budget_grid_raises_before_allocating():
    # 2^21 valuations of 21 cells would take 44 MB even as int8
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            _valuation_grid(1, 1, range(21), 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_standard_relation_and_standardize():
    rng = random.Random(4)
    M = random_playable_model(rng, Chain(2), 3)
    S = standardize(M)
    assert is_standard(S)
    assert standardize(S).R == S.R
    # empty R is standard only if the computed relation is empty
    bare = EnrichedLnModel(M.chain, M.states, M.eff, dict(M.valuation), frozenset())
    assert is_standard(bare) == (standard_relation(M) == frozenset())


def test_standard_relation_reads_the_empty_coalition_at_each_negated_indicator():
    rng = random.Random(9)
    for _ in range(60):
        n, size = rng.randint(1, 3), rng.randint(1, 4)
        chain = Chain(n)
        states = tuple(f"s{j}" for j in range(size))
        # arbitrary tables, not only playable ones
        cells = lambda: [[rng.randint(0, n) for _ in range((n + 1) ** size)] for _ in range(4)]
        M = LnModel(chain, states, [EffFn(chain, 2, states, cells()) for _ in states], {})
        expect = {
            (u, v)
            for u in range(size)
            for v in range(size)
            if M.eff[u].value_num(0, tuple(0 if j == v else n for j in range(size))) == 0
        }
        got = standard_relation(M)
        assert got == expect
        assert all(type(x) is int for pair in got for x in pair)


def _relation_by_definition(M):
    n, size = M.n, M.num_states
    return {
        (u, v)
        for u in range(size)
        for v in range(size)
        if M.eff[u].value_num(0, tuple(0 if j == v else n for j in range(size))) == 0
    }


@st.composite
def _held_models(draw):
    """A standardized model of game-form tables, n 1 to 3, k 2 or 3, 1 to 3
    states: its tables are held as their Boolean skeletons."""
    n, k, size = draw(st.integers(1, 3)), draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    return standardize(random_playable_model(rng, Chain(n), size, k=k, props=()))


def _cells_by_definition(E):
    """The cells of a held table from its Boolean skeleton H by the lift's
    definition, E(C, f) = max{i : H(C, [f >= i])} (0 when H accepts no cut),
    in Python ints."""
    H = boolean_skeleton(E).table
    return [
        [
            max(
                (i for i in range(1, E.n + 1) if H[mask][encode_assessment([v >= i for v in f], 1)]),
                default=0,
            )
            for f in enumerate_assessments(E.n, E.num_outcomes)
        ]
        for mask in range(1 << E.k)
    ]


def _dense_copies(data, M):
    """M with its tables held as cells, built by the lift's definition so
    that M's own stay held, and that copy with one cell of one table
    changed."""
    eff = [EffFn(E.chain, E.k, E.outcomes, _cells_by_definition(E)) for E in M.eff]
    u = data.draw(st.integers(0, M.num_states - 1))
    rows = eff[u].rows().copy()
    mask = data.draw(st.integers(0, (1 << M.k) - 1))
    rows[mask, data.draw(st.integers(0, rows.shape[1] - 1))] = data.draw(st.integers(0, M.n))
    perturbed = eff[:u] + [EffFn(M.chain, M.k, M.states, rows)] + eff[u + 1 :]
    return [EnrichedLnModel(M.chain, M.states, tables, {}, M.R) for tables in (eff, perturbed)]


@settings(max_examples=40, deadline=None)
@given(_held_models(), st.data())
def test_standard_relation_however_the_tables_are_held(M, data):
    dense, perturbed = _dense_copies(data, M)
    assert standard_relation(M) == standard_relation(dense) == M.R
    assert standard_relation(perturbed) == _relation_by_definition(perturbed)
    assert M.n == 1 or all(E._rows is None for E in M.eff)


@settings(max_examples=40, deadline=None)
@given(_held_models(), st.data())
def test_evaluation_however_the_tables_are_held(M, data):
    # a [C] node reads a held table on its skeleton and any other table on
    # its cells: eval_vector and is_valid agree on a held model and its
    # dense copy, and a perturbed copy agrees with the recursive reference
    n, size = M.n, M.num_states
    rng = random.Random(data.draw(st.integers(0, 1 << 16)))
    phi = random_formula(rng, 3, (1, 2), M.k, M.chain, allow_outcome=True)
    val = {p: tuple(rng.randint(0, n) for _ in range(size)) for p in (1, 2)}
    # at most 1024 valuations, so the reference stays quick
    support = (1, 2) if (n + 1) ** (2 * size) <= 1024 else (1,)
    held, dense, perturbed = (model.with_valuation(val) for model in (M, *_dense_copies(data, M)))
    assert eval_vector(held, phi) == eval_vector(dense, phi)
    assert is_valid(held, phi, support) == is_valid(dense, phi, support)
    assert eval_vector(perturbed, phi) == _reference_vector(perturbed, phi, val)
    assert is_valid(perturbed, phi, support) == _reference_is_valid(perturbed, phi, support)
    assert M.n == 1 or all(E._rows is None for E in M.eff)


def test_standardize_of_a_large_model_builds_no_cells():
    # 13 states at n = 3: each table's 4 x 4^13 cells are over the budget,
    # and the 4^13-assessment geometry alone would take GiBs, but row {} is
    # read on its Boolean skeleton
    M = random_playable_model(random.Random(0), Chain(3), 13)
    tracemalloc.start()
    try:
        S = standardize(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert S.R and is_standard(S) and all(E._rows is None for E in M.eff)


def _dense_route(M, phi):
    """check_axiom_schema(M, phi), or its DialectViolation, with the
    correspondent predicate read on every table's cells, and whether the
    grid ran."""
    masks, predicate = models._correspondent(phi, M.k)
    rows = np.stack([E.rows()[masks] for E in M.eff])
    if predicate(rows, M.eff[0].geometry(), M):
        return (True, None), False
    return _verdict_or_dialect_error(is_valid, M, phi), True


@settings(max_examples=30, deadline=None)
@given(_held_models(), st.data())
def test_axiom_correspondences_read_skeletons_as_cells(M, data):
    # every Pn, B and TPn instance and both rule conclusions give the same
    # verdict, witness and grid runs on a model of held tables, on its
    # dense copy and on a perturbed copy as the predicate read on the cells
    # does; the held model is decided without its cells or the grid
    k, p1, p2 = M.k, Prop(1), Prop(2)
    C = Coalition(data.draw(st.integers(0, (1 << k) - 1)), k)
    instances = [
        phi for _, phi in pn_axioms(k, M.chain) + b_family(k, M.chain) + tpn_axioms(k, M.chain)
    ] + [Implies(Box(C, meet(p1, p2)), Box(C, p1)), Box(C, Implies(p1, p1))]
    dense, perturbed = _dense_copies(data, M)
    for phi in instances:
        expected = _dense_route(dense, phi)
        assert expected == ((True, None), False), phi
        cases = ((M, expected), (dense, expected), (perturbed, _dense_route(perturbed, phi)))
        for model, want in cases:
            with mock.patch.object(models, "is_valid", wraps=models.is_valid) as grid:
                got = _verdict_or_dialect_error(check_axiom_schema, model, phi)
            assert (got, grid.called) == want, phi
    assert M.n == 1 or all(E._rows is None for E in M.eff)


def test_pn_and_b_instances_of_a_large_model_build_no_cells():
    # 13 states at n = 2: each table's 4 x 3^13 cells are over the budget,
    # and the grid's 3^26 valuations over its own, but every instance is
    # decided on the Boolean skeletons
    M = random_playable_model(random.Random(4), Chain(2), 13)
    instances = pn_axioms(2, M.chain) + b_family(2, M.chain)
    assert len(instances) == 30
    with mock.patch.object(models, "is_valid", side_effect=AssertionError):
        for name, phi in instances:
            assert check_axiom_schema(M, phi) == (True, None), name
    assert all(E._rows is None for E in M.eff)


def test_axiom_schemata_on_playable_models():
    rng = random.Random(5)
    chain = Chain(2)
    for _ in range(5):
        M = random_playable_model(rng, chain, 2)
        for name, schema in pn_axioms(2, chain) + b_family(2, chain):
            holds, witness = check_axiom_schema(M, schema)
            assert holds, (name, witness)


def test_tpn_axioms_on_standard_models():
    rng = random.Random(6)
    chain = Chain(2)
    for _ in range(5):
        M = random_enriched_model(rng, chain, 2)
        for name, schema in tpn_axioms(2, chain):
            holds, witness = check_axiom_schema(M, schema)
            assert holds, (name, witness)


def test_axiom_five_fails_without_n_maximality():
    # single-state table with E(emptyset) too strong
    chain = Chain(1)
    table = [[0, 1], [0, 1], [0, 1], [1, 1]]
    # the grand coalition accepts everything, so [N]~p is always true and
    # the consequent of axiom (5) is falsified whenever [{}]p holds
    E = EffFn(chain, 2, ("s0",), table)
    M = LnModel(chain, ("s0",), (E,), {1: (1,)})
    ax5 = dict(pn_axioms(2, chain))["ax5"]
    holds, witness = check_axiom_schema(M, ax5)
    assert not holds and witness is not None


def _oracle_model(rng, k, n, size, perturbed):
    """Uniformly random tables, or a playable model with one cell changed."""
    chain = Chain(n)
    if not perturbed:
        states = tuple(f"s{j}" for j in range(size))
        cells = lambda: [[rng.randint(0, n) for _ in range((n + 1) ** size)] for _ in range(1 << k)]
        return LnModel(chain, states, [EffFn(chain, k, states, cells()) for _ in states], {})
    M = random_playable_model(rng, chain, size, k=k)
    eff = list(M.eff)
    u = rng.randrange(size)
    rows = eff[u].rows().copy()
    rows[rng.randrange(1 << k), rng.randrange(rows.shape[1])] = rng.randint(0, n)
    eff[u] = EffFn(chain, k, M.states, rows)
    return LnModel(chain, M.states, eff, {})


def _renamed(phi):
    return substitute(substitute(phi, Prop(1), Prop(4)), Prop(2), Prop(7))


def _oracle_enriched_model(rng, k, n, size, perturbed):
    """A standardized playable model, or one with a table cell changed or
    one pair of R toggled."""
    M = random_enriched_model(rng, Chain(n), size, k, props=())
    if not perturbed:
        return M
    eff, R = list(M.eff), set(M.R)
    if rng.random() < 0.5:
        u = rng.randrange(size)
        rows = eff[u].rows().copy()
        mask = rng.choice((0, rng.randrange(1 << k)))
        rows[mask, rng.randrange(rows.shape[1])] = rng.randint(0, n)
        eff[u] = EffFn(M.chain, k, M.states, rows)
    else:
        R ^= {(rng.randrange(size), rng.randrange(size))}
    return EnrichedLnModel(M.chain, M.states, eff, {}, R)


def _rows_are_minima(M, C):
    """Whether each state's row C is f -> the min of f over the v at which
    that row is 0 on not chi_v, from the definition: the condition the K
    instance for [C] is decided by."""
    n, size = M.n, M.num_states
    for E in M.eff:
        hits = [
            v
            for v in range(size)
            if E.value_num(C.mask, tuple(0 if w == v else n for w in range(size))) == 0
        ]
        for f in enumerate_assessments(n, size):
            if E.value_num(C.mask, f) != min((f[v] for v in hits), default=n):
                return False
    return True


def _verdict_or_dialect_error(check, M, phi):
    try:
        return check(M, phi)
    except DialectViolation:
        return DialectViolation


def test_axiom_correspondence_agrees_with_the_grid():
    # every Pn, B and TPn instance and modal rule conclusion, renamed or
    # not, is decided by its table predicate where valid and by the grid
    # where not; the K instance (ax8) runs the grid exactly where its row
    # condition fails; near misses, which no predicate decides, always run
    # the grid; [O] on a model that is not enriched is the grid's error
    rng, tpn_rng = random.Random(20), random.Random(21)
    p1, p2 = Prop(1), Prop(2)
    invalid = tpn_grid_runs = tpn_decided = 0
    for k, n, size in itertools.product((2, 3), (1, 2, 3), (1, 2, 3)):
        M = _oracle_model(rng, k, n, size, perturbed=(k + n + size) % 2)
        named = [phi for _, phi in pn_axioms(k, M.chain) + b_family(k, M.chain)]
        C = Coalition(rng.randrange(1 << k), k)
        C1, C2 = Coalition.of([1], k), Coalition.of([2], k)
        ax4 = _ax4(C1, C2, p1, p2)
        ax1 = (Box(C, odot(p1, p1)), odot(Box(C, p1), Box(C, p1)))
        near = [
            substitute(ax4, p2, p1),
            _ax4(C1, Coalition.grand(k), p1, p2),  # overlapping
            Implies(ax4.left, Box(C1.union(C2), join(p1, p2))),
            Neg(Box(C, p1)),  # ax3 over p1
            Implies(Box(Coalition.of([1], k), p1), Neg(Box(Coalition.grand(k), Neg(p1)))),
            odot(Implies(*ax1), Implies(*ax1)),  # one direction of ax1, twice
            iff(Box(C, odot(p1, p1)), odot(Box(C, p2), Box(C, p2))),
            iff(Box(C, odot(Neg(p1), Neg(p1))), odot(Box(C, Neg(p1)), Box(C, Neg(p1)))),
            # a doubling of two different operands, on either side
            iff(Box(C, oplus(p1, p2)), oplus(Box(C, p1), Box(C, p1))),
            iff(Box(C, odot(p1, p1)), odot(Box(C, p1), Box(C, p2))),
        ]
        for phi in named + [_renamed(phi) for phi in named] + near:
            expected = is_valid(M, phi)
            with mock.patch.object(models, "is_valid", wraps=models.is_valid) as grid:
                assert check_axiom_schema(M, phi) == expected, phi
            if phi in near:
                assert grid.called, phi
            else:
                assert grid.called == (expected != (True, None)), phi
                invalid += grid.called

        empty, grand = Coalition.empty(k), Coalition.grand(k)
        named = [phi for _, phi in tpn_axioms(k, M.chain)] + [
            Implies(Box(C, meet(p1, p2)), Box(C, p1)),  # monotonicity
            Box(C, Implies(p1, p1)),  # necessitation
            _ax7(C, p1),
            _ax8(C, p1, p2),
        ]
        named += [_renamed(phi) for phi in named]
        # the K instances, each with the coalition whose rows decide it
        k_rows = {
            phi: D for D in (empty, C) for phi in (_ax8(D, p1, p2), _renamed(_ax8(D, p1, p2)))
        }
        near = [
            Implies(Box(C, meet(p1, p1)), Box(C, p1)),
            Implies(Box(C, meet(p1, p2)), Box(C, p2)),
            Box(C, Implies(p1, p2)),
            Box(C, Implies(p1, Neg(Neg(p1)))),
            BoxO(Neg(Neg(Top()))),
            iff(BoxO(p1), Box(empty, p2)),
            iff(Box(empty, p1), BoxO(p1)),
            Implies(Box(empty, Implies(p1, p2)), Implies(Box(grand, p1), Box(grand, p2))),
        ]
        tpn_models = [
            _oracle_model(tpn_rng, k, n, size, perturbed=(k + n + size) % 2),
            _oracle_enriched_model(tpn_rng, k, n, size, perturbed=False),
            _oracle_enriched_model(tpn_rng, k, n, size, perturbed=True),
        ]
        for M in tpn_models:
            for phi in named + near:
                expected = _verdict_or_dialect_error(is_valid, M, phi)
                with mock.patch.object(models, "is_valid", wraps=models.is_valid) as grid:
                    assert _verdict_or_dialect_error(check_axiom_schema, M, phi) == expected, phi
                if phi in near or expected is DialectViolation:
                    assert grid.called, phi
                elif phi in k_rows:
                    assert grid.called != _rows_are_minima(M, k_rows[phi]), phi
                else:
                    assert grid.called == (expected != (True, None)), phi
                tpn_grid_runs += grid.called and phi not in near
                tpn_decided += not grid.called
    assert invalid > 500
    assert tpn_grid_runs > 100 and tpn_decided > 300


@pytest.mark.parametrize("size", [7, 8])
def test_superadditivity_instance_past_the_grid_budget(size):
    # 3^(2 size) valuations exceed the grid's 2^20: the one-pair count
    # decides a valid instance, and a failing one still reaches the grid
    M = random_playable_model(random.Random(4), Chain(2), size)
    ax4 = dict(pn_axioms(2, M.chain))["ax4[{1},{2}]"]
    with mock.patch.object(models, "is_valid", side_effect=AssertionError):
        assert check_axiom_schema(M, ax4) == (True, None)
    rows = M.eff[0].rows().copy()
    rows[3] = 0  # the grand coalition accepts only the top assessment
    rows[3, -1] = 2
    eff = (EffFn(M.chain, 2, M.states, rows),) + M.eff[1:]
    with pytest.raises(BudgetExceeded):
        check_axiom_schema(LnModel(M.chain, M.states, eff, {}), ax4)


def test_superadditivity_instance_on_a_long_chain():
    # n = 60 on 3 states: 61^6 valuations exceed the grid's budget and the
    # dense count exceeds its own, but the three rows are homogeneous, so
    # their Boolean skeletons decide the instance
    M = random_playable_model(random.Random(1), Chain(60), 3)
    ax4 = dict(pn_axioms(2, M.chain))["ax4[{1},{2}]"]
    with mock.patch.object(models, "is_valid", side_effect=AssertionError):
        assert check_axiom_schema(M, ax4) == (True, None)


def test_coalition_for_another_player_count_is_invalid_input():
    M = random_playable_model(random.Random(4), Chain(2), 3)
    # [{3}] and the 3-player [N] read rows the 2-player tables lack, and
    # [{1,2}] of 3 players is not the 2-player grand coalition
    for text in ("[{3}]p1", "[N]p1", "[{1,2}]p1"):
        with pytest.raises(InvalidInput, match="3 players"):
            eval_vector(M, parse(text, 3))
    ax4 = parse("[{1}]p1 & [{2}]p2 -> [{1,2}](p1 & p2)", 3)
    with pytest.raises(InvalidInput, match="3 players"):
        check_axiom_schema(M, ax4)


def test_model_document_round_trip():
    rng = random.Random(7)
    M = random_playable_model(rng, Chain(2), 3)
    doc = json.loads(M.to_json())
    assert doc["kind"] == "model"
    assert LnModel.from_doc(doc) == M
    S = standardize(M)
    doc2 = json.loads(S.to_json())
    assert doc2["kind"] == "enriched-model"
    restored = LnModel.from_doc(doc2)
    assert isinstance(restored, EnrichedLnModel)
    assert restored == S
    # seeded random enriched models over 2 and 3 players
    for seed in range(20):
        rng = random.Random(seed)
        k = 2 + seed % 2
        E = random_enriched_model(rng, Chain(1 + seed % 3), rng.randint(1, 3), k, (1, 2, 3))
        restored = LnModel.from_doc(json.loads(E.to_json()))
        assert isinstance(restored, EnrichedLnModel)
        assert restored == E


@st.composite
def _models(draw):
    """Any model of n 1 to 3, k 2 to 3, 1 to 3 states and up to 3
    propositions, enriched with any relation or not."""
    n, k, size = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    states = draw(st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True))
    cells = st.lists(st.integers(0, n), min_size=(n + 1) ** size, max_size=(n + 1) ** size)
    table = st.lists(cells, min_size=1 << k, max_size=1 << k)
    eff = [EffFn(Chain(n), k, states, draw(table)) for _ in states]
    row = st.lists(st.integers(0, n), min_size=size, max_size=size)
    valuation = draw(st.dictionaries(st.integers(0, 5), row, max_size=3))
    model = LnModel(Chain(n), states, eff, valuation)
    if not draw(st.booleans()):
        return model
    R = draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(states))))
    return EnrichedLnModel(Chain(n), states, eff, valuation, R)


@settings(max_examples=60, deadline=None)
@given(_models())
def test_document_round_trip_of_any_model(M):
    restored = LnModel.from_doc(json.loads(M.to_json()))
    assert type(restored) is type(M)
    assert restored == M


def test_bad_model_documents():
    doc = random_playable_model(random.Random(7), Chain(2), 3).to_doc()
    with pytest.raises(BadDocument):
        LnModel.from_doc({**doc, "E": {}})
    with pytest.raises(BadDocument):
        LnModel.from_doc({key: value for key, value in doc.items() if key != "val"})


def test_model_needs_states_of_one_player_count():
    M = random_playable_model(random.Random(7), Chain(2), 3)
    three = random_playable_model(random.Random(7), Chain(2), 3, k=3)
    with pytest.raises(InvalidInput, match="chain, states and players"):
        LnModel(M.chain, M.states, (M.eff[0], three.eff[1], M.eff[2]), dict(M.valuation))
    with pytest.raises(InvalidInput, match="at least one state"):
        LnModel(M.chain, (), (), {})
    doc = {"kind": "model", "n": 1, "states": [], "E": {}, "val": {}}
    with pytest.raises(InvalidInput, match="at least one state"):
        LnModel.from_doc(doc)


def test_wrong_typed_model_fields():
    doc = random_playable_model(random.Random(7), Chain(2), 3).to_doc()
    for bad in (
        {"val": {**doc["val"], "s0": [1]}},
        {"val": {**doc["val"], "s0": {"p1": "1"}}},
        {"states": "s0"},
        {"R": [0]},
    ):
        with pytest.raises(BadDocument):
            LnModel.from_doc({**doc, **bad})


def test_state_index_takes_only_a_name_or_an_index_in_range():
    M = random_playable_model(random.Random(7), Chain(2), 3).with_valuation({1: (0, 1, 2)})
    phi = parse("p1", 2)
    assert [eval_formula(M, u, phi).num for u in (0, 1, 2, "s0", "s2")] == [0, 1, 2, 0, 2]
    q = quotient(M, phi)
    for bad in (-1, 3, 7, True, False, 1.0, "s3", None):
        with pytest.raises(InvalidInput):
            eval_formula(M, bad, phi)
        with pytest.raises(InvalidInput):
            q.class_of(bad)
    E = random_enriched_model(random.Random(7), Chain(2), 3)
    with pytest.raises(InvalidInput):
        EnrichedLnModel(E.chain, E.states, E.eff, E.valuation, [(0, 3)])
    with pytest.raises(InvalidInput):
        EnrichedLnModel(E.chain, E.states, E.eff, E.valuation, [(-1, 0)])


def test_model_refuses_repeated_states():
    E = EffFn(Chain(1), 2, ("s0",), [[0, 1]] * 4)
    with pytest.raises(InvalidInput, match="states declares 's0' twice"):
        LnModel(Chain(1), ("s0", "s0"), (E, E), {})
