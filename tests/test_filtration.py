import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mveff
from mveff import filtration, tables
from mveff.chain import Chain, tau_odot_num, tau_oplus_num
from mveff.corpus import (
    random_enriched_model,
    random_formula,
    random_playable_model,
)
from mveff.errors import BudgetExceeded, NotPlayable, NotStandard, VerificationFailed
from mveff.filtration import (
    definable_class_vectors,
    enriched_filtration,
    intermediate_filtration,
    playable_filtration,
    quotient,
)
from mveff.formulas import Box, BoxO, Implies, Neg, Prop, Top, iff, oplus, parse, subformulas
from mveff.models import (
    EnrichedLnModel,
    LnModel,
    b_family,
    check_axiom_schema,
    eval_vector,
    is_standard,
    pn_axioms,
    standardize,
    tpn_axioms,
)
from mveff.games import DEFAULT_CELL_BUDGET
from mveff.tables import (
    PLAYABLE_PARTS,
    EffFn,
    boolean_skeleton,
    check_playability,
    encode_assessment,
    lift_boolean,
)


def test_quotient_single_class_for_top():
    rng = random.Random(0)
    M = random_playable_model(rng, Chain(2), 3)
    q = quotient(M, parse("1", 2))
    assert q.num_classes == 1
    assert q.class_map == (0, 0, 0)


def test_quotient_groups_by_vector():
    # 3-state model, Val(p1) = (0, 1, 1) at n=2: two classes
    rng = random.Random(1)
    M = random_playable_model(rng, Chain(2), 3)
    M = M.with_valuation({1: (0, 1, 1)})
    q = quotient(M, parse("p1", 2))
    assert q.num_classes == 2
    assert q.class_map == (0, 1, 1)


def test_quotient_bound():
    rng = random.Random(2)
    chain = Chain(2)
    for _ in range(10):
        M = random_playable_model(rng, chain, 4)
        mu = random_formula(rng, 3, (1, 2), 2, chain)
        q = quotient(M, mu)
        assert q.num_classes <= (chain.n + 1) ** len(subformulas(mu))


def test_intermediate_grand_row_is_dual():
    rng = random.Random(3)
    chain = Chain(2)
    M = random_playable_model(rng, chain, 3)
    mu = parse("[{1}]p1", 2)
    result = intermediate_filtration(M, mu)
    for E in result.model.eff:
        geo = E.geometry()
        for fi in range(geo.count):
            neg_fi = int(geo.neg_idx[fi])
            assert E.table[3][fi] == chain.n - E.table[0][neg_fi]


def _closure(q, classes=None):
    """Definable class vectors as a fixpoint: the seed vectors closed under
    pointwise negation, implication and both doubling maps, first-seen order.
    Given classes, the vectors read at those classes alone: the operations
    act pointwise, so this is the projection of the whole closure.
    """
    n = q.source.n
    if classes is None:
        classes = range(q.num_classes)
    rep = [q.representatives[c] for c in classes]
    seeds = [tuple(vec[j] for j in rep) for _, vec in q.subformula_vectors]
    seen = dict.fromkeys(seeds)
    frontier = list(seen)
    while frontier:
        new = []
        current = list(seen)
        for a in frontier:
            candidates = [
                tuple(n - x for x in a),
                tuple(tau_oplus_num(x, n) for x in a),
                tuple(tau_odot_num(x, n) for x in a),
            ]
            for b in current:
                candidates.append(tuple(min(n, n - x + y) for x, y in zip(a, b)))
                candidates.append(tuple(min(n, n - x + y) for x, y in zip(b, a)))
            for c in candidates:
                if c not in seen:
                    seen[c] = None
                    new.append(c)
        frontier = new
    return tuple(seen)


def _expand(steps, n):
    """Every vector that is a multiple of each class's step at that class."""
    return set(itertools.product(*(range(0, n + 1, step) for step in steps)))


def test_intermediate_matches_direct_eq9():
    # independent oracle: recompute each proper cell by scanning the
    # fixpoint closure directly; the last two cases have steps above 1
    mu = parse("[{1}]p1 -> p2", 2)
    for n, seed in ((2, 4), (2, 8), (4, 4)):
        M = random_playable_model(random.Random(seed), Chain(n), 3)
        result = intermediate_filtration(M, mu)
        q = result.quotient
        gamma = _closure(q)
        for c, E in enumerate(result.model.eff):
            rep = q.representatives[c]
            for mask in (0, 1, 2):
                for fi, f in enumerate(
                    itertools.product(range(n + 1), repeat=q.num_classes)
                ):
                    best = 0
                    for g in gamma:
                        if all(x <= y for x, y in zip(g, f)):
                            pull = tuple(g[q.class_map[j]] for j in range(M.num_states))
                            best = max(best, M.eff[rep].value_num(mask, pull))
                    assert E.table[mask][fi] == best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 4))
def test_definable_blocks_match_closure(seed, n, size):
    # the per-class steps expand to exactly the fixpoint closure, and the
    # enriched relation keeps exactly the pairs whose target the closure's
    # vectors force to 1 wherever they are 1 at every successor
    rng = random.Random(seed)
    M = random_enriched_model(rng, Chain(n), size)
    q = quotient(M, random_formula(rng, 3, (1, 2), 2, Chain(n), allow_outcome=True))
    gamma = _closure(q)
    steps = definable_class_vectors(q)
    assert len(steps) == q.num_classes
    assert _expand(steps, n) == set(gamma)

    per_g = {
        (cu, cv)
        for cu, rep in enumerate(q.representatives)
        for cv in range(q.num_classes)
        if all(
            g[cv] == n
            for g in gamma
            if all(g[q.class_map[v]] == n for v in M.successors(rep))
        )
    }
    by_class = {
        (cu, q.class_map[v])
        for cu, rep in enumerate(q.representatives)
        for v in M.successors(rep)
    }
    assert by_class == per_g
    assert enriched_filtration(M, q.generator).model.R == per_g


def test_each_distinct_table_is_checked_once(monkeypatch):
    # at n = 1 a skeleton is its table and so is its lift; at n = 2 a lift
    # holds its skeleton's generators, checked beside it
    mu = parse("[{1}]p1 -> p2", 2)
    liveness = tables._CHECKS["liveness"]
    decide = tables._decide
    generators_hold = tables._generators_hold
    for n in (2, 1):
        chain = Chain(n)
        base = random_playable_model(random.Random(8), chain, 4)
        # two pairs of equal tables
        M = LnModel(chain, base.states, base.eff[:2] * 2, dict(base.valuation))
        expect = playable_filtration(M, mu)
        inter = intermediate_filtration(M, mu).model.eff
        built = {boolean_skeleton(E) for E in inter}
        calls, stacks, decided = [], [], []

        def counting_decide(stack, names):
            calls.append((tuple(stack), tuple(names)))
            return decide(stack, names)

        def counting_liveness(rows, geo):
            stacks.append(len(rows))
            return liveness(rows, geo)

        def counting_generators_hold(gens):
            decided.append(gens)
            return generators_hold(gens)

        monkeypatch.setattr(tables, "_decide", counting_decide)
        monkeypatch.setitem(tables._CHECKS, "liveness", counting_liveness)
        monkeypatch.setattr(tables, "_generators_hold", counting_generators_hold)
        result = playable_filtration(M, mu)
        monkeypatch.undo()
        assert result == expect
        # one stacked check of the source tables, one of skeletons and lifts,
        # each asking only for the verdicts it reads
        assert len(calls) == 2
        assert set(calls[0][0]) == set(M.eff)
        assert calls[0][1] == PLAYABLE_PARTS
        assert calls[1][1] == (*PLAYABLE_PARTS, "principal")
        # every table built still gets a verdict
        assert built | set(result.model.eff) <= set(calls[1][0])
        # every table is held as its generators and decided on them, each
        # distinct generator tuple once per check: the source tables', then
        # those the built skeletons share with their lifts; no battery runs
        sources = {E._gens for E in M.eff}
        assert sorted(decided[: len(sources)]) == sorted(sources)
        assert sorted(decided[len(sources) :]) == sorted({H._gens for H in built})
        assert stacks == []


def test_each_distinct_skeleton_is_built_and_lifted_once(monkeypatch):
    rng = random.Random(8)
    chain = Chain(2)
    base = random_playable_model(rng, chain, 4)
    M = LnModel(chain, base.states, base.eff[:2] * 2, dict(base.valuation))
    mu = parse("[{1}]p1 -> p2", 2)
    expect = playable_filtration(M, mu)
    inter = intermediate_filtration(M, mu).model.eff
    # classes whose representatives share a source table share E*
    assert len(set(inter)) < len(inter)
    gathers, lifted = [], []

    def counting_gather(q):
        gathers.append(q)
        return class_generators(q)

    def counting_lift(lift_chain, k, outcomes, rows):
        lifted.append((lift_chain, tables._generated(Chain(1), k, outcomes, rows)))
        return tables._generated(lift_chain, k, outcomes, rows)

    class_generators = filtration._class_generators
    monkeypatch.setattr(filtration, "_class_generators", counting_gather)
    monkeypatch.setattr(filtration, "_generated", counting_lift)
    result = playable_filtration(M, mu)
    assert result == expect
    # one read of the source generators gives every class's generator
    # rows, and each distinct class skeleton is lifted once, in class order
    skeletons = [boolean_skeleton(E) for E in inter]
    names = gathers[0].class_names()
    assert len(gathers) == 1
    assert [tables._generated(Chain(1), M.k, names, rows) for rows in class_generators(gathers[0])] == skeletons
    assert lifted == [(chain, H) for H in dict.fromkeys(skeletons)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from((1, 2, 3, 4, 6)), st.integers(1, 5))
def test_intermediate_tables_have_strict_skeletons(seed, n, size):
    # E* is 0 or n on every idempotent assessment, so the strict skeleton
    # of each intermediate table exists, and it is the skeleton the
    # playable stage lifts for that class
    rng = random.Random(seed)
    chain = Chain(n)
    M = random_playable_model(rng, chain, size)
    mu = random_formula(rng, 3, (1, 2), 2, chain)
    inter = intermediate_filtration(M, mu).model.eff
    with mock.patch.object(filtration, "_generated", wraps=tables._generated) as lift:
        result = playable_filtration(M, mu)
    skeletons = [boolean_skeleton(E) for E in inter]
    # one lift to the model's chain per distinct class skeleton, from the
    # class generator rows
    calls = [call.args for call in lift.call_args_list]
    assert [args[0] for args in calls] == [chain] * len(set(skeletons))
    assert [tables._generated(Chain(1), *args[1:]) for args in calls] == list(dict.fromkeys(skeletons))
    for H, F in zip(skeletons, result.model.eff):
        assert F == lift_boolean(H, chain)


def test_sixteen_state_filtrations_build_no_cells(monkeypatch):
    # 16 states at n = 2: each table's 4 x 3^16 cells are over the budget
    # and the 3^16-assessment geometry would take GiBs, but evaluation, the
    # class skeletons and both checks read Boolean skeletons alone, and the
    # source check reads the game forms' generators; the peak, about 46 MB
    # on this model, is the Boolean geometry of 2^16 assessments that
    # evaluation reads and the lifts' check of the class skeletons
    M = random_playable_model(random.Random(1), Chain(2), 16)
    mu = parse("[{1}]p1 -> [N](p1 | p2)", 2)
    built = []

    class Recording(tables._Geometry):
        def __init__(self, n, size):
            built.append((n, size))
            super().__init__(n, size)

    monkeypatch.setattr(tables, "_Geometry", Recording)
    tables._geometry.cache_clear()
    tracemalloc.start()
    try:
        values = eval_vector(M, mu)
        results = playable_filtration(M, mu), enriched_filtration(standardize(M), mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        tables._geometry.cache_clear()
    assert (2, 16) not in built
    assert peak < 288 << 20
    assert all(E._rows is None for E in M.eff)
    for result in results:
        q = result.quotient
        assert all(E._rows is None for E in result.model.eff)
        assert eval_vector(result.model, mu) == tuple(values[q.representatives[c]] for c in range(q.num_classes))


def test_intermediate_filtration_checks_the_budget_before_the_class_geometry(monkeypatch):
    # 16 states at n = 2 fall into 13 classes: the source tables' 4 x 3^16
    # cells are over the budget, and the 3^13-assessment class geometry
    # would take hundreds of MB, so the budget refuses before it is built
    M = random_playable_model(random.Random(1), Chain(2), 16)
    mu = parse("[{1}]p1 -> [N](p1 | p2)", 2)
    assert quotient(M, mu).num_classes == 13
    geometry = filtration._geometry

    def refuse(n, size):
        if (n + 1) ** size << M.k > DEFAULT_CELL_BUDGET:
            raise AssertionError(f"the geometry of {size} classes is built")
        return geometry(n, size)

    monkeypatch.setattr(filtration, "_geometry", refuse)
    with pytest.raises(BudgetExceeded, match="^172186884 lifted table cells exceed budget 1048576$"):
        intermediate_filtration(M, mu)


def test_sixty_four_state_model_is_read_on_generators(monkeypatch):
    # 64 states at n = 2: a skeleton row has 2^64 cells and the assessment
    # geometry cannot be built, but evaluation, both filtrations and every
    # Pn, B and TPn correspondence read the game forms' generators, each
    # in well under a second
    M = random_playable_model(random.Random(1), Chain(2), 64)
    mu = parse("[{1}]p1 -> [N](p1 | p2)", 2)
    refuse = mock.Mock(side_effect=AssertionError("a skeleton or a geometry is built"))
    for module, name in ((tables, "_geometry"), (filtration, "_geometry"), (tables, "_upset_skeleton")):
        monkeypatch.setattr(module, name, refuse)

    def timed(call):
        start = time.perf_counter()
        out = call()
        assert time.perf_counter() - start < 1
        return out

    S = timed(lambda: standardize(M))
    values = timed(lambda: eval_vector(M, mu))
    results = timed(lambda: playable_filtration(M, mu)), timed(lambda: enriched_filtration(S, mu))
    for model, instances in ((M, pn_axioms(2, M.chain) + b_family(2, M.chain)), (S, tpn_axioms(2, M.chain))):
        for name, phi in instances:
            assert timed(lambda: check_axiom_schema(model, phi)) == (True, None), name
    for result in results:
        q = result.quotient
        assert eval_vector(result.model, mu) == tuple(values[q.representatives[c]] for c in range(q.num_classes))
    assert not refuse.called
    assert all(E._rows is None for E in M.eff)


def test_six_class_filtration_at_n4():
    # 6 classes at n = 4, steps 2,1,1,1,1,1: 3 * 5^5 definable vectors
    chain = Chain(4)
    M = random_playable_model(random.Random(0), chain, 6)
    mu = parse("[{1}]p1 -> p2", 2)
    result = playable_filtration(M, mu)
    q = result.quotient
    assert q.num_classes == 6
    steps = definable_class_vectors(q)
    assert steps == (2, 1, 1, 1, 1, 1)
    # the whole closure has 3 * 5^5 vectors; its projections on each pair
    # of classes check every step and every pair's independence
    for pair in itertools.combinations(range(6), 2):
        assert set(_closure(q, pair)) == _expand([steps[c] for c in pair], 4)
    for E in result.model.eff:
        assert check_playability(E).truly_playable
    for phi in subformulas(mu):
        src = eval_vector(M, phi)
        dst = eval_vector(result.model, phi)
        assert all(dst[q.class_map[j]] == src[j] for j in range(M.num_states))


_BROKEN_LIFT = """
import random

from mveff import filtration
from mveff.chain import Chain
from mveff.corpus import random_playable_model
from mveff.formulas import parse
from mveff.tables import EffFn, _generated


def broken_lift(chain, k, outcomes, rows):
    # the lift of class generator rows to the model's chain with the grand
    # coalition's value at the all-1/2 assessment lowered: not homogeneous;
    # its skeleton, on the idempotent assessments, stays the class skeleton
    cells = _generated(chain, k, outcomes, rows).rows().copy()
    cells[-1, cells.shape[1] // 2] -= 1
    return EffFn(chain, k, outcomes, cells)


filtration._generated = broken_lift
M = random_playable_model(random.Random(5), Chain(2), 4)
filtration.playable_filtration(M, parse("[{1}]p1 -> p2", 2))
"""


def test_broken_lift_is_refused(monkeypatch):
    # the script replaces filtration._generated; monkeypatch puts it back
    monkeypatch.setattr(filtration, "_generated", tables._generated)
    with pytest.raises(VerificationFailed, match="lifted table is not truly playable"):
        exec(_BROKEN_LIFT, {})


def test_broken_lift_is_refused_under_optimize():
    # the stacked check of the lifts is no bare assert: -O keeps it
    src = os.path.dirname(os.path.dirname(os.path.abspath(mveff.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_LIFT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert "VerificationFailed: lifted table is not truly playable" in proc.stderr


def test_filtration_requires_playable():
    chain = Chain(1)
    table = [[0, 1, 1, 1]] * 4
    E = EffFn(chain, 2, ("s0", "s1"), table)
    M = LnModel(chain, ("s0", "s1"), (E, E), {1: (0, 1)})
    with pytest.raises(NotPlayable):
        playable_filtration(M, parse("p1", 2))


def test_playable_filtration_truth_transfer():
    rng = random.Random(5)
    for n in (1, 2):
        chain = Chain(n)
        for _ in range(10):
            M = random_playable_model(rng, chain, rng.randint(2, 4))
            mu = random_formula(rng, 3, (1, 2), 2, chain)
            result = playable_filtration(M, mu)
            q = result.quotient
            assert result.stage == "playable"
            for phi in subformulas(mu):
                src = eval_vector(M, phi)
                dst = eval_vector(result.model, phi)
                for j in range(M.num_states):
                    assert dst[q.class_map[j]] == src[j]
            for E in result.model.eff:
                assert check_playability(E).truly_playable


def test_each_filtration_checks_truth_transfer_once(monkeypatch):
    # the enriched filtration checks every subformula on the model it
    # returns, which covers the playable stage's [O]-free check
    rng = random.Random(9)
    chain = Chain(2)
    M = random_enriched_model(rng, chain, 3)
    mu = parse("[O](p1 & p2) -> [{1}]~p1", 2, dialect="L+", chain=chain)
    checked = []
    real = filtration._verify_truth_transfer

    def counting(q, model):
        checked.append(model)
        real(q, model)

    monkeypatch.setattr(filtration, "_verify_truth_transfer", counting)
    for filtrate in (playable_filtration, enriched_filtration):
        checked.clear()
        result = filtrate(M, mu)
        assert checked == [result.model]
    assert isinstance(checked[0], EnrichedLnModel)


def test_boxed_cells_agree_exactly():
    # Boxed subformulas of the generator name cells where the filtered
    # table must reproduce the source values on the nose
    rng = random.Random(6)
    chain = Chain(2)
    M = random_playable_model(rng, chain, 4)
    mu = parse("[{2}](p1 (+) p2)", 2)
    result = playable_filtration(M, mu)
    q = result.quotient
    arg = eval_vector(M, parse("p1 (+) p2", 2))
    class_arg = tuple(arg[q.representatives[c]] for c in range(q.num_classes))
    fidx = encode_assessment(class_arg, chain.n)
    src = eval_vector(M, mu)
    for j in range(M.num_states):
        assert result.model.eff[q.class_map[j]].table[2][fidx] == src[j]


def test_enriched_requires_standard():
    rng = random.Random(7)
    M = random_playable_model(rng, Chain(1), 2)
    with pytest.raises(NotStandard):
        enriched_filtration(M, parse("p1", 2))


def test_enriched_filtration_standard_and_transfers():
    rng = random.Random(8)
    for n in (1, 2):
        chain = Chain(n)
        for _ in range(8):
            M = random_enriched_model(rng, chain, rng.randint(2, 4))
            mu = random_formula(rng, 3, (1, 2), 2, chain, allow_outcome=True)
            result = enriched_filtration(M, mu)
            assert result.stage == "enriched"
            assert is_standard(result.model)
            q = result.quotient
            for phi in subformulas(mu):
                src = eval_vector(M, phi)
                dst = eval_vector(result.model, phi)
                for j in range(M.num_states):
                    assert dst[q.class_map[j]] == src[j]
            # representative sources keep their outgoing relation
            for u, v in M.R:
                if u in q.representatives:
                    assert (q.class_map[u], q.class_map[v]) in result.model.R


def test_outcome_modality_commutes_with_doubling():
    # [O] is a min over successors and doubling is monotone, so the
    # homogeneity premise of the enriched truth transfer holds on every
    # enriched model, with any relation R, standard or not
    rng = random.Random(21)
    p = Prop(1)
    premise = iff(oplus(BoxO(p), BoxO(p)), BoxO(oplus(p, p)))
    standard = 0
    for _ in range(300):
        base = random_playable_model(rng, Chain(rng.randint(1, 5)), rng.randint(1, 4))
        R = [(u, v) for u in base.states for v in base.states if rng.random() < 0.4]
        M = EnrichedLnModel(base.chain, base.states, base.eff, base.valuation, R)
        standard += is_standard(M)
        assert check_axiom_schema(M, premise) == (True, None)
    assert 0 < standard < 300


def test_class_map_document():
    rng = random.Random(9)
    M = random_playable_model(rng, Chain(1), 3)
    q = quotient(M, parse("p1", 2))
    doc = q.to_doc()
    assert doc["kind"] == "class-map"
    assert sum(len(v) for v in doc["classes"].values()) == 3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 4), st.booleans())
def test_quotient_vectors_match_eval_vector(seed, n, size, enriched):
    # one evaluator pass over all subformulas gives what a pass per
    # subformula gives, and every node obeys its semantic rule
    rng = random.Random(seed)
    chain = Chain(n)
    make = random_enriched_model if enriched else random_playable_model
    M = make(rng, chain, size)
    mu = random_formula(rng, 3, (1, 2), 2, chain, allow_outcome=enriched)
    vectors = dict(quotient(M, mu).subformula_vectors)
    assert list(vectors) == list(subformulas(mu))
    for phi, vec in vectors.items():
        assert vec == eval_vector(M, phi)
        for j in range(size):
            if isinstance(phi, Top):
                want = n
            elif isinstance(phi, Prop):
                want = M.prop_row(phi.index)[j]
            elif isinstance(phi, Neg):
                want = n - vectors[phi.sub][j]
            elif isinstance(phi, Implies):
                want = min(n, n - vectors[phi.left][j] + vectors[phi.right][j])
            elif isinstance(phi, Box):
                want = M.eff[j].value_num(phi.coalition.mask, vectors[phi.sub])
            else:
                want = min((vectors[phi.sub][v] for v in M.successors(j)), default=n)
            assert vec[j] == want
