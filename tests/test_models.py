import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mveff.formulas import Box, BoxO, Implies, Neg, Prop, Top, parse
from mveff.models import (
    EnrichedLnModel,
    LnModel,
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
from mveff.tables import EffFn


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
    return model, phi, support


@settings(max_examples=80, deadline=None)
@given(_model_formula_support())
def test_evaluator_matches_recursive_reference(case):
    model, phi, support = case
    val = dict(model.valuation)
    assert eval_vector(model, phi) == _reference_vector(model, phi, val)
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


def test_bad_model_documents():
    doc = random_playable_model(random.Random(7), Chain(2), 3).to_doc()
    with pytest.raises(BadDocument):
        LnModel.from_doc({**doc, "E": {}})
    with pytest.raises(BadDocument):
        LnModel.from_doc({key: value for key, value in doc.items() if key != "val"})


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
