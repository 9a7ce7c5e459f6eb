import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mveff.formulas
from mveff.chain import Chain
from mveff.corpus import random_formula, random_playable_model
from mveff.errors import DialectViolation, FormulaSyntaxError, UnknownPlayer
from mveff.formulas import (
    Box,
    BoxO,
    Coalition,
    Implies,
    Neg,
    Prop,
    TOP,
    Top,
    bottom,
    iff,
    meet,
    nfold_oplus,
    odot,
    oplus,
    parse,
    print_formula,
    propositions,
    subformulas,
    substitute,
    tau_formula,
    uses_outcome_modality,
)


def test_coalition_basics():
    c = Coalition.of([1, 3], 3)
    assert c.members() == (1, 3)
    assert str(c) == "{1,3}"
    assert str(Coalition.grand(3)) == "N"
    assert str(Coalition.empty(3)) == "{}"
    assert c.complement().members() == (2,)
    assert c.union(Coalition.of([2], 3)).is_grand()
    with pytest.raises(UnknownPlayer):
        Coalition.of([4], 3)


def test_parse_kernel():
    assert parse("1", 2) == TOP
    assert parse("0", 2) == bottom()
    assert parse("p7", 2) == Prop(7)
    assert parse("~p1", 2) == Neg(Prop(1))
    assert parse("p1 -> p2", 2) == Implies(Prop(1), Prop(2))
    assert parse("[{1}]p1", 2) == Box(Coalition.of([1], 2), Prop(1))
    assert parse("[N]p1", 2) == Box(Coalition.grand(2), Prop(1))
    assert parse("[{}]p1", 2) == Box(Coalition.empty(2), Prop(1))


def test_parse_desugaring():
    p, q = Prop(1), Prop(2)
    assert parse("p1 (+) p2", 2) == oplus(p, q)
    assert parse("p1 (.) p2", 2) == odot(p, q)
    assert parse("p1 & p2", 2) == meet(p, q)
    assert parse("p1 <-> p2", 2) == iff(p, q)
    assert parse("3.p1", 2) == nfold_oplus(3, p)
    c = Chain(2)
    assert parse("tau(2)p1", 2, chain=c) == tau_formula(2, c, p)


def test_parse_precedence_and_associativity():
    # (.) binds tighter than (+) tighter than & | -> <->, all right-assoc
    assert parse("p1 -> p2 -> p3", 2) == Implies(Prop(1), Implies(Prop(2), Prop(3)))
    assert parse("p1 (+) p2 (.) p3", 2) == oplus(Prop(1), odot(Prop(2), Prop(3)))
    assert parse("p1 | p2 -> p3", 2) == Implies(
        parse("p1 | p2", 2), Prop(3)
    )


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse("p1 ->", 2)
    with pytest.raises(FormulaSyntaxError):
        parse("(p1", 2)
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p1 $ p2", 2)
    assert err.value.position is not None
    with pytest.raises(UnknownPlayer):
        parse("[{3}]p1", 2)


def test_dialect_enforcement():
    with pytest.raises(DialectViolation):
        parse("[O]p1", 2)
    phi = parse("[O]p1", 2, dialect="L+")
    assert phi == BoxO(Prop(1))
    assert uses_outcome_modality(phi)
    assert not uses_outcome_modality(parse("[{1}]p1", 2))


def test_tau_formula_semantics_via_tables():
    # the desugared tau formula must compute the threshold on every input
    from mveff.chain import synthesize_tau_term

    c = Chain(4)
    for i in range(1, 5):
        term = synthesize_tau_term(c, i)
        phi = tau_formula(i, c, Prop(1))

        def value(num, node):
            if node == Prop(1):
                return num
            if isinstance(node, Neg):
                return c.n - value(num, node.sub)
            left = value(num, node.left)
            right = value(num, node.right)
            return min(c.n, c.n - left + right)

        for num in range(5):
            assert value(num, phi) == term.apply_num(num, c.n)


def test_subformulas_children_first():
    phi = parse("[{1}](p1 -> p2) -> ~p1", 2)
    subs = list(subformulas(phi))
    assert subs[-1] == phi
    for i, f in enumerate(subs):
        from mveff.formulas import children

        for child in children(f):
            assert child in subs[:i]


def test_long_join_chain_has_linear_subformulas():
    # a | b desugars to (a -> b) -> b: each operand is shared, not copied,
    # so k operands give k propositions and 2 implications per join
    k = 40
    phi = parse(" | ".join(f"p{i}" for i in range(1, k + 1)), 2)
    assert len(subformulas(phi)) == 3 * k - 2
    assert propositions(phi) == tuple(range(1, k + 1))


def test_substitute_and_props():
    phi = parse("[{1}]p1 -> p2", 2)
    assert propositions(phi) == (1, 2)
    psi = substitute(phi, Prop(2), Prop(1))
    assert propositions(psi) == (1,)
    assert psi == parse("[{1}]p1 -> p1", 2)


def test_print_round_trip():
    for text in ("[{1}](p1 -> ~p2)", "~(p1 -> p2)", "[N]p1 -> [{}]p2"):
        phi = parse(text, 2)
        assert parse(print_formula(phi), 2) == phi
    enriched = parse("[O](p1 -> p2)", 2, dialect="L+")
    assert parse(print_formula(enriched), 2, dialect="L+") == enriched
    # seeded random kernel formulas, [O] included, over 2 and 3 players
    for seed in range(60):
        rng = random.Random(seed)
        k = 2 + seed % 2
        phi = random_formula(rng, 4, (1, 2, 3), k, Chain(2), allow_outcome=seed % 3 > 0)
        assert parse(print_formula(phi), k, dialect="L+") == phi


def _kernel_formulas(k):
    """Any kernel formula of k players, [O] included."""
    coalitions = st.builds(Coalition, st.integers(0, (1 << k) - 1), st.just(k))
    leaves = st.just(TOP) | st.builds(Prop, st.integers(0, 5))
    return st.recursive(
        leaves,
        lambda sub: st.builds(Neg, sub)
        | st.builds(Implies, sub, sub)
        | st.builds(Box, coalitions, sub)
        | st.builds(BoxO, sub),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: st.tuples(st.just(k), _kernel_formulas(k))))
def test_print_round_trip_of_any_formula(case):
    # nodes are hash-consed, so the parse is the very node printed
    k, phi = case
    assert parse(print_formula(phi), k, dialect="L+") is phi


# -- hash-consing --------------------------------------------------------------


def _fresh_formulas(seed, count, props):
    rng = random.Random(seed)
    return [random_formula(rng, 6, props, 2, Chain(2), allow_outcome=True) for _ in range(count)]


def test_equal_structure_is_one_node():
    # each node kind, built twice from separately built parts
    for build in (
        lambda: Top(),
        lambda: Prop(3),
        lambda: Neg(Prop(3)),
        lambda: Implies(Prop(1), Neg(Prop(2))),
        lambda: Box(Coalition.of([1], 2), Prop(1)),
        lambda: BoxO(Implies(Prop(1), TOP)),
    ):
        assert build() is build()
    assert Coalition.of([2], 3) is not Coalition.of([2], 3)
    assert Box(Coalition.of([2], 3), TOP) is Box(Coalition(2, 3), TOP)
    assert Top() is TOP
    assert parse("[{1}]p1 & [{2}]p2 -> [N](p1 & p2)", 2) is parse(
        "[{1}]p1 & [{2}]p2 -> [N](p1 & p2)", 2
    )
    assert Prop(1) is not Prop(2) and Neg(Prop(1)) != Prop(1)
    assert repr(Implies(Prop(1), TOP)) == "Implies(left=Prop(index=1), right=Top())"


def test_pickle_and_copies_return_the_canonical_node():
    for phi in _fresh_formulas(4, 20, (1, 2, 3)) + [TOP, Box(Coalition.grand(2), Prop(1))]:
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert copy.copy(phi) is phi
        assert copy.deepcopy(phi) is phi


def test_nodes_are_immutable():
    phi = Implies(Prop(1), Prop(2))
    with pytest.raises(AttributeError):
        phi.left = Prop(3)
    with pytest.raises(AttributeError):
        del phi.right
    with pytest.raises(AttributeError):
        Prop(1).index = 2
    assert phi.left is Prop(1)


def test_intern_table_releases_dead_nodes():
    gc.collect()
    before = len(mveff.formulas._INTERNED)
    batch = _fresh_formulas(5, 300, (201, 202, 203))
    assert len(mveff.formulas._INTERNED) > before
    del batch
    gc.collect()
    assert len(mveff.formulas._INTERNED) == before


def test_threads_building_the_same_formulas_share_nodes():
    # propositions no other test builds, so every thread misses the table
    # for the same keys; a tiny switch interval makes the threads interleave
    threads, results = 8, {}
    barrier = threading.Barrier(threads)

    def build(t):
        barrier.wait()
        results[t] = _fresh_formulas(6, 300, (301, 302, 303))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and len(results) == threads
    for t in range(1, threads):
        assert all(a is b for a, b in zip(results[0], results[t]))


def test_documents_do_not_depend_on_the_hash_seed(tmp_path):
    # node hashes are addresses, so iterating a set of nodes would make
    # output vary from process to process
    model = random_playable_model(random.Random(5), Chain(2), 4, props=(1, 2))
    (tmp_path / "model.json").write_text(model.to_json())
    src = os.path.dirname(os.path.dirname(os.path.abspath(mveff.formulas.__file__)))
    path = os.environ.get("PYTHONPATH")
    commands = (
        ["filter", "model.json", "[{1}]p1 & [{2}]p2 -> [N](p1 & p2)"],
        ["decide", "[{1}]p1 | p2 -> [{2}]p1", "--n", "2"],
    )
    outputs = {}
    for seed in ("0", "123"):
        env = {
            **os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
            "PYTHONHASHSEED": seed,
        }
        runs = [
            subprocess.run(
                [sys.executable, "-m", "mveff.cli", *args],
                cwd=tmp_path, env=env, capture_output=True,
            )
            for args in commands
        ]
        outputs[seed] = [(run.returncode, run.stdout) for run in runs]
    # a filtered model, and a countermodel (exit 1)
    assert [code for code, _ in outputs["0"]] == [0, 1]
    assert outputs["0"] == outputs["123"]
