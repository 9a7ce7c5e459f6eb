import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mveff

from mveff.chain import Chain
from mveff.corpus import random_enriched_model, random_formula, random_playable_model
from mveff.decide import (
    LOGIC_PN,
    LOGIC_TPN,
    _Round,
    _Signatures,
    _closure_generators,
    search_countermodel,
    soundness_suite,
)
from mveff.errors import BudgetExceeded, DialectViolation
from mveff.formulas import Implies, Neg, Top, parse
from mveff.models import EnrichedLnModel, LnModel, eval_vector, is_standard, pn_axioms
from mveff.tables import BOOL_CHAIN, EffFn, check_playability, encode_assessment, lift_boolean


def test_trivial_theorem():
    verdict = search_countermodel(parse("1", 2), max_states=2)
    assert verdict.status == "TheoremByFiltrationBound"
    assert verdict.bound == 2  # (n+1) ** 1 subformula at n=1


def test_axiom_instances_are_theorems():
    for text in (
        "([{1}](p1 (.) p1)) <-> ([{1}]p1 (.) [{1}]p1)",
        "([{1}](p1 (+) p1)) <-> ([{1}]p1 (+) [{1}]p1)",
        "~[{1}]0",
        "([{1}]p1 & [{2}]p2) -> [N](p1 & p2)",
        "[{1}]p1 & [{}]p2 -> [{1}](p1 & p2)",
        "[{}]p1 & [{2}]p2 -> [{2}](p1 & p2)",
        "[{}]p1 & [{}]p2 -> [{}](p1 & p2)",
        "[{}]p1 -> ~[N]~p1",
    ):
        phi = parse(text, 2)
        verdict = search_countermodel(phi, max_states=10 ** 9, chain=Chain(1))
        assert verdict.status == "TheoremByFiltrationBound", text
    # ax4 with the empty coalition, at n=2
    for text in (
        "[{1}]p1 & [{}]p2 -> [{1}](p1 & p2)",
        "[{}]p1 & [{2}]p2 -> [{2}](p1 & p2)",
        "[{}]p1 & [{}]p2 -> [{}](p1 & p2)",
    ):
        phi = parse(text, 2, chain=Chain(2))
        verdict = search_countermodel(phi, max_states=10 ** 9, chain=Chain(2))
        assert verdict.status == "TheoremByFiltrationBound", text


def test_three_player_axiom_instances_are_theorems():
    # with 3 players a proper coalition has two-part splits, so the closure
    # meets rows of smaller coalitions
    for n in (1, 2):
        chain = Chain(n)
        instances = pn_axioms(3, chain)
        assert len(instances) == 52
        for name, phi in instances:
            verdict = search_countermodel(phi, max_states=10 ** 9, chain=chain, players=3)
            assert verdict.status == "TheoremByFiltrationBound", (n, name)


def test_three_player_countermodel_is_verified():
    # two coalitions' abilities say nothing about a third player's
    for n in (1, 2):
        chain = Chain(n)
        phi = parse("[{1}]p1 & [{2}]p2 -> [{3}](p1 & p2)", 3, chain=chain)
        verdict = search_countermodel(phi, chain=chain, players=3)
        assert verdict.status == "CountermodelFound"
        M = verdict.model
        assert (M.num_states, M.k) == (2, 3)
        assert all(check_playability(E).truly_playable for E in M.eff)
        assert eval_vector(M, phi)[M.state_index(verdict.state)] < n


def test_bound_matters_for_certification():
    phi = parse("~[{1}]0", 2)
    verdict = search_countermodel(phi, max_states=1, chain=Chain(1))
    assert verdict.status == "NoCountermodelUpToBound"
    assert verdict.bound == 1


def test_countermodel_for_non_theorem():
    phi = parse("[{}]p1 -> p1", 2)
    verdict = search_countermodel(phi, max_states=2, chain=Chain(1))
    assert verdict.status == "CountermodelFound"
    assert len(verdict.model.states) <= 2
    # double-entry: re-verify from scratch
    values = eval_vector(verdict.model, phi)
    idx = verdict.model.states.index(verdict.state)
    assert values[idx] < 1
    for E in verdict.model.eff:
        assert check_playability(E).truly_playable


def test_tpn_countermodel_is_standard():
    phi = parse("[O]p1 -> p1", 2, dialect="L+")
    verdict = search_countermodel(phi, logic=LOGIC_TPN, max_states=4, chain=Chain(1))
    assert verdict.status == "CountermodelFound"
    assert isinstance(verdict.model, EnrichedLnModel)
    assert is_standard(verdict.model)


def test_tpn_axioms_are_theorems():
    for text in ("[O]1", "[O]p1 <-> [{}]p1", "[{}](p1 -> p2) -> ([{}]p1 -> [{}]p2)"):
        phi = parse(text, 2, dialect="L+")
        verdict = search_countermodel(
            phi, logic=LOGIC_TPN, max_states=10 ** 9, chain=Chain(1)
        )
        assert verdict.status == "TheoremByFiltrationBound", text
    # ax8 at n=3: 1024 signatures
    phi = parse("[{}](p1 -> p2) -> ([{}]p1 -> [{}]p2)", 2, chain=Chain(3), dialect="L+")
    verdict = search_countermodel(phi, logic=LOGIC_TPN, max_states=10 ** 9, chain=Chain(3))
    assert (verdict.status, verdict.bound) == ("TheoremByFiltrationBound", 65536)


def test_outcome_modality_rejected_in_pn():
    with pytest.raises(DialectViolation):
        search_countermodel(parse("[O]p1", 2, dialect="L+"), logic=LOGIC_PN)


def test_exhaustive_agrees_with_random_model_sampling():
    # differential oracle at n=1 and n=2: random playable models never
    # refute a certified theorem, and certified countermodels exist when
    # sampling finds one
    for n in (1, 2):
        chain = Chain(n)
        rng = random.Random(12)
        for _ in range(25):
            phi = random_formula(rng, 3, (1, 2), 2, chain)
            verdict = search_countermodel(phi, max_states=10 ** 9, chain=chain)
            sampler = random.Random(99)
            sampled = False
            for _ in range(150):
                M = random_playable_model(sampler, chain, sampler.randint(1, 3))
                if any(v < n for v in eval_vector(M, phi)):
                    sampled = True
                    break
            if sampled:
                assert verdict.status == "CountermodelFound"
            if verdict.status == "TheoremByFiltrationBound":
                assert not sampled


def test_randomized_strategy_reproducible():
    phi = parse("[{}]p1 -> p1", 2)
    v1 = search_countermodel(phi, strategy="randomized", max_states=3, seed=5)
    v2 = search_countermodel(phi, strategy="randomized", max_states=3, seed=5)
    assert v1.to_json() == v2.to_json()


def test_verdict_document():
    phi = parse("[{}]p1 -> p1", 2)
    verdict = search_countermodel(phi, max_states=2, chain=Chain(1))
    doc = verdict.to_doc()
    assert doc["kind"] == "decision-verdict"
    assert doc["status"] == "CountermodelFound"
    assert doc["model"]["kind"] == "model"


def test_soundness_suite_reports():
    rng = random.Random(13)
    chain = Chain(2)
    models = [random_playable_model(rng, chain, 2) for _ in range(10)]
    report = soundness_suite(LOGIC_PN, models, chain)
    assert report["failures"] == []
    assert set(report["rules"].values()) == {"pass"}
    emodels = [random_enriched_model(rng, chain, 2) for _ in range(10)]
    report2 = soundness_suite(LOGIC_TPN, emodels, chain)
    assert report2["failures"] == []
    assert report2["rules"]["necessitation"] == "pass"


def test_ax4_with_the_empty_coalition_has_no_countermodel():
    # proper coalitions' generators must meet the empty coalition's Z, or
    # the search assembles tables that are not truly playable
    phi = parse("[{1}]p1 & [{}]p2 -> [{1}](p1 & p2)", 2, chain=Chain(1))
    verdict = search_countermodel(phi, chain=Chain(1))
    assert verdict.status == "NoCountermodelUpToBound"


_UNPLAYABLE_COUNTERMODEL = """
from mveff.chain import Chain
from mveff.decide import LOGIC_PN, _verify_countermodel
from mveff.errors import VerificationFailed
from mveff.formulas import parse
from mveff.models import LnModel
from mveff.tables import EffFn

# every coalition accepts the empty set: safety fails
E = EffFn(Chain(1), 2, ("s0",), [[1, 1]] * 4)
model = LnModel(Chain(1), ("s0",), (E,), {1: (0,)})
try:
    _verify_countermodel(model, parse("p1", 2), 0, None, LOGIC_PN)
except VerificationFailed:
    print("verification failed")
else:
    print("accepted")
"""


def test_countermodel_verification_survives_optimize():
    # a countermodel whose table is not truly playable must be rejected by
    # the re-check under -O too
    src = os.path.dirname(os.path.dirname(os.path.abspath(mveff.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNPLAYABLE_COUNTERMODEL],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "verification failed"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.booleans())
def test_signatures_follow_the_connectives(seed, n, outcome):
    chain = Chain(n)
    phi = random_formula(random.Random(seed), 3, (1, 2), 2, chain, allow_outcome=outcome)
    signatures = _Signatures(phi, chain, 2)
    free = [signatures.index[f] for f in signatures.free]
    assume((n + 1) ** len(free) <= 4096)
    sigs = signatures.all()
    assert [tuple(sig[i] for i in free) for sig in sigs] == list(
        itertools.product(range(n + 1), repeat=len(free))
    )
    assert len(set(sigs)) == len(sigs)
    index = signatures.index
    for sig in sigs:
        for pos, f in enumerate(signatures.subs):
            if isinstance(f, Top):
                assert sig[pos] == n
            elif isinstance(f, Neg):
                assert sig[pos] == n - sig[index[f.sub]]
            elif isinstance(f, Implies):
                a, b = sig[index[f.left]], sig[index[f.right]]
                assert sig[pos] == min(n, n - a + b)


def test_signature_budget():
    # 2^21 signatures at n=1 exceed the valuation budget before enumeration
    phi = parse(" -> ".join(f"p{i}" for i in range(1, 22)), 2)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        search_countermodel(phi, chain=Chain(1))
    assert time.perf_counter() - start < 5


def test_three_proposition_query_is_decided():
    # 2187 signatures at n = 2, whose first round has 27 atoms: realizability
    # is one closure per projection, not a walk over unions of atoms
    phi = parse("[{1}]p1 & [{2}]p2 & [{}]p3 -> [N](p1 & p2 & p3)", 2, chain=Chain(2))
    start = time.perf_counter()
    verdict = search_countermodel(phi, chain=Chain(2))
    assert time.perf_counter() - start < 10
    assert (verdict.status, verdict.bound) == ("NoCountermodelUpToBound", 8)
    stats = verdict.stats
    assert (stats["signatures"], stats["survivors"], stats["elimination_rounds"]) == (2187, 1944, 2)


def test_unsearched_bound_is_not_reported():
    # 32 refuting survivors, but C(2048, 2) two-state subsets exceed the
    # subset cap: the search raises instead of claiming bound 8
    chain = Chain(1)
    phi = parse(
        "[{1}]p1 & [{2}]p2 & [{1}]p3 & [{2}]p4 & [{1}]p5 -> [N](p1 & p2 & p3 & p4 & p5)",
        2,
        chain=chain,
    )
    with pytest.raises(BudgetExceeded):
        search_countermodel(phi, chain=chain, max_states=8)
    # a 2-state countermodel exists: the 4-proposition one with p5 := p1
    four = parse("[{1}]p1 & [{2}]p2 & [{1}]p3 & [{2}]p4 -> [N](p1 & p2 & p3 & p4)", 2, chain=chain)
    found = search_countermodel(four, chain=chain)
    assert found.status == "CountermodelFound"
    M = found.model
    valuation = dict(M.valuation)
    valuation[5] = valuation[1]
    model = LnModel(chain, M.states, M.eff, valuation)
    assert model.num_states == 2
    assert all(check_playability(E).truly_playable for E in model.eff)
    assert min(eval_vector(model, phi)) < chain.n

def _table_by_cells(z, gens, k, size, chain):
    """A witness's table built one cell at a time over sets of states, as
    the reference for the array rows of _Round.state_table."""

    def states(s):
        return frozenset(j for j in range(size) if s >> (size - 1 - j) & 1)

    Z = states(z)
    rows = []
    for mask in range(1 << k):
        row = []
        for bits in itertools.product((0, 1), repeat=size):
            X = frozenset(j for j, b in enumerate(bits) if b)
            if mask == 0:
                row.append(Z <= X)
            elif mask == (1 << k) - 1:
                row.append(bool(Z & X))
            else:
                row.append(any(states(g) <= X for g in gens[mask]))
        rows.append(row)
    H = EffFn(BOOL_CHAIN, k, tuple(f"s{j}" for j in range(size)), rows)
    return lift_boolean(H, chain, check_input=False)


def test_every_survivor_witness_realizes_its_signature():
    # each survivor of the greatest fixpoint carries a witness: its Z must
    # give every [O] node its value and, on sets of at most 8 states, its
    # table must be truly playable and give every [C] node its value
    checked = 0
    for seed in range(60):
        n, outcome = 1 + seed % 2, seed % 4 >= 2
        chain = Chain(n)
        phi = random_formula(random.Random(seed), 3, (1, 2), 2, chain, allow_outcome=outcome)
        signatures = _Signatures(phi, chain, 2)
        if (n + 1) ** len(signatures.free) > 729:
            continue
        survivors = signatures.all()
        while True:
            round_ = _Round(signatures, survivors)
            kept = tuple(sig for sig in survivors if round_.realizable(sig) is not None)
            if len(kept) == len(survivors):
                break
            survivors = kept
        index = signatures.index
        size = len(survivors)
        for sig in survivors:
            z, gens = round_.realizable(sig)
            for b in signatures.oboxes:
                arg = [t[index[b.sub]] for t in survivors]
                in_z = [x for j, x in enumerate(arg) if z >> (size - 1 - j) & 1]
                assert min(in_z) == sig[index[b]], (phi, b)
            if size > 8:
                continue
            E = round_.state_table((z, gens))
            assert E == _table_by_cells(z, gens, 2, size, chain)
            assert check_playability(E).truly_playable
            for b in signatures.boxes:
                cell = encode_assessment([t[index[b.sub]] for t in survivors], n)
                assert E.rows()[b.coalition.mask, cell] == sig[index[b]], (phi, b)
            checked += 1
    assert checked >= 100


def _closure_by_fixpoint(k, accepted, z):
    """The proper coalitions' rows closed by rerunning every disjoint pair of
    rows, the empty coalition's {Z} included, until nothing changes: the
    reference for the one-pass _closure_generators."""
    full_mask = (1 << k) - 1
    gens = {mask: set(sets) for mask, sets in accepted.items()}
    gens[0] = {z}
    changed = True
    while changed:
        changed = False
        for m1 in gens:
            for m2 in gens:
                if m1 >= m2 or m1 & m2 or (m1 | m2) == full_mask:
                    continue
                target = gens[m1 | m2]
                for g1 in list(gens[m1]):
                    for g2 in list(gens[m2]):
                        g = g1 & g2
                        if g not in target:
                            target.add(g)
                            changed = True
    del gens[0]
    return {
        mask: [g for g in sets if not any(h != g and h & g == h for h in sets)]
        for mask, sets in gens.items()
    }


def test_one_pass_closure_equals_the_fixpoint():
    rng = random.Random(5)
    for _ in range(1500):
        k, size = rng.choice((2, 3, 4)), rng.randint(1, 8)
        everything = (1 << size) - 1
        accepted = {
            mask: [rng.randint(0, everything) for _ in range(rng.randint(0, 3))]
            for mask in range(1, (1 << k) - 1)
        }
        z = rng.randint(1, everything)
        one_pass = _closure_generators(k, accepted, z)
        fixpoint = _closure_by_fixpoint(k, accepted, z)
        assert one_pass.keys() == fixpoint.keys()
        for mask in fixpoint:
            assert sorted(one_pass[mask]) == sorted(fixpoint[mask]), (k, accepted, z)


def _realizable_by_search(signatures, T, sig):
    """Whether some non-empty Z over T, with the proper rows closed from the
    prescribed accepted sets, gives a truly playable table with every [C]
    and [O] value of sig: the reference for _Round's one-candidate test."""
    chain, k, size = signatures.chain, signatures.players, len(T)
    index = signatures.index
    everything = (1 << size) - 1
    members = [[j for j in range(size) if z >> (size - 1 - j) & 1] for z in range(everything + 1)]

    def cut(f, i):
        return sum(1 << (size - 1 - j) for j, t in enumerate(T) if t[index[f]] >= i)

    accepted = {mask: [everything] for mask in range(1, (1 << k) - 1)}
    for b in signatures.boxes:
        if b.coalition.mask in accepted:
            accepted[b.coalition.mask] += [cut(b.sub, i) for i in range(1, sig[index[b]] + 1)]
    for z in range(1, everything + 1):
        if any(
            min(T[j][index[b.sub]] for j in members[z]) != sig[index[b]]
            for b in signatures.oboxes
        ):
            continue
        E = _table_by_cells(z, _closure_by_fixpoint(k, accepted, z), k, size, chain)
        if all(
            E.rows()[b.coalition.mask, encode_assessment([t[index[b.sub]] for t in T], chain.n)]
            == sig[index[b]]
            for b in signatures.boxes
        ) and check_playability(E).truly_playable:
            return True
    return False


def test_decide_agrees_with_a_search_over_every_z():
    # over random sets T of a few signatures, a modal projection (of any
    # signature, in T or not) is realizable exactly when some Z passes, not
    # only the largest one; with 3 players the closure meets two-part splits
    rng = random.Random(3)
    for players, max_size in ((2, 8), (3, 5)):
        decided = realizable = 0
        for seed in range(60):
            n, outcome = 1 + seed % 2, seed % 4 >= 2
            chain = Chain(n)
            phi = random_formula(
                random.Random(seed), 3, (1, 2), players, chain, allow_outcome=outcome
            )
            signatures = _Signatures(phi, chain, players)
            sigs = signatures.all()
            if len(sigs) > 729 or not signatures.boxes + signatures.oboxes:
                continue
            T = tuple(rng.sample(sigs, min(len(sigs), rng.randint(1, max_size))))
            round_ = _Round(signatures, T)
            projections = {}
            for sig in sigs:
                projections.setdefault(tuple(sig[i] for i in round_.modal_pos), sig)
            for sig in rng.sample(list(projections.values()), min(len(projections), 8)):
                found = round_.realizable(sig) is not None
                assert found == _realizable_by_search(signatures, T, sig), (phi, T, sig)
                decided += 1
                realizable += found
        assert decided >= 50 and 0 < realizable < decided, players
