"""Bounded countermodel search and theoremhood certificates.

Validity over all playable models reduces to models whose states carry
pairwise distinct value signatures on the subformulas of the query: any
countermodel filters to one.  Signatures assign chain values to the free
coordinates (propositions and modal atoms) and derive the rest, so the
state space is the finite signature set.  A greatest-fixpoint elimination
keeps exactly the signatures realizable as states of a playable model over
the surviving set; realizability is preserved when the set grows (a table
over more outcomes can ignore the new coordinates), which is what makes
the elimination complete.  A refuting survivor yields a countermodel; an
empty refuting set at a sufficient state bound certifies theoremhood.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from .chain import Chain
from .corpus import random_enriched_model, random_playable_model
from .errors import BudgetExceeded, DialectViolation, InvalidInput, VerificationFailed
from .formulas import (
    Box,
    BoxO,
    Coalition,
    Formula,
    Implies,
    Neg,
    Prop,
    meet,
    subformulas,
    uses_outcome_modality,
)
from .models import (
    DEFAULT_VALUATION_BUDGET,
    EnrichedLnModel,
    LnModel,
    _eval_nodes,
    _valuation_grid,
    b_family,
    check_axiom_schema,
    eval_vector,
    is_standard,
    pn_axioms,
    tpn_axioms,
)
from .tables import BOOL_CHAIN, EffFn, check_playability, lift_boolean

LOGIC_PN = "Pn"
LOGIC_TPN = "TPn"

STATUS_COUNTERMODEL = "CountermodelFound"
STATUS_NO_COUNTERMODEL = "NoCountermodelUpToBound"
STATUS_THEOREM = "TheoremByFiltrationBound"


@dataclass(frozen=True)
class DecisionVerdict:
    status: str
    bound: int
    model: LnModel | None = None
    state: str | None = None
    stats: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = {
            "kind": "decision-verdict",
            "status": self.status,
            "bound": self.bound,
            "stats": dict(sorted(self.stats.items())),
        }
        if self.model is not None:
            doc["model"] = self.model.to_doc()
            doc["state"] = self.state
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


# -- signatures --------------------------------------------------------------


class _Signatures:
    """The consistent value signatures on the subformulas of a query."""

    def __init__(self, phi: Formula, chain: Chain, players: int):
        if players < 2:
            raise InvalidInput(f"need at least 2 players, got {players}")
        # elimination visits every pair of the 2^players coalition rows; the
        # budget is a power of 2, so 4^players > budget compares exponents
        if 2 * players >= DEFAULT_VALUATION_BUDGET.bit_length():
            raise BudgetExceeded(
                f"{players} players give 4^{players} coalition row pairs, "
                f"over budget {DEFAULT_VALUATION_BUDGET}"
            )
        self.phi = phi
        self.chain = chain
        self.subs = subformulas(phi)  # children before parents
        self.index = {f: i for i, f in enumerate(self.subs)}
        self.players = players
        for f in self.subs:
            if isinstance(f, Box) and f.coalition.k != players:
                raise InvalidInput("coalitions sized for a different player count")
        self.free = tuple(
            f for f in self.subs if isinstance(f, (Prop, Box, BoxO))
        )
        self.boxes = tuple(f for f in self.subs if isinstance(f, Box))
        self.oboxes = tuple(f for f in self.subs if isinstance(f, BoxO))
        self.props = tuple(f for f in self.subs if isinstance(f, Prop))

    def all(self) -> tuple[tuple[int, ...], ...]:
        """Every assignment to the free nodes, lexicographically, with the
        other nodes derived from it."""
        n = self.chain.n
        grid = _valuation_grid(n, 1, self.free, DEFAULT_VALUATION_BUDGET)
        values = _eval_nodes(self.subs, n, grid)
        return tuple(zip(*(values[f][:, 0].tolist() for f in self.subs)))


def _box_cell_constraints(sig_state, signatures, T, index, n):
    """Boolean skeleton cells forced at one state, or None on conflict.

    An exact chain value at a modal cell means the thresholded cell is
    accepted up to that level and rejected just above it.
    """
    cells = {}
    for b in signatures.boxes:
        v = sig_state[index[b]]
        fb = tuple(t[index[b.sub]] for t in T)
        for i in range(1, n + 1):
            X = frozenset(j for j, x in enumerate(fb) if x >= i)
            want = 1 if v >= i else 0
            key = (b.coalition.mask, X)
            if cells.setdefault(key, want) != want:
                return None
    return cells


def _o_constraints(sig_state, signatures, T, index):
    out = []
    for b in signatures.oboxes:
        v = sig_state[index[b]]
        fb = tuple(t[index[b.sub]] for t in T)
        out.append((fb, v))
    return out


def _closure_generators(k, size, cells, z_set):
    """Minimal accepted sets per proper coalition, as antichain generators.

    Rows start from the prescribed accepted cells plus liveness and close
    under disjoint superadditive intersections, the empty coalition's
    generator Z included, so every generator g also brings g & Z; upward
    closure stays implicit in the generator view.
    """
    full_mask = (1 << k) - 1
    everything = frozenset(range(size))
    gens = {mask: {everything} for mask in range(1, full_mask)}
    gens[0] = {z_set}
    for (mask, X), v in cells.items():
        if v == 1 and mask not in (0, full_mask):
            gens[mask].add(X)
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
    # prune to antichains for cheap membership tests
    pruned = {}
    for mask, sets in gens.items():
        keep = [g for g in sets if not any(h < g for h in sets)]
        pruned[mask] = sorted(keep, key=lambda s: (len(s), sorted(s)))
    return pruned


def _z_candidates(size, cells, oc, n):
    """Candidate generator sets Z, one per profile of touched atoms.

    Every check against Z only asks how Z meets the constraint sets, so
    states with the same membership profile across those sets are
    interchangeable; taking whole atoms loses nothing and shrinks the
    search from subsets of states to subsets of atoms.
    """
    reference = [X for (_, X) in cells]
    for fb, _ in oc:
        for i in range(1, n + 1):
            reference.append(frozenset(j for j, x in enumerate(fb) if x >= i))
    atoms = {}
    for j in range(size):
        profile = tuple(j in X for X in reference)
        atoms.setdefault(profile, []).append(j)
    atom_sets = [frozenset(members) for members in atoms.values()]
    for count in range(1, len(atom_sets) + 1):
        for combo in itertools.combinations(atom_sets, count):
            yield frozenset().union(*combo)


def _realizable(sig_state, signatures, T):
    """Whether a state with this signature fits into a model over T.

    Returns the witness (Z, generators) or None.  The empty and grand
    coalitions are determined by the generator set Z; proper coalitions get
    the least closed rows, which can only help the rejected cells.
    """
    n = signatures.chain.n
    k = signatures.players
    size = len(T)
    index = signatures.index
    full_mask = (1 << k) - 1
    cells = _box_cell_constraints(sig_state, signatures, T, index, n)
    if cells is None:
        return None
    oc = _o_constraints(sig_state, signatures, T, index)
    for z_set in _z_candidates(size, cells, oc, n):
        ok = True
        for (mask, X), v in cells.items():
            if mask == 0:
                got = 1 if z_set <= X else 0
            elif mask == full_mask:
                got = 1 if z_set & X else 0
            else:
                continue
            if got != v:
                ok = False
                break
        if not ok:
            continue
        for fb, v in oc:
            if min(fb[j] for j in z_set) != v:
                ok = False
                break
        if not ok:
            continue
        gens = _closure_generators(k, size, cells, z_set)
        for mask, sets in gens.items():
            if any(len(g) == 0 for g in sets):
                ok = False  # safety: the empty set became acceptable
                break
            for (m, X), v in cells.items():
                if m == mask and v == 0 and any(g <= X for g in sets):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            # superadditive pairs whose union is the grand coalition
            for m1 in gens:
                m2 = full_mask & ~m1
                if m2 in gens:
                    for g1 in gens[m1]:
                        for g2 in gens[m2]:
                            if not (g1 & g2 & z_set):
                                ok = False
                                break
                        if not ok:
                            break
                if not ok:
                    break
        if ok:
            return z_set, gens
    return None


def _build_state_table(witness, signatures, size) -> EffFn:
    """Materialize the Boolean table of one realized state and lift it."""
    z_set, gens = witness
    k = signatures.players
    full_mask = (1 << k) - 1
    outcomes = tuple(f"s{j}" for j in range(size))
    table = []
    for mask in range(1 << k):
        row = []
        for bits in itertools.product((0, 1), repeat=size):
            X = frozenset(j for j, b in enumerate(bits) if b)
            if mask == 0:
                row.append(1 if z_set <= X else 0)
            elif mask == full_mask:
                row.append(1 if z_set & X else 0)
            else:
                row.append(1 if any(g <= X for g in gens[mask]) else 0)
        table.append(row)
    H = EffFn(chain=BOOL_CHAIN, k=k, outcomes=outcomes, table=table)
    return lift_boolean(H, signatures.chain, check_input=False)


def _assemble_model(T, witnesses, signatures, logic):
    size = len(T)
    index = signatures.index
    states = tuple(f"s{j}" for j in range(size))
    eff = tuple(
        _build_state_table(witnesses[j], signatures, size) for j in range(size)
    )
    valuation = {
        p.index: tuple(t[index[p]] for t in T) for p in signatures.props
    }
    if logic == LOGIC_TPN:
        pairs = frozenset(
            (j, v) for j in range(size) for v in witnesses[j][0]
        )
        return EnrichedLnModel(signatures.chain, states, eff, valuation, pairs)
    return LnModel(signatures.chain, states, eff, valuation)


def _verify_countermodel(model, phi, state_idx, signatures, logic):
    """Double-entry bookkeeping: re-check the found model from scratch."""
    for j, E in enumerate(model.eff):
        if not check_playability(E).truly_playable:
            raise VerificationFailed(
                f"countermodel table at {model.states[j]} is not truly playable"
            )
    if logic == LOGIC_TPN and not is_standard(model):
        raise VerificationFailed("countermodel is not a standard enriched model")
    if eval_vector(model, phi)[state_idx] >= model.n:
        raise VerificationFailed("countermodel does not refute the formula")


def _feasible(T, signatures, logic):
    witnesses = []
    for sig in T:
        w = _realizable(sig, signatures, T)
        if w is None:
            return None
        witnesses.append(w)
    return witnesses


def search_countermodel(
    phi: Formula,
    logic: str = LOGIC_PN,
    max_states: int = 8,
    strategy: str = "exhaustive",
    chain: Chain | None = None,
    players: int = 2,
    seed: int = 0,
    samples: int = 200,
) -> DecisionVerdict:
    """Look for a bounded countermodel of phi, or certify there is none."""
    if chain is None:
        chain = Chain(1)
    if logic not in (LOGIC_PN, LOGIC_TPN):
        raise InvalidInput(f"unknown logic {logic!r}")
    if logic == LOGIC_PN and uses_outcome_modality(phi):
        raise DialectViolation("[O] formulas belong to the enriched logic")
    if max_states < 1:
        raise InvalidInput("max_states must be positive")
    signatures = _Signatures(phi, chain, players)
    bound = (chain.n + 1) ** len(signatures.subs)
    phi_pos = signatures.index[phi]

    if strategy == "randomized":
        return _randomized_search(phi, logic, max_states, chain, players, seed, samples, bound)
    if strategy != "exhaustive":
        raise InvalidInput(f"unknown strategy {strategy!r}")

    # greatest fixpoint of per-state realizability
    survivors = list(signatures.all())
    rounds = 0
    while True:
        rounds += 1
        T = tuple(survivors)
        kept = [sig for sig in survivors if _realizable(sig, signatures, T) is not None]
        if len(kept) == len(survivors):
            break
        survivors = kept
        if not survivors:
            break
    refuting = [sig for sig in survivors if sig[phi_pos] < chain.n]
    stats = {
        "strategy": "exhaustive",
        "signatures": (chain.n + 1) ** len(signatures.free),
        "survivors": len(survivors),
        "elimination_rounds": rounds,
        "refuting_survivors": len(refuting),
    }
    if not refuting:
        if max_states >= bound:
            return DecisionVerdict(STATUS_THEOREM, bound, stats=stats)
        return DecisionVerdict(STATUS_NO_COUNTERMODEL, max_states, stats=stats)

    # a countermodel exists on the survivor set; present a small one
    full = tuple(survivors)
    cell_cap = 1 << 16
    comb_cap = 300_000

    def attempt(T):
        witnesses = _feasible(T, signatures, logic)
        if witnesses is None:
            return None
        model = _assemble_model(T, witnesses, signatures, logic)
        state_idx = next(j for j, sig in enumerate(T) if sig[phi_pos] < chain.n)
        _verify_countermodel(model, phi, state_idx, signatures, logic)
        stats["countermodel_states"] = len(T)
        return DecisionVerdict(
            STATUS_COUNTERMODEL, bound, model, model.states[state_idx], stats
        )

    sizes = range(1, min(max_states, len(full)) + 1)
    for size in sizes:
        if (chain.n + 1) ** size * (1 << signatures.players) > cell_cap:
            raise BudgetExceeded(
                f"countermodel tables at {size} states exceed the cell cap"
            )
        if math.comb(len(full), size) > comb_cap:
            # too many subsets; fall back to the whole survivor set
            if len(full) <= max_states:
                verdict = attempt(full)
                if verdict is not None:
                    return verdict
            break
        for T in itertools.combinations(full, size):
            if all(sig[phi_pos] == chain.n for sig in T):
                continue
            verdict = attempt(T)
            if verdict is not None:
                return verdict
    return DecisionVerdict(STATUS_NO_COUNTERMODEL, max_states, stats=stats)


def _randomized_search(phi, logic, max_states, chain, players, seed, samples, bound):
    from .formulas import propositions

    rng = random.Random(seed)
    props = propositions(phi) or (1,)
    for trial in range(samples):
        num_states = rng.randint(1, max_states)
        if logic == LOGIC_TPN:
            model = random_enriched_model(rng, chain, num_states, players, props)
        else:
            model = random_playable_model(rng, chain, num_states, players, props)
        values = eval_vector(model, phi)
        for j, v in enumerate(values):
            if v < chain.n:
                stats = {"strategy": "randomized", "seed": seed, "trials": trial + 1}
                return DecisionVerdict(
                    STATUS_COUNTERMODEL, bound, model, model.states[j], stats
                )
    stats = {"strategy": "randomized", "seed": seed, "trials": samples}
    return DecisionVerdict(STATUS_NO_COUNTERMODEL, max_states, stats=stats)


# -- soundness ---------------------------------------------------------------


def soundness_suite(logic: str, models, chain: Chain, players: int = 2) -> dict:
    """Validate every axiom schema, and spot rule preservation, on a corpus."""
    models = list(models)
    if logic == LOGIC_PN:
        axioms = pn_axioms(players, chain) + b_family(players, chain)
    elif logic == LOGIC_TPN:
        axioms = tpn_axioms(players, chain)
    else:
        raise InvalidInput(f"unknown logic {logic!r}")
    failures = []
    axiom_results = {}
    for name, schema in axioms:
        bad = 0
        for m_idx, model in enumerate(models):
            holds, witness = check_axiom_schema(model, schema)
            if not holds:
                bad += 1
                failures.append(
                    {"axiom": name, "model": m_idx, "witness": repr(witness)}
                )
        axiom_results[name] = "pass" if bad == 0 else f"fail({bad})"

    rule_results = {}
    p, q = Prop(1), Prop(2)
    C = Coalition.of([1], players)
    empty = Coalition.empty(players)
    mono_premise = Implies(meet(p, q), p)
    mono_conclusion = Implies(Box(C, meet(p, q)), Box(C, p))
    nec_conclusion = Box(empty, Implies(p, p))
    mp_minor = Implies(p, Implies(q, p))
    mp_major = Implies(mp_minor, Implies(Neg(p), Implies(mp_minor, Neg(p))))
    mp_conclusion = Implies(Neg(p), Implies(mp_minor, Neg(p)))
    subst_instance = Implies(Neg(meet(p, q)), Implies(p, Neg(meet(p, q))))
    checks = {
        "monotonicity": (mono_premise, mono_conclusion),
        "modus_ponens": (None, mp_conclusion),
        "substitution": (None, subst_instance),
    }
    for name, (premise, conclusion) in checks.items():
        ok = True
        for model in models:
            if premise is not None:
                holds, _ = check_axiom_schema(model, premise)
                if not holds:
                    continue
            if name == "modus_ponens":
                for part in (mp_minor, mp_major):
                    holds, witness = check_axiom_schema(model, part)
                    if not holds:
                        raise VerificationFailed(
                            f"modus ponens premise failed: {witness!r}"
                        )
            holds, _ = check_axiom_schema(model, conclusion)
            ok = ok and holds
        rule_results[name] = "pass" if ok else "fail"
    if logic == LOGIC_TPN:
        ok = all(check_axiom_schema(m, nec_conclusion)[0] for m in models)
        rule_results["necessitation"] = "pass" if ok else "fail"
    return {
        "kind": "soundness-report",
        "logic": logic,
        "n": chain.n,
        "models": len(models),
        "axioms": axiom_results,
        "rules": rule_results,
        "failures": failures,
    }
