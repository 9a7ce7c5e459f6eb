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

Each elimination round is one `_Round` over the surviving set T.  A set of
T's states is an int with state j at bit |T| - 1 - j, which is also the
index of its characteristic assessment in `enumerate_assessments` order, so
a table row is one array expression.  The round builds the cuts of every
modal node's argument once; since realizability reads a signature only at
its modal nodes, it is decided once per distinct projection, by one
closure at the largest set Z the empty coalition's row may have.  The
closure is one pass over the proper coalitions in increasing mask order:
each row meets its two-part splits' rows, which are already closed, and
then Z.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

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
        shape = (1,) + (n + 1,) * len(self.free)
        return tuple(
            zip(*(np.broadcast_to(values[f], shape).ravel().tolist() for f in self.subs))
        )


class _Round:
    """Realizability over one elimination round's signature set T.

    cuts[b][i - 1] is the set of states where b's argument is at least i/n.
    """

    def __init__(self, signatures, T):
        self.signatures = signatures
        self.T = T
        self.size = len(T)
        n = signatures.chain.n
        index = signatures.index
        self.modal = signatures.boxes + signatures.oboxes
        self.modal_pos = tuple(index[b] for b in self.modal)
        self.cuts = {}
        for b in self.modal:
            pos = index[b.sub]
            column = [sig[pos] for sig in T]
            # state 0 is the leading digit: one base-2 parse per cut
            self.cuts[b] = tuple(
                int("".join(["1" if x >= i else "0" for x in column]), 2)
                for i in range(1, n + 1)
            )
        self._decided = {}

    def realizable(self, sig):
        """The witness (Z, generators) of a state with this signature, or None."""
        key = tuple(sig[i] for i in self.modal_pos)
        if key not in self._decided:
            self._decided[key] = self._decide(dict(zip(self.modal, key)))
        return self._decided[key]

    def _decide(self, value):
        """The witness (Z, generators) with the largest Z and the least closed
        rows of the proper coalitions that meet every cell the modal values
        prescribe, or None.

        An exact chain value at a [C] node accepts its argument's cuts up to
        that level and rejects the ones above; the empty and grand
        coalitions are determined by Z, and the least closed rows can only
        help the rejected cells.  min over Z of an [O] argument is v exactly
        when Z is inside cut v and not inside cut v + 1.  Those conditions
        bound Z from above by one set, and no other check gets harder as Z
        grows: Z stays out of the rejected sets and meets the grand
        coalition's accepted ones, and every closure term and grand-pair
        meet can only grow.  So that largest Z is the one candidate.
        """
        k = self.signatures.players
        full_mask = (1 << k) - 1
        everything = (1 << self.size) - 1
        acc = {mask: set() for mask in range(full_mask + 1)}
        rej = {mask: set() for mask in range(full_mask + 1)}
        for b in self.signatures.boxes:
            for i, X in enumerate(self.cuts[b], 1):
                (acc if value[b] >= i else rej)[b.coalition.mask].add(X)
        if any(acc[mask] & rej[mask] for mask in acc):
            return None
        # the largest Z: inside every set the empty coalition accepts, and
        # missing every set the grand coalition rejects
        z = functools.reduce(operator.and_, acc[0], everything)
        z &= ~functools.reduce(operator.or_, rej[full_mask], 0)
        outside = list(rej[0])  # Z lies inside none of these
        for b in self.signatures.oboxes:
            cuts = (everything, *self.cuts[b], 0)
            z &= cuts[value[b]]
            outside.append(cuts[value[b] + 1])
        if not z or any(z & X == z for X in outside):
            return None
        if not all(z & X for X in acc[full_mask]):
            return None
        accepted = {mask: [everything, *acc[mask]] for mask in range(1, full_mask)}
        gens = _closure_generators(k, accepted, z)
        if any(
            any(g == 0 or any(X & g == g for X in rej[mask]) for g in sets)
            for mask, sets in gens.items()
        ):
            return None
        # superadditive pairs whose union is the grand coalition
        if not all(
            g1 & g2 & z
            for m1, sets in gens.items()
            for g1 in sets
            for g2 in gens[full_mask & ~m1]
        ):
            return None
        return z, gens

    def state_table(self, witness) -> EffFn:
        """The Boolean table of one realized state, lifted to the chain.

        Row cells are indexed by assessment, and an assessment's index is
        its accepted set: Z's row accepts its supersets, the grand row the
        sets meeting Z, and a proper row the supersets of a generator.
        """
        z, gens = witness
        k = self.signatures.players
        idx = np.arange(1 << self.size)
        rows = [idx & z == z]
        for mask in range(1, (1 << k) - 1):
            rows.append(np.any([idx & g == g for g in gens[mask]], axis=0))
        rows.append(idx & z != 0)
        outcomes = tuple(f"s{j}" for j in range(self.size))
        H = EffFn(chain=BOOL_CHAIN, k=k, outcomes=outcomes, table=np.array(rows))
        return lift_boolean(H, self.signatures.chain, check_input=False)

    def model(self, logic):
        """The model over T whose states carry their witnesses' tables."""
        witnesses = [self.realizable(sig) for sig in self.T]
        signatures = self.signatures
        index = signatures.index
        states = tuple(f"s{j}" for j in range(self.size))
        eff = tuple(self.state_table(w) for w in witnesses)
        valuation = {
            p.index: tuple(t[index[p]] for t in self.T) for p in signatures.props
        }
        if logic == LOGIC_TPN:
            pairs = frozenset(
                (j, v) for j, (z, _) in enumerate(witnesses)
                for v in range(self.size) if z >> (self.size - 1 - v) & 1
            )
            return EnrichedLnModel(signatures.chain, states, eff, valuation, pairs)
        return LnModel(signatures.chain, states, eff, valuation)


def _closure_generators(k, accepted, z):
    """Minimal accepted sets per proper coalition, as antichain generators.

    Row C starts from its prescribed accepted sets (liveness included) and
    is closed under superadditivity: it gains g1 & g2 for every split of C
    into non-empty disjoint parts, and g & Z, Z being the empty coalition's
    generator.  Both parts of a split are smaller masks than C, so one pass
    in increasing mask order finds their rows already closed, and a split
    into more parts is a two-part split of which one part is a union.
    Meeting with Z is idempotent, so one meet after the splits closes the
    row.  Upward closure stays implicit in the generator view; pruning each
    row to its antichain loses nothing, since the minimal meets are meets
    of minimal sets.
    """
    gens = {}
    for mask in range(1, (1 << k) - 1):
        row = set(accepted[mask])
        for part in range(1, mask):
            rest = mask ^ part
            if part & rest == 0 and part < rest:
                row.update(g1 & g2 for g1 in gens[part] for g2 in gens[rest])
        row = {g & z for g in row}
        gens[mask] = [g for g in row if not any(h != g and h & g == h for h in row)]
    return gens


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
        realizable = _Round(signatures, tuple(survivors)).realizable
        kept = [sig for sig in survivors if realizable(sig) is not None]
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
        round_ = _Round(signatures, T)
        if any(round_.realizable(sig) is None for sig in T):
            return None
        model = round_.model(logic)
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
        subsets = math.comb(len(full), size)
        if subsets > comb_cap:
            raise BudgetExceeded(
                f"{subsets} subsets of {size} states exceed the cap {comb_cap}"
            )
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
