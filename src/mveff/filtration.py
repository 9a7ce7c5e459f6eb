"""Quotients of models by subformula agreement, with transferred effectivity.

The pipeline has three stages.  The quotient groups states by the value
vector of every subformula of a generator formula.  The intermediate stage
builds a class-level table E* as a max over definable assessments below the
argument, and its Boolean skeleton is playable.  The playable stage lifts
that skeleton back to the chain, giving a truly playable filtered model that
evaluates every subformula exactly as the source model did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import tau_odot_num, tau_oplus_num
from .errors import NotPlayable, NotStandard, PremiseViolated, VerificationFailed
from .formulas import (
    Box,
    BoxO,
    Formula,
    Prop,
    children,
    iff,
    oplus,
    subformulas,
)
from .models import (
    EnrichedLnModel,
    LnModel,
    _eval_nodes,
    check_axiom_schema,
    is_standard,
)
from .tables import (
    EffFn,
    _geometry,
    boolean_skeleton,
    check_playability,
    encode_assessment,
    lift_boolean,
)

STAGE_INTERMEDIATE = "intermediate"
STAGE_PLAYABLE = "playable"
STAGE_ENRICHED = "enriched"


@dataclass(frozen=True)
class Quotient:
    """Partition of a model's states by subformula agreement."""

    source: LnModel
    generator: Formula
    class_map: tuple[int, ...]  # state index -> class index
    representatives: tuple[int, ...]  # class index -> first state index
    subformula_vectors: tuple[tuple[Formula, tuple[int, ...]], ...]

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    def class_of(self, u) -> int:
        return self.class_map[self.source.state_index(u)]

    def members(self, cls: int) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.class_map) if c == cls)

    def class_names(self) -> tuple[str, ...]:
        return tuple(f"c{c}" for c in range(self.num_classes))

    def to_doc(self) -> dict:
        return {
            "kind": "class-map",
            "generator": str(self.generator),
            "classes": {
                name: [self.source.states[j] for j in self.members(c)]
                for c, name in enumerate(self.class_names())
            },
        }


@dataclass(frozen=True)
class FiltrationResult:
    quotient: Quotient
    model: LnModel
    stage: str


def quotient(model: LnModel, mu: Formula) -> Quotient:
    """Group states by the values of every subformula of mu."""
    nodes = subformulas(mu)
    values = _eval_nodes(nodes, model.n, {}, model)
    vectors = tuple((phi, tuple(values[phi][0].tolist())) for phi in nodes)
    signatures = [
        tuple(vec[j] for _, vec in vectors) for j in range(model.num_states)
    ]
    class_of: dict[tuple, int] = {}
    class_map = []
    representatives = []
    for j, sig in enumerate(signatures):
        if sig not in class_of:
            class_of[sig] = len(representatives)
            representatives.append(j)
        class_map.append(class_of[sig])
    return Quotient(
        source=model,
        generator=mu,
        class_map=tuple(class_map),
        representatives=tuple(representatives),
        subformula_vectors=vectors,
    )


def definable_class_vectors(q: Quotient) -> tuple[tuple[int, ...], ...]:
    """Class-level value vectors definable from the subformula vectors.

    The seed vectors are closed under pointwise negation, implication and
    both doubling maps; the closure is a finite fixpoint inside the chain
    power and is returned in a deterministic first-seen order.
    """
    n = q.source.n
    rep = q.representatives
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


def _intermediate_tables(q: Quotient, gamma) -> list[EffFn]:
    """E* per class: max over definable assessments below the argument.

    The grand coalition's row is the dual of the empty coalition's row;
    every other row reads the source table of the canonical (first-seen)
    representative of the class.  At cells named by boxed subformulas all
    representatives agree, so the canonical choice is harmless there, and
    it keeps E* well defined everywhere else.
    """
    model = q.source
    n = model.n
    k = model.k
    cls = q.num_classes
    full = (1 << k) - 1
    assessments = _geometry(n, cls).tuples
    gamma_m = np.asarray(gamma, dtype=np.int64)
    below = (gamma_m[None, :, :] <= assessments[:, None, :]).all(axis=2)
    neg_idx = (n - assessments) @ ((n + 1) ** np.arange(cls - 1, -1, -1, dtype=np.int64))

    # source-level value of each definable vector, per source state
    pullback = [
        tuple(g[q.class_map[j]] for j in range(model.num_states)) for g in gamma
    ]
    tables = []
    for c in range(cls):
        rep = q.representatives[c]
        rows = [None] * (1 << k)
        for mask in range(1 << k):
            if mask == full:
                continue
            w = np.asarray(
                [model.eff[rep].value_num(mask, pb) for pb in pullback],
                dtype=np.int64,
            )
            rows[mask] = np.max(np.where(below, w[None, :], 0), axis=1)
        rows[full] = n - rows[0][neg_idx]
        tables.append(
            EffFn(
                chain=model.chain,
                k=k,
                outcomes=q.class_names(),
                table=[[int(v) for v in row] for row in rows],
            )
        )
    return tables


def _boxed_cells(q: Quotient):
    """(coalition mask, class-level argument vector) cells named by boxed
    subformulas of the generator; condition (2) is checked there."""
    rep = q.representatives
    lookup = dict(q.subformula_vectors)
    for phi, _ in q.subformula_vectors:
        if isinstance(phi, Box):
            arg = lookup[phi.sub]
            yield phi, tuple(arg[j] for j in rep)


def _verify_filtration_conditions(q: Quotient, filtered: LnModel):
    model = q.source
    lookup = dict(q.subformula_vectors)
    for p in filtered.declared_props():
        row = filtered.prop_row(p)
        src = lookup[Prop(p)]
        for j, u in enumerate(model.states):
            if row[q.class_map[j]] != src[j]:
                raise VerificationFailed(f"condition (1) failed for p{p} at {u}")
    for phi, class_arg in _boxed_cells(q):
        fidx = encode_assessment(class_arg, model.n)
        src = lookup[phi]
        for j in range(model.num_states):
            got = filtered.eff[q.class_map[j]].table[phi.coalition.mask][fidx]
            if got != src[j]:
                raise VerificationFailed(f"condition (2) failed at {phi}")


def _verify_truth_transfer(q: Quotient, filtered: LnModel):
    nodes = tuple(phi for phi, _ in q.subformula_vectors)
    if not isinstance(filtered, EnrichedLnModel):
        # the [O]-free subformulas, which are closed under children
        above_o = set()
        for phi in nodes:
            if isinstance(phi, BoxO) or any(c in above_o for c in children(phi)):
                above_o.add(phi)
        nodes = tuple(phi for phi in nodes if phi not in above_o)
    values = _eval_nodes(nodes, filtered.n, {}, filtered)
    class_map = np.asarray(q.class_map)
    for phi, vec in q.subformula_vectors:
        if phi in values and not np.array_equal(values[phi][0][class_map], vec):
            raise VerificationFailed(f"truth transfer failed at {phi}")


def _filtered_valuation(q: Quotient):
    lookup = dict(q.subformula_vectors)
    rep = q.representatives
    return {
        phi.index: tuple(lookup[phi][j] for j in rep)
        for phi in lookup
        if isinstance(phi, Prop)
    }


def intermediate_filtration(model: LnModel, mu: Formula) -> FiltrationResult:
    """Class-level model with the E* tables, conditions verified."""
    # equal tables share a verdict, so each distinct one is checked once
    for E in dict.fromkeys(model.eff):
        if not check_playability(E).playable:
            raise NotPlayable("filtration requires a playable model")
    q = quotient(model, mu)
    gamma = definable_class_vectors(q)
    tables = _intermediate_tables(q, gamma)
    for H in dict.fromkeys(boolean_skeleton(E, strict=False) for E in tables):
        if not check_playability(H).playable:
            raise VerificationFailed("intermediate skeleton is not playable")
    filtered = LnModel(
        chain=model.chain,
        states=q.class_names(),
        eff=tables,
        valuation=_filtered_valuation(q),
    )
    _verify_filtration_conditions(q, filtered)
    return FiltrationResult(quotient=q, model=filtered, stage=STAGE_INTERMEDIATE)


def playable_filtration(model: LnModel, mu: Formula) -> FiltrationResult:
    """Lift of the intermediate skeleton: a truly playable filtration."""
    inter = intermediate_filtration(model, mu)
    q = inter.quotient
    lifted = tuple(
        lift_boolean(boolean_skeleton(E, strict=False), model.chain, check_input=False)
        for E in inter.model.eff
    )
    filtered = LnModel(
        chain=model.chain,
        states=q.class_names(),
        eff=lifted,
        valuation=_filtered_valuation(q),
    )
    for E in dict.fromkeys(lifted):
        if not check_playability(E).truly_playable:
            raise VerificationFailed("lifted table is not truly playable")
    _verify_filtration_conditions(q, filtered)
    _verify_truth_transfer(q, filtered)
    return FiltrationResult(quotient=q, model=filtered, stage=STAGE_PLAYABLE)


_HOMOGENEITY_PREMISE = iff(oplus(BoxO(Prop(1)), BoxO(Prop(1))), BoxO(oplus(Prop(1), Prop(1))))


def enriched_filtration(model: EnrichedLnModel, mu: Formula) -> FiltrationResult:
    """Standard playable filtration of a standard enriched model."""
    if not isinstance(model, EnrichedLnModel) or not is_standard(model):
        raise NotStandard("enriched filtration needs a standard enriched model")
    holds, witness = check_axiom_schema(model, _HOMOGENEITY_PREMISE)
    if not holds:
        raise PremiseViolated(f"[O] fails homogeneity, witness {witness!r}")
    base = playable_filtration(model, mu)
    q = base.quotient
    gamma = definable_class_vectors(q)
    pairs = set()
    for cu in range(q.num_classes):
        succ = model.successors(q.representatives[cu])
        for cv in range(q.num_classes):
            ok = True
            for g in gamma:
                # premise: the canonical representative gives [O] of g value 1
                boxed_one = all(g[q.class_map[v]] == model.n for v in succ)
                if boxed_one and g[cv] != model.n:
                    ok = False
                    break
            if ok:
                pairs.add((cu, cv))
    filtered = EnrichedLnModel(
        chain=model.chain,
        states=base.model.states,
        eff=base.model.eff,
        valuation=dict(base.model.valuation),
        R=frozenset(pairs),
    )
    # condition (3), read at canonical representatives: their outgoing
    # relation survives the quotient (off-representative sources can
    # disagree on [O] values outside the generator's subformulas)
    for u, v in model.R:
        if u in q.representatives:
            if (q.class_map[u], q.class_map[v]) not in pairs:
                raise VerificationFailed(f"condition (3) failed at {(u, v)}")
    if not is_standard(filtered):
        raise VerificationFailed("enriched filtration did not yield a standard model")
    _verify_truth_transfer(q, filtered)
    return FiltrationResult(quotient=q, model=filtered, stage=STAGE_ENRICHED)
