"""Quotients of models by subformula agreement, with transferred effectivity.

The pipeline has three stages.  The quotient groups states by the value
vector of every subformula of a generator formula.  The intermediate stage
builds a class-level table E* whose value at an argument f is the source
value at the largest definable vector below f, and its Boolean skeleton is
playable.  The playable stage lifts that skeleton back to the chain, giving
a truly playable filtered model that evaluates every subformula exactly as
the source model did.

The definable vectors form the MV-subalgebra of the chain power generated
by the subformula vectors, and are kept in closed form: each class has a
step, the gcd of n and its seed column, and a vector is definable exactly
when it is a multiple of each class's step at that class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotPlayable, NotStandard, VerificationFailed
from .formulas import (
    Box,
    BoxO,
    Formula,
    Prop,
    children,
    subformulas,
)
from .models import (
    EnrichedLnModel,
    LnModel,
    _eval_nodes,
    is_standard,
)
from .tables import (
    BOOL_CHAIN,
    EffFn,
    _geometry,
    _lifted,
    _skeleton_cells,
    _stack,
    check_playability_many,
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
    vectors = tuple((phi, tuple(values[phi].tolist())) for phi in nodes)
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


def definable_class_vectors(q: Quotient) -> tuple[int, ...]:
    """Each class's step, in class order: the class-level vectors definable
    from the subformula vectors are those that are a multiple of each
    class's step at that class.

    The definable vectors are the MV-subalgebra of L_n^classes generated by
    the subformula vectors read at the representatives.  A class's step is
    the gcd of n and its seed column: its coordinate generates the
    subalgebra L_(n/step), which embeds in L_n one way only.  The classes of
    a quotient have pairwise distinct seed columns, so their coordinates are
    independent by the Chinese remainder theorem.
    """
    n = q.source.n
    return tuple(
        math.gcd(n, *(vec[j] for _, vec in q.subformula_vectors))
        for j in q.representatives
    )


def _intermediate_tables(q: Quotient, steps) -> list[EffFn]:
    """E* per class: the source value at the largest definable vector below f.

    E*(f) is the max of the source value over definable vectors below f.
    The source tables are playable, hence outcome-monotone, and definable
    vectors are closed under joins, so the max is taken at the largest one,
    g*(f): f rounded down to a multiple of each class's step.  Read at the
    source states, g*(f) is one index into the source row, so every row is
    one gather.

    The grand coalition's row is the dual of the empty coalition's row;
    every other row reads the source table of the canonical (first-seen)
    representative of the class.  At cells named by boxed subformulas all
    representatives agree, so the canonical choice is harmless there, and
    it keeps E* well defined everywhere else.
    """
    model = q.source
    n = model.n
    geo = _geometry(n, q.num_classes)
    # a class's weight in a source index: the place values of its members
    weights = np.zeros(q.num_classes, dtype=np.int64)
    np.add.at(weights, np.asarray(q.class_map), _geometry(n, model.num_states).powers)
    steps = np.asarray(steps, dtype=np.int64)
    idx = (geo.tuples // steps * steps) @ weights
    full = (1 << model.k) - 1
    tables = []
    for rep in q.representatives:
        rows = model.eff[rep].rows().take(idx, axis=1)
        rows[full] = n - rows[0].take(geo.neg_idx)
        tables.append(EffFn(chain=model.chain, k=model.k, outcomes=q.class_names(), table=rows))
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
            got = filtered.eff[q.class_map[j]].rows()[phi.coalition.mask, fidx]
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
        if phi in values and not np.array_equal(values[phi][class_map], vec):
            raise VerificationFailed(f"truth transfer failed at {phi}")


def _filtered_valuation(q: Quotient):
    lookup = dict(q.subformula_vectors)
    rep = q.representatives
    return {
        phi.index: tuple(lookup[phi][j] for j in rep)
        for phi in lookup
        if isinstance(phi, Prop)
    }


def _intermediate(model: LnModel, mu: Formula):
    """The intermediate filtration, and per class the lift of its table's
    Boolean skeleton to the model's chain.

    E* is 0 or n on the idempotent assessments (there g*(f) = f, as every
    step divides n), so the distinct tables are thresholded at the top in
    one stacked gather, and each distinct skeleton is lifted once.  Each
    stage is one stacked playability check: the source tables, then the
    skeletons and their lifts together, a lift checked on its skeleton.
    """
    if not all(report.playable for report in check_playability_many(model.eff)):
        raise NotPlayable("filtration requires a playable model")
    q = quotient(model, mu)
    tables = _intermediate_tables(q, definable_class_vectors(q))
    unique = tuple(dict.fromkeys(tables))
    cells = _skeleton_cells(_stack([E.rows() for E in unique]), unique[0].geometry())
    skeletons = {E: _lifted(BOOL_CHAIN, model.k, E.outcomes, H) for E, H in zip(unique, cells)}
    lifts = {
        H: lift_boolean(H, model.chain, check_input=False)
        for H in dict.fromkeys(skeletons.values())
    }
    reports = check_playability_many((*lifts, *lifts.values()))
    if not all(report.playable for report in reports[: len(lifts)]):
        raise VerificationFailed("intermediate skeleton is not playable")
    if not all(report.truly_playable for report in reports[len(lifts) :]):
        raise VerificationFailed("lifted table is not truly playable")
    filtered = LnModel(
        chain=model.chain,
        states=q.class_names(),
        eff=tables,
        valuation=_filtered_valuation(q),
    )
    _verify_filtration_conditions(q, filtered)
    inter = FiltrationResult(quotient=q, model=filtered, stage=STAGE_INTERMEDIATE)
    return inter, tuple(lifts[skeletons[E]] for E in tables)


def intermediate_filtration(model: LnModel, mu: Formula) -> FiltrationResult:
    """Class-level model with the E* tables, conditions verified."""
    return _intermediate(model, mu)[0]


def _playable(model: LnModel, mu: Formula):
    """The quotient and the lifted model of the playable filtration, with
    every check but truth transfer, which each public filtration runs once
    on the model it returns."""
    inter, lifted = _intermediate(model, mu)
    filtered = replace(inter.model, eff=lifted)
    _verify_filtration_conditions(inter.quotient, filtered)
    return inter.quotient, filtered


def playable_filtration(model: LnModel, mu: Formula) -> FiltrationResult:
    """Lift of the intermediate skeleton: a truly playable filtration."""
    q, filtered = _playable(model, mu)
    _verify_truth_transfer(q, filtered)
    return FiltrationResult(quotient=q, model=filtered, stage=STAGE_PLAYABLE)


def enriched_filtration(model: EnrichedLnModel, mu: Formula) -> FiltrationResult:
    """Standard playable filtration of a standard enriched model."""
    if not isinstance(model, EnrichedLnModel) or not is_standard(model):
        raise NotStandard("enriched filtration needs a standard enriched model")
    # [O] is a min over successors and x -> min(2x, n) is monotone, so
    # [O](p (+) p) <-> [O]p (+) [O]p holds on every enriched model: the truth
    # transfer's homogeneity premise needs no check
    q, base = _playable(model, mu)
    # every step divides n, so the Boolean definable vectors are the
    # indicators of all sets of classes: cv is forced exactly when it is the
    # class of a successor
    pairs = {
        (cu, q.class_map[v])
        for cu, rep in enumerate(q.representatives)
        for v in model.successors(rep)
    }
    filtered = EnrichedLnModel(
        chain=model.chain,
        states=base.states,
        eff=base.eff,
        valuation=base.valuation,
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
