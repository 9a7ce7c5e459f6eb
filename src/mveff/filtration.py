"""Quotients of models by subformula agreement, with transferred effectivity.

The pipeline has three stages.  The quotient groups states by the value
vector of every subformula of a generator formula.  The intermediate stage
builds a class-level table E* whose value at an argument f is the source
value at the largest definable vector below f, and its Boolean skeleton is
playable.  The playable stage lifts that skeleton back to the chain, giving
a truly playable filtered model that evaluates every subformula exactly as
the source model did.

Every step divides n, so each class's skeleton is generated by the
class-images of its representative's source generators, the sets of
classes of each generator's states, and by the singletons of the image
of the empty row's one generator for the grand coalition
(_class_generators).  The playable and enriched stages read generators
alone: they build no E*, no skeleton and no cells, the lifts are held as
the class generators (tables._generated), and evaluation, condition (2),
truth transfer and both stacked playability checks read those.  The
lifts' check, which includes homogeneity, is also the check that the
class skeletons are playable, so no skeleton is checked apart.  Only
intermediate_filtration takes the skeletons, as the Boolean tables of
the lifts (tables.boolean_skeleton), and builds the dense E* tables,
after checking the source cell budget, and it checks their skeletons
against those.

The definable vectors form the MV-subalgebra of the chain power generated
by the subformula vectors, and are kept in closed form: each class has a
step, the gcd of n and its seed column, and a vector is definable exactly
when it is a multiple of each class's step at that class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

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
    PLAYABLE_PARTS,
    EffFn,
    _generated,
    _generator_rows,
    _geometry,
    _minimal,
    _require,
    _row_values,
    _stack,
    boolean_skeleton,
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


def _class_weights(q: Quotient, n: int) -> np.ndarray:
    """Each class's weight in a source assessment index over the chain
    with n: the sum of its members' place values, so a class-level
    assessment times the weights is the index of its value at each
    state."""
    weights = np.zeros(q.num_classes, dtype=np.int64)
    places = (n + 1) ** np.arange(q.source.num_states - 1, -1, -1, dtype=np.int64)
    np.add.at(weights, np.asarray(q.class_map), places)
    return weights


def _class_generators(q: Quotient) -> list:
    """Per class, the generator rows of its E* table's Boolean skeleton, one
    per coalition, read off its representative's source generators
    (tables._generator_rows).

    On an idempotent assessment chi_A, A a set of classes, g*(chi_A) =
    chi_A, as every step divides n, so E*(C, chi_A) is the source value at
    the indicator of A's states.  So row C != N accepts A exactly when a
    source generator of row C lies in A's states, that is when its
    class-image, the set of its states' classes, lies in A: the
    class-images generate the row.  Row N, the dual of row {}, accepts A
    exactly when row {} does not accept the complement of A.  The source
    tables are playable, so each holds its generators, and its row {} has
    one, z: superadditivity on ({}, {}) meets two generators inside a
    third, which liveness and safety leave only when they are one.  So row
    N accepts the A that meet the class-image of z, generated by its
    singletons.  VerificationFailed is raised where a source table is not
    held as its generators or its row {} is not principal.
    """
    model = q.source
    size, count, full = model.num_states, q.num_classes, (1 << model.k) - 1
    reps = [model.eff[rep] for rep in q.representatives]
    sources = _generator_rows(reps, range(full + 1))
    if sources is None:
        raise VerificationFailed("a playable source table is not held as its generators")
    # the class of the state at each bit of a source outcome set, as a set
    # of classes
    classes = [1 << count - 1 - q.class_map[size - 1 - b] for b in range(size)]

    def image(g: int) -> int:
        return reduce(int.__or__, (classes[b] for b in range(size) if g >> b & 1), 0)

    rows = {}  # source generator rows -> class generator rows
    for gens in sources:
        if gens not in rows:
            if len(gens[0]) != 1:
                raise VerificationFailed("a playable source table's empty row is not principal")
            z = image(gens[0][0])
            rows[gens] = tuple(_minimal(map(image, row)) for row in gens[:full]) + (
                tuple(1 << b for b in range(count) if z >> b & 1),
            )
    return [rows[gens] for gens in sources]


def _intermediate_tables(q: Quotient, steps, skeletons) -> list[EffFn]:
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
    it keeps E* well defined everywhere else.  Each table is 0 or n on the
    idempotent assessments, n exactly where its class's skeleton in
    skeletons (from _class_generators) is 1; VerificationFailed is raised
    where it is not.

    The source cells are read first, so a source table over the cell
    budget raises BudgetExceeded (EffFn.rows) before the class geometry is
    built; a class table has no more cells, as there are no more classes
    than states.
    """
    model = q.source
    n = model.n
    sources = [model.eff[rep].rows() for rep in q.representatives]
    geo = _geometry(n, q.num_classes)
    steps = np.asarray(steps, dtype=np.int64)
    idx = (geo.tuples // steps * steps) @ _class_weights(q, n)
    full = (1 << model.k) - 1
    tables = []
    for source, H in zip(sources, skeletons):
        rows = source.take(idx, axis=1)
        rows[full] = n - rows[0].take(geo.neg_idx)
        if not np.array_equal(rows.take(geo.idempotent_idx, axis=1), H.rows().astype(rows.dtype) * n):
            raise VerificationFailed("an intermediate table's skeleton is not the gathered one")
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
    """Condition (1), each proposition's value at a state is its class's,
    and condition (2), each boxed subformula's value at a state is its
    class's table read at the argument's class vector, once per class."""
    model = q.source
    lookup = dict(q.subformula_vectors)
    for p in filtered.declared_props():
        row = filtered.prop_row(p)
        src = lookup[Prop(p)]
        for j, u in enumerate(model.states):
            if row[q.class_map[j]] != src[j]:
                raise VerificationFailed(f"condition (1) failed for p{p} at {u}")
    class_map = np.asarray(q.class_map)
    for phi, class_arg in _boxed_cells(q):
        got = _row_values(filtered.eff, phi.coalition.mask, np.asarray(class_arg))
        if not np.array_equal(got[class_map], lookup[phi]):
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
    # every node's values at the states' classes against its source vector
    checked = [(phi, vec) for phi, vec in q.subformula_vectors if phi in values]
    got = _stack([values[phi] for phi, _ in checked])[:, np.asarray(q.class_map)]
    bad = (got != np.array([vec for _, vec in checked])).any(axis=1)
    if bad.any():
        raise VerificationFailed(f"truth transfer failed at {checked[int(bad.argmax())][0]}")


def _filtered_valuation(q: Quotient):
    lookup = dict(q.subformula_vectors)
    rep = q.representatives
    return {
        phi.index: tuple(lookup[phi][j] for j in rep)
        for phi in lookup
        if isinstance(phi, Prop)
    }


def _classes(model: LnModel, mu: Formula):
    """The quotient, and per class the lift of its skeleton to the model's
    chain.

    Two stacked checks, each asking only for the verdicts it reads: the
    source tables are playable, and the lifts are truly playable, each
    distinct one decided once, on its generators or its skeleton.  A lift
    is homogeneous exactly when it is the lift of its skeleton, and then
    every predicate has the same verdict on both, so the lifts' check is
    also the check that the skeletons are playable.  Each distinct tuple
    of class generator rows (_class_generators) is lifted once, held as
    its generators (tables._generated).
    """
    _require(((model.eff, PLAYABLE_PARTS, NotPlayable("filtration requires a playable model")),))
    q = quotient(model, mu)
    class_rows = _class_generators(q)
    lifts = {
        rows: _generated(model.chain, model.k, q.class_names(), rows)
        for rows in dict.fromkeys(class_rows)
    }
    lifted = tuple(lifts[rows] for rows in class_rows)
    truly = (*PLAYABLE_PARTS, "principal")
    _require(((lifted, truly, VerificationFailed("lifted table is not truly playable")),))
    return q, lifted


def _filtered(q: Quotient, eff) -> LnModel:
    """The class-level model with the given tables, conditions (1) and (2)
    verified."""
    filtered = LnModel(
        chain=q.source.chain,
        states=q.class_names(),
        eff=eff,
        valuation=_filtered_valuation(q),
    )
    _verify_filtration_conditions(q, filtered)
    return filtered


def intermediate_filtration(model: LnModel, mu: Formula) -> FiltrationResult:
    """Class-level model with the E* tables, conditions verified."""
    q, lifted = _classes(model, mu)
    skeletons = [boolean_skeleton(E) for E in lifted]
    tables = _intermediate_tables(q, definable_class_vectors(q), skeletons)
    return FiltrationResult(quotient=q, model=_filtered(q, tables), stage=STAGE_INTERMEDIATE)


def _playable(model: LnModel, mu: Formula):
    """The quotient and the lifted model of the playable filtration, with
    every check but truth transfer, which each public filtration runs once
    on the model it returns."""
    q, lifted = _classes(model, mu)
    return q, _filtered(q, lifted)


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
