"""Neighborhood models over a Lukasiewicz chain, and model checking.

A model attaches one effectivity table to every state plus a chain-valued
valuation of finitely many propositions.  The enriched variant adds a
relation R for the outcome modality [O].  Evaluation is bottom-up over the
formula DAG and batched over candidate valuations, so validity checks run
one vectorized pass instead of one recursion per valuation.

The valuations are an open grid: quantified proposition i varies on lead
axis i only, over the (n+1)^S tuples of its values on the S states, and the
lead axes in C order run through itertools.product order over the
(proposition, state) cells.  Every node array has shape (states, *lead),
states first so that broadcasting runs its inner loop over contiguous
valuations, and it varies only on the axes of the propositions it depends
on: a full-size array exists only for a node whose support is every
quantified proposition.  Arrays hold their values in the narrowest signed
integer type that covers the evaluator's intermediates [-n, 2n] (int8 up to
n = 63), and the budget on the (n+1)^(P*S) joint valuations is checked
before anything is allocated.

check_axiom_schema decides the Pn, B and TPn axiom instances and the
modal rule conclusions of the soundness suite by frame correspondence, one
predicate on the rows it reads of the tables of all states (and the
relation R for [O]), and any other formula, or an instance whose predicate
fails, on that grid.  Where those rows are homogeneous in every table (a
game form's table is), the predicate reads their Boolean skeletons
(tables._held_rows), with the same verdict, so a model of game-form tables
builds no cells for it; standard_relation reads the empty coalition's row
the same way, and the evaluator reads a [C] node on the skeletons when
every table is held as one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .chain import TAU_ODOT, TAU_OPLUS, Chain, TruthValue, synthesize_tau_term
from .errors import (
    BadDocument,
    BudgetExceeded,
    DialectViolation,
    InvalidInput,
    UnknownProposition,
    check_distinct,
    check_document,
    check_field,
    check_names,
    read_int,
)
from .formulas import (
    Box,
    BoxO,
    Coalition,
    Formula,
    Implies,
    Neg,
    Prop,
    Top,
    children,
    doubled,
    iff,
    meet,
    propositions_among,
    subformulas,
)
from .tables import (
    EffFn,
    _check_liveness,
    _check_outcome_monotonic,
    _check_regular,
    _check_safety,
    _held_rows,
    _row_values,
    _value_dtype,
    assessment_columns,
    commutes_with_doublings,
    superadditive_on_pair,
)

DEFAULT_VALUATION_BUDGET = 1 << 20


@dataclass(frozen=True)
class LnModel:
    """States, one effectivity table per state, and a valuation."""

    chain: Chain
    states: tuple[str, ...]
    eff: tuple[EffFn, ...]  # indexed like states, outcomes = states
    valuation: tuple[tuple[int, tuple[int, ...]], ...]  # (prop index, per-state row)

    def __init__(self, chain, states, eff, valuation):
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "eff", tuple(eff))
        if isinstance(valuation, dict):
            valuation = tuple(sorted((p, tuple(row)) for p, row in valuation.items()))
        else:
            valuation = tuple(sorted((p, tuple(row)) for p, row in valuation))
        object.__setattr__(self, "valuation", valuation)
        if not self.states or len(self.eff) != len(self.states):
            raise InvalidInput("need at least one state and one effectivity table per state")
        check_distinct(self.states, "states")
        for E in self.eff:
            if E.chain != chain or E.outcomes != self.states or E.k != self.eff[0].k:
                raise InvalidInput("every table must share the model's chain, states and players")
        for p, row in self.valuation:
            if len(row) != len(self.states):
                raise InvalidInput(f"valuation row for p{p} has wrong length")
            if any(not 0 <= v <= chain.n for v in row):
                raise InvalidInput(f"valuation of p{p} leaves the chain")

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def k(self) -> int:
        return self.eff[0].k

    @property
    def num_states(self) -> int:
        return len(self.states)

    def state_index(self, u) -> int:
        """The index of a state given by name or by index (an int, not a bool)."""
        if isinstance(u, int) and not isinstance(u, bool):
            if 0 <= u < len(self.states):
                return u
        elif u in self.states:
            return self.states.index(u)
        raise InvalidInput(f"unknown state {u!r}")

    def prop_row(self, index: int) -> tuple[int, ...]:
        for p, row in self.valuation:
            if p == index:
                return row
        raise UnknownProposition(f"p{index} has no valuation in this model")

    def declared_props(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.valuation)

    def with_valuation(self, valuation) -> "LnModel":
        return LnModel(self.chain, self.states, self.eff, valuation)

    # -- documents ----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "kind": "model",
            "n": self.n,
            "players": self.k,
            "states": list(self.states),
            "E": {u: self.eff[j].to_doc() for j, u in enumerate(self.states)},
            "val": {
                u: {f"p{p}": row[j] for p, row in self.valuation}
                for j, u in enumerate(self.states)
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LnModel":
        check_document(doc, ("model", "enriched-model"), ("n", "states", "E", "val"))
        kind = doc.get("kind", "model")
        check_field(doc["n"], int, "n")
        check_names(doc["states"], "states")
        states = tuple(doc["states"])
        for key in ("E", "val"):
            check_document(doc[key], (), states)
        for u in states:
            check_field(doc["val"][u], dict, f"the valuation at {u}", int)
            for name in doc["val"][u]:
                if not re.fullmatch(r"p(?:0|[1-9][0-9]*)", name):
                    raise BadDocument(f"valuation name {name!r} is not p<number>")
        check_field(doc.get("R", []), list, "R", list)
        for pair in doc.get("R", []):
            if len(pair) != 2 or any(u not in states for u in pair):
                raise BadDocument(f"R pair {pair!r} is not two declared states")
        eff = tuple(EffFn.from_doc(doc["E"][u]) for u in states)
        names = {name for val in doc["val"].values() for name in val}
        props = sorted(read_int(name[1:], "valuation name") for name in names)
        valuation = {
            p: tuple(doc["val"][u].get(f"p{p}", 0) for u in states) for p in props
        }
        model = cls(Chain(doc["n"]), states, eff, valuation)
        if kind == "enriched-model" or "R" in doc:
            return EnrichedLnModel(model.chain, states, eff, valuation, doc.get("R", []))
        return model

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class EnrichedLnModel(LnModel):
    """An LnModel with an accessibility relation for the [O] modality."""

    R: frozenset = field(default=frozenset())

    def __init__(self, chain, states, eff, valuation, R):
        LnModel.__init__(self, chain, states, eff, valuation)
        pairs = frozenset(
            (self.state_index(u), self.state_index(v)) for u, v in R
        )
        object.__setattr__(self, "R", pairs)

    def successors(self, u: int) -> tuple[int, ...]:
        return tuple(v for (w, v) in sorted(self.R) if w == u)

    def with_valuation(self, valuation) -> "EnrichedLnModel":
        return EnrichedLnModel(self.chain, self.states, self.eff, valuation, self.R)

    def to_doc(self) -> dict:
        doc = super().to_doc()
        doc["kind"] = "enriched-model"
        doc["R"] = [
            [self.states[u], self.states[v]] for u, v in sorted(self.R)
        ]
        return doc


# -- evaluation --------------------------------------------------------------


def _lattice(node):
    """(np.maximum, a, b) for the desugared join (a -> b) -> b, (np.minimum,
    a, b) for the desugared meet ~(~a | ~b), and None for any other node.

    In a Lukasiewicz chain (a -> b) -> b is max(a, b), so ~(~a | ~b) is
    min(a, b).  The repeated operand is matched by identity, which for
    hash-consed nodes is equality.
    """
    if isinstance(node, Implies):
        left = node.left
        if isinstance(left, Implies) and left.right is node.right:
            return np.maximum, left.left, node.right
    elif isinstance(node, Neg) and isinstance(node.sub, Implies):
        join = _lattice(node.sub)
        if join is not None and isinstance(join[1], Neg) and isinstance(join[2], Neg):
            return np.minimum, join[1].sub, join[2].sub
    return None


def _plan(nodes, keep, assign: dict):
    """The nodes that the kept ones (every node when keep is None) need,
    children first; per position in that order, the _lattice of a lattice
    node, and the nodes not kept whose last reader is there, each once
    (p1 -> p1 reads p1 twice)."""
    # needed[node]: None for a kept node, else the position of its last
    # reader counted from the end of order
    needed = dict.fromkeys(nodes if keep is None else keep)
    order, lattices = [], {}
    for node in reversed(nodes):
        if node not in needed:
            continue
        if node in assign:
            reads = ()
        elif (lattice := _lattice(node)) is not None:
            lattices[len(order)] = lattice
            reads = lattice[1:]
        else:
            reads = children(node)
        for read in reads:
            if read not in needed:
                needed[read] = len(order)
        order.append(node)
    last = len(order) - 1
    released: dict[int, list] = {}
    for read, i in needed.items():
        if i is not None:
            released.setdefault(last - i, []).append(read)
    return order[::-1], {last - i: lattice for i, lattice in lattices.items()}, released


def _eval_nodes(nodes, n: int, assign: dict, model: LnModel | None = None, keep=None) -> dict:
    """Value arrays of shape (states, *lead) of the kept nodes, from nodes
    listed children first.

    keep names the nodes the caller reads, every node when None.  Only the
    nodes they need are computed, each once, in _value_dtype(n), and an
    array that is not kept is dropped after its last reader.  A desugared
    join or meet is one pass, the max or min of its two operands (see
    _lattice), and its inner nodes are computed only when another node or
    the caller reads them.  A node in assign takes its array from
    there; any other proposition, [C] or [O] node is read from the model.
    A [C] node reads row C of every state's table through
    tables._row_values: when every table is held as its Boolean skeleton,
    E(C, f) is the number of cuts [f >= i] the skeleton accepts, one
    gather per candidate level, and no cells are built; otherwise it is one gather
    of the stacked cells.
    The lead axes are those of the assigned arrays (an open grid from
    _valuation_grid, none when nothing is assigned), and each node
    broadcasts over only the lead axes its operands vary on.  Without a
    model there is a single state.
    """
    lead = next(iter(assign.values())).ndim - 1 if assign else 0
    size = model.num_states if model is not None else 1
    const = (size,) + (1,) * lead
    dtype = _value_dtype(n)
    # every implication is clipped against an array of its own shape, not
    # the scalar n: numpy's integer minimum against a scalar runs 10-20x
    # slower
    tops: dict[tuple, np.ndarray] = {}
    values: dict[Formula, np.ndarray] = {}
    order, lattices, released = _plan(nodes, keep, assign)
    for i, node in enumerate(order):
        if node in assign:
            out = assign[node]
        elif isinstance(node, Top):
            out = np.full(const, n, dtype=dtype)
        elif isinstance(node, Prop):
            out = np.asarray(model.prop_row(node.index), dtype=dtype).reshape(const)
        elif i in lattices:
            op, a, b = lattices[i]
            out = op(values[a], values[b])
        elif isinstance(node, Neg):
            out = n - values[node.sub]
        elif isinstance(node, Implies):
            out = values[node.right] - values[node.left]
            out += n
            top = tops.get(out.shape)
            if top is None:
                top = tops[out.shape] = np.full(out.shape, n, dtype=dtype)
            np.minimum(out, top, out=out)
        elif isinstance(node, Box):
            if node.coalition.k != model.k:
                raise InvalidInput(
                    f"[{node.coalition}] is a coalition of {node.coalition.k} players "
                    f"and the model has {model.k}"
                )
            out = _row_values(model.eff, node.coalition.mask, values[node.sub])
        elif isinstance(node, BoxO):
            if not isinstance(model, EnrichedLnModel):
                raise DialectViolation("[O] needs an enriched model")
            sub = values[node.sub]
            out = np.full(sub.shape, n, dtype=dtype)
            for u, v in model.R:
                np.minimum(out[u : u + 1], sub[v : v + 1], out=out[u : u + 1])
        else:
            raise TypeError(f"unknown formula node {node!r}")
        values[node] = out
        for read in released.get(i, ()):
            del values[read]
    return values


def eval_vector(model: LnModel, phi: Formula) -> tuple[int, ...]:
    """Numerator of the value of phi at every state."""
    values = _eval_nodes(subformulas(phi), model.n, {}, model, keep=(phi,))
    return tuple(values[phi].tolist())


def eval_formula(model: LnModel, u, phi: Formula) -> TruthValue:
    return TruthValue(eval_vector(model, phi)[model.state_index(u)], model.chain)


def is_true(model: LnModel, phi: Formula) -> bool:
    return all(v == model.n for v in eval_vector(model, phi))


def _valuation_grid(n: int, size: int, props, budget: int) -> dict:
    """An open grid over every joint valuation of props, in _value_dtype(n).

    The array of the i-th proposition has shape (size, 1, ..., V, ..., 1),
    V = (n+1)^size on lead axis i, and column r of lead axis i is the r-th
    tuple of itertools.product(range(n + 1), repeat=size).  Broadcast
    together in C order over the lead axes, the valuations run in
    itertools.product order over the cells (proposition, state), last cell
    fastest.  The budget on every joint valuation is checked before anything
    is allocated.  Every proposition shares one array of the V tuples,
    tables.assessment_columns built anew in _value_dtype(n) on each call
    and held by no geometry, so a one-state grid at a large n costs V
    narrow cells.
    """
    props = list(props)
    total = (n + 1) ** (len(props) * size)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate valuations exceed budget {budget}"
        )
    if not props:
        return {}
    rows = assessment_columns(n, size, _value_dtype(n))
    return {
        p: rows.reshape((size,) + (1,) * i + (-1,) + (1,) * (len(props) - 1 - i))
        for i, p in enumerate(props)
    }


def is_valid(
    model: LnModel,
    phi: Formula,
    prop_support=None,
    budget: int = DEFAULT_VALUATION_BUDGET,
):
    """Truth of phi under every valuation of the supported propositions.

    Returns (verdict, counterexample); the counterexample is the first
    falsifying (valuation dict, state index) in enumeration order.  An
    implication a -> b that is not a desugared join is valid where a <= b,
    so its a and b are evaluated and compared once, in place of the three
    passes of the implication and a test against n.
    """
    nodes = subformulas(phi)
    if prop_support is None:
        prop_support = propositions_among(nodes)
    prop_support = list(prop_support)
    size = model.num_states
    arrays = _valuation_grid(model.n, size, prop_support, budget)
    assign = {Prop(p): arrays[p] for p in prop_support}
    if isinstance(phi, Implies) and _lattice(phi) is None:
        values = _eval_nodes(nodes, model.n, assign, model, keep=(phi.left, phi.right))
        bad = values[phi.left] > values[phi.right]
    else:
        bad = _eval_nodes(nodes, model.n, assign, model, keep=(phi,))[phi] < model.n
    rows = bad.any(axis=0)
    if not rows.any():
        return True, None
    # an axis phi does not vary on has length 1, so its first index is 0
    at = np.unravel_index(int(np.argmax(rows)), rows.shape)
    state = int(np.argmax(bad[(slice(None),) + at]))
    witness = {
        p: tuple(int(v) for v in arrays[p].reshape(size, -1)[:, at[i]])
        for i, p in enumerate(prop_support)
    }
    return False, (witness, state)


# -- standard frames ---------------------------------------------------------


def _row_relation(rows: np.ndarray, geo) -> frozenset:
    """The (u, v) with rows[u] = 0 at not chi_v, which is 0 at v and top
    elsewhere, for one row per state; every (u, v) is read in one gather."""
    # the encoded not chi_v: the top assessment less n at v's place value
    idx = geo.count - 1 - geo.n * geo.powers
    us, vs = np.nonzero(rows.take(idx, axis=1) == 0)
    return frozenset(zip(us.tolist(), vs.tolist()))


def _rows_are_minima(rows: np.ndarray, geo, R) -> bool:
    """Whether rows[u], one row per state, is f -> min over R(u) of f at
    every state u, which is n where u has no successor."""
    for u, row in enumerate(rows):
        successors = [v for w, v in R if w == u]
        if not np.array_equal(row, geo.tuples[:, successors].min(axis=1, initial=geo.n)):
            return False
    return True


def standard_relation(model: LnModel) -> frozenset:
    """The relation induced by the empty coalition's effectivity: u R v
    exactly when E_u(empty, not chi_v) = 0, where not chi_v is 0 at v and
    top elsewhere.  The empty coalition's rows are read on their Boolean
    skeletons where they are homogeneous (tables._held_rows), so a model of
    game-form tables builds no cells."""
    rows, geo = _held_rows(model.eff, [0])
    return _row_relation(rows[:, 0], geo)


def is_standard(model: EnrichedLnModel) -> bool:
    return model.R == standard_relation(model)


def standardize(model: LnModel) -> EnrichedLnModel:
    return EnrichedLnModel(
        model.chain,
        model.states,
        model.eff,
        model.valuation,
        standard_relation(model),
    )


# -- axiom schemata ----------------------------------------------------------

_P = Prop(1)
_Q = Prop(2)


def _commutation(C: Coalition, ops, p: Formula) -> Formula:
    """[C] commutes with the doubling maps ops: ax1[C] for (odot,), ax2[C]
    for (oplus,) and B[C, i] for the term of tau_i."""
    return iff(Box(C, doubled(ops, p)), doubled(ops, Box(C, p)))


def _ax3(C: Coalition) -> Formula:
    return Neg(Box(C, Neg(Top())))


def _ax4(C1: Coalition, C2: Coalition, p: Formula, q: Formula) -> Formula:
    return Implies(meet(Box(C1, p), Box(C2, q)), Box(C1.union(C2), meet(p, q)))


def _ax5(k: int, p: Formula) -> Formula:
    return Implies(Box(Coalition.empty(k), p), Neg(Box(Coalition.grand(k), Neg(p))))


def pn_axioms(k: int, chain: Chain):
    """Named instances of the playable-logic axiom schemata for k players."""
    out = []
    for mask in range(1 << k):
        C = Coalition(mask, k)
        out.append((f"ax1[{C}]", _commutation(C, (TAU_ODOT,), _P)))
        out.append((f"ax2[{C}]", _commutation(C, (TAU_OPLUS,), _P)))
        out.append((f"ax3[{C}]", _ax3(C)))
    for m1 in range(1 << k):
        for m2 in range(1 << k):
            if not m1 & m2:
                C1, C2 = Coalition(m1, k), Coalition(m2, k)
                out.append((f"ax4[{C1},{C2}]", _ax4(C1, C2, _P, _Q)))
    out.append(("ax5", _ax5(k, _P)))
    return out


def b_family(k: int, chain: Chain):
    """The threshold-commutation schemata, one per coalition and index."""
    out = []
    for mask in range(1 << k):
        C = Coalition(mask, k)
        for i in range(1, chain.n + 1):
            out.append((f"B[{C},{i}]", _commutation(C, synthesize_tau_term(chain, i).ops, _P)))
    return out


def _ax7(C: Coalition, p: Formula) -> Formula:
    return iff(BoxO(p), Box(C, p))


def _ax8(C: Coalition, p: Formula, q: Formula) -> Formula:
    return Implies(Box(C, Implies(p, q)), Implies(Box(C, p), Box(C, q)))


def tpn_axioms(k: int, chain: Chain):
    empty = Coalition.empty(k)
    return [("ax6", BoxO(Top())), ("ax7", _ax7(empty, _P)), ("ax8", _ax8(empty, _P, _Q))]


def _doublings(phi: Formula):
    """(ops, base) such that phi == doubled(ops, base) and base is no
    doubling."""
    ops = []
    while True:
        match phi:
            case Implies(Neg(sub), other) if sub == other:  # oplus(sub, sub)
                ops.append(TAU_OPLUS)
            case Neg(Implies(sub, Neg(other))) if sub == other:  # odot(sub, sub)
                ops.append(TAU_ODOT)
            case _:
                return tuple(reversed(ops)), phi
        phi = sub


def _all_hold(verdicts) -> bool:
    return all(holds for holds, _ in verdicts)


def _correspondent(phi: Formula, k: int):
    """(masks, predicate): the rows the table predicate equivalent to the
    validity of phi reads, and that predicate, as a function of those rows
    of every state's table stacked, their geometry and the model, when phi
    is one of the instances below with coalitions of k players and bare
    propositions; None for any other formula.  The coalitions, propositions
    and doubling maps are read off phi, and phi counts only when the
    instance rebuilt from them is == phi.  The predicate of a K instance
    only implies its validity."""
    match phi:
        case Neg(Box(C, _)) if C.k == k and phi == _ax3(C):
            # E(C, 0) = 0: safety on row C
            return [C.mask], lambda rows, geo, model: _all_hold(_check_safety(rows, geo))
        case Implies(Box(_, Prop() as p), _) if phi == _ax5(k, p):
            # E({}, f) + E(N, ~f) <= n: regularity of the two-row stack of {}
            # and N, in which each row is the other's complement
            return [0, (1 << k) - 1], lambda rows, geo, model: _all_hold(_check_regular(rows, geo))
        case Implies(
            Neg(Implies(Implies(Neg(Box(C1, Prop() as p)), Neg(Box(C2, Prop() as q))), _)), _
        ) if (
            C1.k == C2.k == k and not C1.mask & C2.mask and p != q and phi == _ax4(C1, C2, p, q)
        ):
            # superadditivity on the pair (C1, C2) alone: as p and q vary
            # apart, every pair (f, g) of assessments is reached
            masks = [C1.mask, C2.mask, C1.mask | C2.mask]
            return masks, lambda rows, geo, model: superadditive_on_pair(rows, geo)
        case Neg(Implies(Implies(Box(C, sub), _), _)) if C.k == k:
            ops, p = _doublings(sub)
            if isinstance(p, Prop) and phi == _commutation(C, ops, p):
                # E(C, g(f)) = g(E(C, f)) for the doubling composite g: iff
                # is top exactly where its two sides are equal
                return [C.mask], lambda rows, geo, model: commutes_with_doublings(rows, geo, ops)
        case BoxO(Top()):
            # a min over no successors is n: valid on every enriched model
            return [], lambda rows, geo, model: isinstance(model, EnrichedLnModel)
        case Neg(Implies(Implies(BoxO(Prop() as p), Box(C, _)), _)) if (
            C.k == k and phi == _ax7(C, p)
        ):
            # E_u(C, f) = min over R(u) of f, as [O] reads it
            return [C.mask], lambda rows, geo, model: isinstance(model, EnrichedLnModel) and (
                _rows_are_minima(rows[:, 0], geo, model.R)
            )
        case Implies(Box(C, Implies(Prop() as p, Prop() as q)), _) if (
            C.k == k and phi == _ax8(C, p, q)
        ):
            # K holds for a row that is a min over a set of states, as [O]
            # is; that set can only be the v with E_u(C, not chi_v) = 0, so
            # the relation is read off the row itself
            return [C.mask], lambda rows, geo, model: _rows_are_minima(
                rows[:, 0], geo, _row_relation(rows[:, 0], geo)
            )
        case Implies(Box(C, Neg(Implies(Implies(Neg(Prop() as p), Neg(Prop() as q)), _))), _) if (
            C.k == k and p != q and phi == Implies(Box(C, meet(p, q)), Box(C, p))
        ):
            # the monotonicity rule's conclusion: as p and q vary apart,
            # every g <= f is f meet g, so this is outcome monotonicity of
            # row C
            return [C.mask], lambda rows, geo, model: _all_hold(_check_outcome_monotonic(rows, geo))
        case Box(C, Implies(Prop() as p, _)) if C.k == k and phi == Box(C, Implies(p, p)):
            # the necessitation rule's conclusion: p -> p is top, so this is
            # E(C, top) = n, liveness of row C
            return [C.mask], lambda rows, geo, model: _all_hold(_check_liveness(rows, geo))
    return None


def check_axiom_schema(model: LnModel, schema: Formula):
    """Validate one schema on one model, quantifying its variables.

    The schema's propositions play the role of schema variables; validity
    over every valuation of them is exactly schema validity on the model.

    Each instance of depth one below is decided by frame correspondence,
    one predicate on the tables of all states (Pauly 2002 for two values),
    when its coalitions have the model's k players and its propositions are
    bare, two distinct ones for ax4 and the monotonicity conclusion:

    - ax1[C], ax2[C], B[C, i], and [C] commuting with any composite g of
      the doubling maps: E(C, g(f)) = g(E(C, f));
    - ax3[C]: E(C, 0) = 0;
    - ax4[C1, C2]: superadditivity on that one pair, from its count;
    - ax5: E({}, f) + E(N, ~f) <= n, regularity on the pair ({}, N);
    - ax6, [O]1: the model is enriched;
    - ax7, [O]p <-> [C]p: the model is enriched and E_u(C, f) = min over
      R(u) of f at every state u;
    - ax8, K for [C]: E_u(C, f) = min over some set of states of f at
      every u, a condition that implies K but that K does not imply;
    - [C](p & q) -> [C]p, the monotonicity rule's conclusion: outcome
      monotonicity of row C;
    - [C](p -> p), the necessitation rule's conclusion: E(C, top) = n.

    Each predicate reads only the rows it names, on their Boolean skeletons
    where they are homogeneous in every table (tables._held_rows).  Where
    it holds the result is (True, None) and no valuation is enumerated.
    Every other formula, and every instance whose predicate fails or is
    over its own budget, is decided by is_valid over the (n+1)^(P*S)
    valuations, which also gives the witness (or raises DialectViolation
    for [O] on a model that is not enriched).
    """
    found = _correspondent(schema, model.k)
    if found is not None:
        masks, predicate = found
        try:
            if predicate(*_held_rows(model.eff, masks), model):
                return True, None
        except BudgetExceeded:
            pass  # the count is over its budget: the grid decides within its own
    return is_valid(model, schema)
