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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .chain import Chain, TruthValue
from .errors import (
    BadDocument,
    BudgetExceeded,
    DialectViolation,
    InvalidInput,
    UnknownProposition,
    check_document,
    check_field,
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
    iff,
    meet,
    odot,
    oplus,
    propositions,
    subformulas,
    tau_formula,
)
from .tables import EffFn, _value_dtype

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
        if len(self.eff) != len(self.states):
            raise InvalidInput("need one effectivity table per state")
        for E in self.eff:
            if E.chain != chain or E.outcomes != self.states:
                raise InvalidInput("every table must share the model's chain and states")
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
        check_field(doc["states"], list, "states", str)
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


def _eval_nodes(nodes, n: int, assign: dict, model: LnModel | None = None) -> dict:
    """Value arrays of shape (states, *lead) for nodes listed children first.

    Each node is computed once from its children's arrays, held in
    _value_dtype(n).  A node in assign takes its array from there; any other
    proposition, [C] or [O] node is read from the model.  The lead axes are
    those of the assigned arrays (an open grid from _valuation_grid, none
    when nothing is assigned), and each node broadcasts over only the lead
    axes its children vary on.  Without a model there is a single state.
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
    for node in nodes:
        if node in assign:
            out = assign[node]
        elif isinstance(node, Top):
            out = np.full(const, n, dtype=dtype)
        elif isinstance(node, Prop):
            out = np.asarray(model.prop_row(node.index), dtype=dtype).reshape(const)
        elif isinstance(node, Neg):
            out = n - values[node.sub]
        elif isinstance(node, Implies):
            out = n - values[node.left] + values[node.right]
            top = tops.get(out.shape)
            if top is None:
                top = tops[out.shape] = np.full(out.shape, n, dtype=dtype)
            np.minimum(out, top, out=out)
        elif isinstance(node, Box):
            # the argument's assessment index per valuation, last state
            # fastest, in the narrowest signed type that holds (n+1)^size
            sub = values[node.sub]
            idx = np.zeros(sub.shape[1:], dtype=np.min_scalar_type(-1 - (n + 1) ** size))
            for j in range(size):
                idx *= n + 1
                idx += sub[j]
            mask = node.coalition.mask
            rows = np.stack([E.rows()[mask] for E in model.eff])
            out = np.take(rows, idx, axis=1)
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
    return values


def eval_vector(model: LnModel, phi: Formula) -> tuple[int, ...]:
    """Numerator of the value of phi at every state."""
    return tuple(_eval_nodes(subformulas(phi), model.n, {}, model)[phi].tolist())


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
    is allocated.
    """
    props = list(props)
    total = (n + 1) ** (len(props) * size)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate valuations exceed budget {budget}"
        )
    rows = np.indices((n + 1,) * size, dtype=_value_dtype(n)).reshape(size, -1)
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
    falsifying (valuation dict, state index) in enumeration order.
    """
    if prop_support is None:
        prop_support = propositions(phi)
    prop_support = list(prop_support)
    size = model.num_states
    arrays = _valuation_grid(model.n, size, prop_support, budget)
    assign = {Prop(p): arrays[p] for p in prop_support}
    bad = _eval_nodes(subformulas(phi), model.n, assign, model)[phi] < model.n
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


def standard_relation(model: LnModel) -> frozenset:
    """The relation induced by the empty coalition's effectivity."""
    n = model.n
    size = model.num_states
    pairs = set()
    for u in range(size):
        for v in range(size):
            neg_char = tuple(0 if j == v else n for j in range(size))
            if model.eff[u].value_num(0, neg_char) == 0:
                pairs.add((u, v))
    return frozenset(pairs)


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


def pn_axioms(k: int, chain: Chain):
    """Named instances of the playable-logic axiom schemata for k players."""
    out = []
    for mask in range(1 << k):
        C = Coalition(mask, k)
        out.append(
            (f"ax1[{C}]", iff(Box(C, odot(_P, _P)), odot(Box(C, _P), Box(C, _P))))
        )
        out.append(
            (f"ax2[{C}]", iff(Box(C, oplus(_P, _P)), oplus(Box(C, _P), Box(C, _P))))
        )
        out.append((f"ax3[{C}]", Neg(Box(C, Neg(Top())))))
    for m1 in range(1 << k):
        for m2 in range(1 << k):
            if m1 & m2:
                continue
            C1, C2 = Coalition(m1, k), Coalition(m2, k)
            out.append(
                (
                    f"ax4[{C1},{C2}]",
                    Implies(
                        meet(Box(C1, _P), Box(C2, _Q)),
                        Box(C1.union(C2), meet(_P, _Q)),
                    ),
                )
            )
    out.append(
        (
            "ax5",
            Implies(Box(Coalition.empty(k), _P), Neg(Box(Coalition.grand(k), Neg(_P)))),
        )
    )
    return out


def b_family(k: int, chain: Chain):
    """The threshold-commutation schemata, one per coalition and index."""
    out = []
    for mask in range(1 << k):
        C = Coalition(mask, k)
        for i in range(1, chain.n + 1):
            out.append(
                (
                    f"B[{C},{i}]",
                    iff(Box(C, tau_formula(i, chain, _P)), tau_formula(i, chain, Box(C, _P))),
                )
            )
    return out


def tpn_axioms(k: int, chain: Chain):
    empty = Coalition.empty(k)
    return [
        ("ax6", BoxO(Top())),
        ("ax7", iff(BoxO(_P), Box(empty, _P))),
        (
            "ax8",
            Implies(
                Box(empty, Implies(_P, _Q)),
                Implies(Box(empty, _P), Box(empty, _Q)),
            ),
        ),
    ]


def check_axiom_schema(model: LnModel, schema: Formula, budget=DEFAULT_VALUATION_BUDGET):
    """Validate one schema on one model, quantifying its variables.

    The schema's propositions play the role of schema variables; validity
    over every valuation of them is exactly schema validity on the model.
    """
    return is_valid(model, schema, propositions(schema), budget)
