"""Chain-valued effectivity functions as explicit tables.

An EffFn stores one value for every (coalition, assessment) cell, with
assessments over the ordered outcome set encoded as base-(n+1) integers.
The cells are one read-only array of shape (2^k, (n+1)^S) in the narrowest
signed integer type that holds [-n, 2n] (int8 up to n = 63); the tuple view
`.table` is built only when asked for.

Each playability predicate is one array expression over a stack of tables
of one geometry, rows of shape (tables, 2^k, (n+1)^S), and every coalition
at once, laid out after the table axis in the order of its displayed
quantifiers, so a C-order argmax over one table's cells is that table's
first witness in that order.  Principality has a closed form: the only
possible generator is the set of coordinates that are top on every
assessment the empty coalition accepts.

Superadditivity, E(C1,f) meet E(C2,g) <= E(C1 | C2, f meet g) for disjoint
C1 and C2, is one exact count per coalition pair of the levels v and pairs
(f, g) with E(C1,f) meet E(C2,g) >= v > E(C1 | C2, f meet g).  Zeta
transforms (sums over the assessments above or below each one) and a Moebius
inverse turn that meet-convolution into sums of pointwise products, n
(n+1)^S cells per pair instead of (n+1)^(2S).  The witness is the first
failing pair's first failing (f, g) row-major, as a dense scan reports it:
one more transform counts the failing g of each row f, and a scan of the
first failing row gives g.  A table whose check would touch more than
_DENSE_CELL_BUDGET cells raises BudgetExceeded before any pair is built.

`check_playability_many` groups its tables by (n, k, S) and decides
homogeneity on each group's stack.  A homogeneous table commutes with both
doubling maps, hence with every cut tau_i, so it is the lift of its Boolean
skeleton and every predicate (built from <=, meet, negation and the
constants) has the same verdict on the table and on the 2^S-assessment
skeleton.  For n > 1 the battery therefore runs on the skeletons, gathered
for the whole stack at once; non-homogeneous tables and Boolean tables run
it on themselves.  Equal targets run the battery once, all targets of one
geometry in one stack, so a lift checked beside its skeleton costs only its
homogeneity check.  A predicate that fails on a skeleton runs again on the
full tables that own it, so its witness is the first failing dense cell.
Semi-playability is run only for a witness: when the full outcome
monotonicity, liveness, safety and superadditivity hold, so do their
proper-row and proper-union versions.  `check_playability(E)` is the stack
of one, with the same report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .chain import Chain
from .errors import (
    BadDocument,
    BudgetExceeded,
    InvalidInput,
    MveffError,
    NotHomogeneous,
    NotPlayableInput,
    NotTrulyPlayable,
    SynthesisBudgetExceeded,
    VerificationFailed,
    check_document,
    check_field,
)
from .formulas import Coalition

BOOL_CHAIN = Chain(1)

PROPERTY_NAMES = (
    "outcome_monotonic",
    "N_maximal",
    "regular",
    "superadditive",
    "coalition_monotonic",
    "homogeneous",
    "liveness",
    "safety",
    "principal",
)

PLAYABLE_PARTS = (
    "outcome_monotonic",
    "N_maximal",
    "superadditive",
    "homogeneous",
    "liveness",
    "safety",
)

# the predicates whose proper-row or proper-union versions make up
# semi-playability, in the order _check_semi_playable tries them
SEMI_PLAYABLE_PARTS = ("outcome_monotonic", "liveness", "safety", "superadditive")

# cells the superadditivity count multiplies at once, the transformed rows of
# a run of coalition pairs (one pair's at least)
_SCAN_CAP = 1 << 16

# assessments a transform contracts in one matrix product: the outcome
# coordinates go in blocks of at most this many assessments (one coordinate
# at least), so the transforms of a small table are one product each
_BLOCK_CAP = 64

# cells one superadditivity check may touch: the multiply-adds of its two
# transforms, and the products of every coalition pair at each level and
# assessment
_DENSE_CELL_BUDGET = 1 << 31


@lru_cache(maxsize=None)
def _value_dtype(n: int) -> np.dtype:
    """The narrowest signed integer type holding every value in [-n, 2n].

    Those bounds cover every intermediate computed from chain numerators
    here and in the formula evaluator: doubling a value, or an implication's
    n - a + b before it is clipped at n, reaches 2n.
    """
    return np.min_scalar_type(-(2 * n + 1))


def enumerate_assessments(n: int, size: int) -> Iterable[tuple[int, ...]]:
    """All numerator tuples over an outcome set of the given size, in
    canonical order (last coordinate fastest)."""
    return itertools.product(range(n + 1), repeat=size)


def encode_assessment(f: Sequence[int], n: int) -> int:
    idx = 0
    for v in f:
        idx = idx * (n + 1) + v
    return idx


class _Geometry:
    """Cached index arrays for assessments over a fixed (n, size)."""

    def __init__(self, n: int, size: int):
        self.n = n
        self.size = size
        self.count = (n + 1) ** size
        # every assessment in enumerate_assessments order, shared read-only
        self.tuples = np.indices((n + 1,) * size, dtype=np.int64).reshape(size, -1).T
        self.tuples.flags.writeable = False
        powers = (n + 1) ** np.arange(size - 1, -1, -1, dtype=np.int64)
        self.powers = powers
        self.neg_idx = (self.n - self.tuples) @ powers
        # dec_idx[j, fi]: fi with coordinate j lowered by one (cover pairs)
        self.dec_idx = np.arange(self.count) - powers[:, None] * (self.tuples.T > 0)
        self.on_top = self.tuples == n
        self.on_top.flags.writeable = False
        # double_idx[0] and [1]: each assessment's oplus and odot with
        # itself; minus double_shift and clipped to [0, n], 2x is either one
        self.double_idx = np.stack(
            (np.minimum(2 * self.tuples, n) @ powers, np.maximum(2 * self.tuples - n, 0) @ powers)
        )
        self.double_shift = np.array([[0], [n]], dtype=_value_dtype(n))
        # the idempotent assessments, which index a Boolean skeleton
        self.idempotent_idx = np.flatnonzero((self.tuples % n == 0).all(axis=1))
        # tau_bool_idx[i-1, fi]: the i/n-thresholded assessment, in base 2
        bool_powers = 2 ** np.arange(size - 1, -1, -1, dtype=np.int64)
        self.tau_bool_idx = np.stack(
            [(self.tuples >= i) @ bool_powers for i in range(1, n + 1)]
        )
        # the widths of the blocks of coordinates a transform contracts
        # together, first block first
        width = 1
        while (n + 1) ** (width + 1) <= _BLOCK_CAP:
            width += 1
        self.blocks = [width] * (size // width) + [size % width] * (size % width > 0)


@lru_cache(maxsize=None)
def _geometry(n: int, size: int) -> _Geometry:
    return _Geometry(n, size)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class PlayabilityReport:
    """Outcome of checking every playability predicate on one table."""

    properties: dict
    witnesses: dict
    semi_playable: bool
    playable: bool
    truly_playable: bool

    def to_doc(self) -> dict:
        return {
            "kind": "playability-report",
            "properties": dict(sorted(self.properties.items())),
            "witnesses": {k: list(v) for k, v in sorted(self.witnesses.items())},
            "semi_playable": self.semi_playable,
            "playable": self.playable,
            "truly_playable": self.truly_playable,
        }


class EffFn:
    """A total table P(N) x (chain^S) -> chain.

    rows()[mask, f_index] is the numerator of the value of the coalition
    with that bitmask at the encoded assessment; `table` is the same cells
    as a tuple of tuples of ints.  Instances are immutable and compare and
    hash by (chain, k, outcomes, cells).
    """

    __slots__ = ("chain", "k", "outcomes", "_rows", "_table", "_hash")

    def __init__(self, chain: Chain, k: int, outcomes, table):
        """table: nested sequences or an array of shape (2^k, (n+1)^S)."""
        outcomes = tuple(outcomes)
        if len(outcomes) < 1 or k < 2:
            raise InvalidInput("need at least 1 outcome and 2 players")
        try:
            rows = np.asarray(table)
        except ValueError:  # ragged rows
            rows = None
        if rows is None or rows.shape != (1 << k, (chain.n + 1) ** len(outcomes)):
            raise InvalidInput("table shape does not match (players, outcomes, chain)")
        if rows.dtype.kind not in "biu" or rows.min() < 0 or rows.max() > chain.n:
            raise InvalidInput("table entry outside the chain")
        rows = rows.astype(_value_dtype(chain.n))
        rows.flags.writeable = False
        for name, value in (
            ("chain", chain),
            ("k", k),
            ("outcomes", outcomes),
            ("_rows", rows),
            ("_table", None),
            ("_hash", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"EffFn is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (EffFn, (self.chain, self.k, self.outcomes, self._rows))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EffFn):
            return NotImplemented
        # equal chains, players and outcomes fix the shape and the dtype
        return (
            self.chain == other.chain
            and self.k == other.k
            and self.outcomes == other.outcomes
            and self._rows.tobytes() == other._rows.tobytes()
        )

    def __hash__(self):
        if self._hash is None:
            key = (self.chain, self.k, self.outcomes, self._rows.tobytes())
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self):
        return (
            f"EffFn(chain={self.chain!r}, k={self.k!r}, "
            f"outcomes={self.outcomes!r}, table={self.table!r})"
        )

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        if self._table is None:
            object.__setattr__(self, "_table", tuple(map(tuple, self._rows.tolist())))
        return self._table

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def num_outcomes(self) -> int:
        return len(self.outcomes)

    def geometry(self) -> _Geometry:
        return _geometry(self.n, self.num_outcomes)

    def rows(self) -> np.ndarray:
        """The cells, read-only, in _value_dtype(n)."""
        return self._rows

    def value_num(self, mask: int, f: Sequence[int]) -> int:
        return int(self._rows[mask, encode_assessment(f, self.n)])

    def coalitions(self) -> Iterable[Coalition]:
        return (Coalition(mask, self.k) for mask in range(1 << self.k))

    # -- documents ----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "kind": "effectivity",
            "n": self.n,
            "players": self.k,
            "outcomes": list(self.outcomes),
            "table": {
                str(Coalition(mask, self.k)): row
                for mask, row in enumerate(self._rows.tolist())
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EffFn":
        check_document(doc, ("effectivity",), ("n", "players", "outcomes", "table"))
        k = doc["players"]
        check_field(doc["n"], int, "n")
        check_field(k, int, "players")
        check_field(doc["outcomes"], list, "outcomes", str)
        check_field(doc["table"], dict, "table")
        if k < 2:
            raise BadDocument(f"players must be at least 2, got {k}")
        count = len(doc["table"])
        if count >> k != 1 or count != 1 << k:  # the shift first: no 1 << k for a huge k
            raise BadDocument(f"{k} players need 2^{k} coalition rows, not {count}")
        rows = {}
        for key, row in doc["table"].items():
            check_field(row, list, f"the row of {key}", int)
            coalition = Coalition.parse(key, k)
            if coalition is None:
                raise BadDocument(f"coalition key {key!r} is not N or {{i,j,...}}")
            if coalition.mask in rows:
                raise BadDocument(f"two coalition keys name {coalition}")
            rows[coalition.mask] = row
        return cls(
            chain=Chain(doc["n"]),
            k=k,
            outcomes=tuple(doc["outcomes"]),
            table=[rows[mask] for mask in range(1 << k)],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


# -- the playability battery -------------------------------------------------
#
# Every predicate takes a stack of tables of one geometry and returns one
# verdict per table: (holds, witness), or the MveffError its check raised,
# which the report of that table raises.


def _first(bad: np.ndarray) -> list | None:
    """Per table (leading index) of bad, the unravelled index of its first
    True cell over the other axes, or None; None when no table has one."""
    if not bad.any():
        return None
    if len(bad) == 1:
        return [_unravel(int(bad.argmax()), bad.shape[1:])]
    flat = bad.reshape(len(bad), -1)
    return [
        _unravel(hit, bad.shape[1:]) if flat[t, hit] else None
        for t, hit in enumerate(flat.argmax(axis=1).tolist())
    ]


def _unravel(index: int, shape: tuple) -> list:
    """The C-order coordinates of a flat index, as ints."""
    cell = []
    for size in reversed(shape):
        index, digit = divmod(index, size)
        cell.append(digit)
    return cell[::-1]


def _verdicts(bad: np.ndarray, witness) -> list:
    """(holds, witness) per table of bad; witness() turns the first failing
    cell's index into the reported witness."""
    if not bad.any():
        return [(True, None)] * len(bad)
    return [(True, None) if hit is None else (False, witness(*hit)) for hit in _first(bad)]


def _subset(rows: np.ndarray, idx: list) -> np.ndarray:
    """The tables idx (increasing) of a stack, not copied when that is all."""
    return rows if len(idx) == len(rows) else rows[idx]


def _disjoint_mask_pairs(k: int):
    full = (1 << k) - 1
    for c1 in range(1 << k):
        rest = full & ~c1
        c2 = rest
        while True:
            yield c1, c2
            if c2 == 0:
                break
            c2 = (c2 - 1) & rest


@lru_cache(maxsize=None)
def _pair_stack(k: int, proper_unions_only: bool):
    """The disjoint pairs in _disjoint_mask_pairs order, as three index
    arrays (first, second, union); optionally without the pairs whose
    union is the grand coalition."""
    full = (1 << k) - 1
    pairs = np.array(
        [
            pair
            for pair in _disjoint_mask_pairs(k)
            if not (proper_unions_only and pair[0] | pair[1] == full)
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    first, second = pairs.T
    return first, second, first | second


@lru_cache(maxsize=None)
def _cover_pairs(k: int):
    """(mask, mask with one more player) pairs, masks outermost, as two
    index arrays."""
    pairs = [
        (mask, mask | 1 << i)
        for mask in range(1 << k)
        for i in range(k)
        if not mask >> i & 1
    ]
    return tuple(np.array(side, dtype=np.int64) for side in zip(*pairs))


def _players(rows: np.ndarray) -> int:
    return rows.shape[1].bit_length() - 1


def _check_outcome_monotonic(rows, geo):
    # (tables, masks, coordinates, assessments)
    bad = rows[:, :, None, :] < rows.take(geo.dec_idx, axis=2)
    return _verdicts(bad, lambda mask, j, fi: (mask, fi, int(geo.dec_idx[j, fi])))


def _check_n_maximal(rows, geo):
    full = rows.shape[1] - 1
    bad = geo.n - rows[:, 0].take(geo.neg_idx, axis=1) > rows[:, full]
    return _verdicts(bad, lambda fi: (full, fi))


def _check_regular(rows, geo):
    # the complement of mask is full - mask, so complements run in reverse
    bad = rows > geo.n - rows[:, ::-1].take(geo.neg_idx, axis=2)
    return _verdicts(bad, lambda mask, fi: (mask, fi))


@lru_cache(maxsize=None)
def _block_matrices(n: int, width: int, kinds: tuple, dtype: type) -> np.ndarray:
    """Per kind, its matrix on width outcome coordinates, transposed to act
    from the right and stacked in dtype: the Kronecker power of its matrix
    on the n + 1 digits of one coordinate, the sum over the digits >= or <=
    each one, or the inverse of the latter.  uint64 wraps the -1 entries,
    so its products stay exact mod 2^64."""
    ones = np.ones((n + 1, n + 1), dtype=np.int64)
    chain = {
        "zeta_up": np.triu(ones),
        "zeta_down": np.tril(ones),
        "mobius_down": np.eye(n + 1, dtype=np.int64) - np.eye(n + 1, k=-1, dtype=np.int64),
    }
    stack = np.stack([reduce(np.kron, [chain[kind]] * width) for kind in kinds])
    return stack.transpose(0, 2, 1).astype(dtype)


def _transform(cells: np.ndarray, geo: _Geometry, kinds: tuple) -> np.ndarray:
    """kinds[w] applied to cells[w] over the assessments, (kinds, assessments,
    rest) to (kinds, rest, assessments): one matrix product per block of
    coordinates, from the first, each moving its block's digits to the back."""
    for width in geo.blocks:
        mats = _block_matrices(geo.n, width, kinds, cells.dtype.type)
        cells = cells.reshape(len(kinds), len(mats[0]), -1).transpose(0, 2, 1) @ mats
    return cells.reshape(len(kinds), -1, geo.count)


def _check_superadditive(rows, geo, proper_unions_only=False):
    """Superadditivity over the disjoint coalition pairs, optionally only
    those with a proper union, with each table's first failing (c1, c2, f,
    g) as witness.

    At each level v = 1..n let a(C, f) = [E(C, f) >= v], Z(C) the sum of a
    over the assessments >= h, and beta(C) the Moebius inverse of [E(C, h)
    < v] over the assessments <= h.  As h <= f meet g exactly when h <= f
    and h <= g, the sum over v and h of beta(c1 | c2, h) Z(c1, h) Z(c2, h)
    counts the (v, f, g) with E(c1, f) meet E(c2, g) >= v > E(c1 | c2, f
    meet g), and a pair holds exactly when that count is 0.  The transforms
    run in float64, exact as each partial sum is an integer of size at most
    (n+1)^S times the assessments of a block, under 2^28 within the budget;
    the count runs in uint64, where it is below n (n+1)^(2S) < 2^64, so its
    value mod 2^64 is exact.
    """
    k = _players(rows)
    pairs = 3**k - (1 << k if proper_unions_only else 0)
    length = geo.n * geo.count  # levels x assessments of one transformed row
    cost = (2 * rows.shape[1] * sum((geo.n + 1) ** c for c in geo.blocks) + pairs) * length
    if cost > _DENSE_CELL_BUDGET:
        over = f"superadditivity count of {cost} cells exceeds budget {_DENSE_CELL_BUDGET}"
        return [BudgetExceeded(over)] * len(rows)
    first, second, union = _pair_stack(k, proper_unions_only)
    # (assessments, masks, tables, levels)
    above = rows.T[..., None] >= np.arange(1, geo.n + 1, dtype=rows.dtype)
    cells = np.array((above, ~above), dtype=np.float64).reshape(2, geo.count, -1)
    cells = _transform(cells, geo, ("zeta_up", "mobius_down")).astype(np.int64)
    # (masks, tables, levels and assessments)
    up, beta = cells.view(np.uint64).reshape(2, rows.shape[1], len(rows), length)
    verdicts = [(True, None)] * len(rows)
    step = max(1, _SCAN_CAP // (length * len(rows)))
    for start in range(0, pairs, step):
        run = slice(start, start + step)
        product = up.take(first[run], axis=0) * up.take(second[run], axis=0)
        product *= beta.take(union[run], axis=0)
        counts = product.sum(axis=2).T
        if np.count_nonzero(counts):
            for t, hit in enumerate(_first(counts != 0)):
                if hit is not None and verdicts[t] == (True, None):
                    c1, c2 = int(first[start + hit[0]]), int(second[start + hit[0]])
                    verdicts[t] = _superadditivity_witness(
                        rows[t], geo, up[c2, t], beta[c1 | c2, t], c1, c2
                    )
            if (True, None) not in verdicts:
                break
    return verdicts


def _superadditivity_witness(table, geo, up, beta, c1, c2):
    """The verdict of one table whose pair (c1, c2) fails, with its first
    failing (f, g) row-major, from Z(c2) and beta(c1 | c2) of
    _check_superadditive.

    The sum of beta(c1 | c2) Z(c2) over the assessments <= f counts, per
    level v, the g with E(c2, g) >= v > E(c1 | c2, f meet g), so the first
    f with E(c1, f) >= v and a nonzero count at some level v is the witness
    row, and a scan of that row alone gives its first g.
    """
    cells = (beta * up).reshape(geo.n, geo.count).T[None]
    counts = _transform(cells, geo, ("zeta_down",))[0]
    above = table[c1] >= np.arange(1, geo.n + 1, dtype=table.dtype)[:, None]
    rows_hit = (above & (counts != 0)).any(axis=0)
    if rows_hit.any():
        f = int(rows_hit.argmax())
        meet = np.minimum(geo.tuples[f], geo.tuples) @ geo.powers
        bad = np.minimum(table[c1, f], table[c2]) > table[c1 | c2, meet]
        if bad.any():
            return False, (c1, c2, f, int(bad.argmax()))
    return VerificationFailed(
        f"the count fails the pair ({c1}, {c2}) and its witness row does not"
    )


def _check_coalition_monotonic(rows, geo):
    smaller, bigger = _cover_pairs(_players(rows))
    bad = rows.take(smaller, axis=1) > rows.take(bigger, axis=1)
    return _verdicts(bad, lambda p, fi: (int(smaller[p]), int(bigger[p]), fi))


def _check_homogeneous(rows, geo):
    # (tables, masks, oplus then odot, assessments)
    expected = np.minimum(np.maximum(2 * rows[:, :, None, :] - geo.double_shift, 0), geo.n)
    bad = rows.take(geo.double_idx, axis=2) != expected
    return _verdicts(bad, lambda mask, which, fi: (mask, fi, ("oplus", "odot")[which]))


def _check_liveness(rows, geo):
    top = geo.count - 1
    return _verdicts(rows[:, :, top] != geo.n, lambda mask: (mask, top))


def _check_safety(rows, geo):
    return _verdicts(rows[:, :, 0] != 0, lambda mask: (mask, 0))


def _forced_range(rows: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Per table, the mask of the outcomes top on every assessment its
    empty coalition accepts (all of them when it accepts none)."""
    return ~((rows[:, 0] == geo.n) @ ~geo.on_top)


def _check_principal(rows, geo):
    """Whether the empty coalition's accepted set is a principal upset.

    The n-fold odot power of any generator g is the characteristic vector
    of its top-valued coordinates, so candidates reduce to outcome subsets.
    A subset G generates the accepted set A only if every member of A is
    top on G, and the assessment that is top exactly on G is in A; so the
    one candidate is _forced_range (all outcomes when A is empty, whose
    upset holds the top assessment).
    """
    upset = ~(_forced_range(rows, geo) @ ~geo.on_top.T)
    holds = (upset == (rows[:, 0] == geo.n)).all(axis=1)
    return [(h, None) for h in holds.tolist()]


def _check_semi_playable(rows, geo):
    proper = rows[:, :-1]
    verdicts = [None] * len(rows)
    pending = list(range(len(rows)))
    for name, check in (
        ("outcome_monotonic", _check_outcome_monotonic),
        ("liveness", _check_liveness),
        ("safety", _check_safety),
    ):
        failed = False
        for t, (holds, witness) in zip(pending, check(_subset(proper, pending), geo)):
            if not holds:
                verdicts[t] = (False, (name,) + witness)
                failed = True
        if failed:
            pending = [t for t in pending if verdicts[t] is None]
            if not pending:
                return verdicts
    scanned = _check_superadditive(_subset(rows, pending), geo, proper_unions_only=True)
    for t, verdict in zip(pending, scanned):
        if isinstance(verdict, tuple) and not verdict[0]:
            verdict = (False, ("superadditive",) + verdict[1])
        verdicts[t] = verdict
    return verdicts


_CHECKS = {
    "outcome_monotonic": _check_outcome_monotonic,
    "N_maximal": _check_n_maximal,
    "regular": _check_regular,
    "superadditive": _check_superadditive,
    "coalition_monotonic": _check_coalition_monotonic,
    "homogeneous": _check_homogeneous,
    "liveness": _check_liveness,
    "safety": _check_safety,
    "principal": _check_principal,
    "semi_playable": _check_semi_playable,
}

# the predicates of a report, in the order a loop over tables runs them
_REPORT_ORDER = (*PROPERTY_NAMES, "semi_playable")


def _battery(rows, geo):
    """Every predicate but homogeneity on a stack of tables of one geometry:
    name -> one verdict per table."""
    found = {}
    for name in PROPERTY_NAMES:
        if name != "homogeneous":
            found[name] = _CHECKS[name](rows, geo)
    # the full predicates imply their proper-row and proper-union versions,
    # so semi-playability needs a run of its own only for a witness; a table
    # whose superadditivity check raised raises before it in a loop
    semi = found["semi_playable"] = [(True, None)] * len(rows)
    idx = [
        t
        for t, verdict in enumerate(found["superadditive"])
        if isinstance(verdict, tuple)
        and not all(found[name][t][0] for name in SEMI_PLAYABLE_PARTS)
    ]
    if idx:
        for t, verdict in zip(idx, _check_semi_playable(_subset(rows, idx), geo)):
            semi[t] = verdict
    return found


def _stack(arrays) -> np.ndarray:
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def check_property(E: EffFn, which: str) -> PropertyCheck:
    """Decide one playability predicate, with a witness cell on failure."""
    if which == "playable":
        report = check_playability(E)
        return PropertyCheck("playable", report.playable)
    if which == "truly_playable":
        report = check_playability(E)
        return PropertyCheck("truly_playable", report.truly_playable)
    if which not in _CHECKS:
        raise InvalidInput(f"unknown property {which!r}")
    verdict = _CHECKS[which](E.rows()[None], E.geometry())[0]
    if isinstance(verdict, MveffError):
        raise verdict
    return PropertyCheck(which, *verdict)


def check_playability(E: EffFn) -> PlayabilityReport:
    """Run every predicate and aggregate the playability verdicts."""
    return check_playability_many((E,))[0]


def check_playability_many(tables: Sequence[EffFn]) -> list[PlayabilityReport]:
    """The playability report of each table, checked as stacks of tables.

    Tables are grouped by (n, k, S), and homogeneity is decided on each
    group's stack.  A homogeneous table with n > 1 is checked on its Boolean
    skeleton, which gives the same verdicts; every other table on itself.
    Equal targets run the battery once, all targets of one geometry in one
    stack, and a predicate that fails on a skeleton runs again on the full
    tables that own it, for their witnesses.  Where checks raise, the call
    raises the error of the first such table in input order, as a loop over
    check_playability would.
    """
    own = [None] * len(tables)  # per table: its homogeneity and rerun verdicts
    place = [None] * len(tables)  # per table: (its target's verdicts, target index)
    targets = {}  # target geometry -> {target cells: (target rows, owners)}
    lifted = []  # the tables checked on their skeletons
    groups = {}
    for i, E in enumerate(tables):
        groups.setdefault((E.n, E.k, E.num_outcomes), []).append(i)
    for (n, k, size), idx in groups.items():
        geo = _geometry(n, size)
        rows = _stack([tables[i].rows() for i in idx])
        homogeneous = _check_homogeneous(rows, geo)
        skeletons = None
        for t, i in enumerate(idx):
            own[i] = {"homogeneous": homogeneous[t]}
            if n > 1 and homogeneous[t][0]:
                if skeletons is None:
                    skeletons = (rows.take(geo.idempotent_idx, axis=2) == n).view(
                        _value_dtype(BOOL_CHAIN.n)
                    )
                target, key = skeletons[t], (BOOL_CHAIN.n, k, size)
                lifted.append(i)
            else:
                target, key = rows[t], (n, k, size)
            unique = targets.setdefault(key, {})
            unique.setdefault(target.tobytes(), (target, []))[1].append(i)
    for (n, k, size), unique in targets.items():
        found = _battery(_stack([target for target, _ in unique.values()]), _geometry(n, size))
        for t, (_, owners) in enumerate(unique.values()):
            for i in owners:
                place[i] = found, t
    # a predicate that fails on a skeleton runs again on the full table, so
    # each witness is the first failing dense cell
    again = {}
    for i in lifted:
        found, t = place[i]
        for name, column in found.items():
            verdict = column[t]
            if isinstance(verdict, tuple) and verdict[1] is not None:
                again.setdefault((name, tables[i].n, tables[i].num_outcomes), []).append(i)
    for (name, n, size), idx in again.items():
        rows = _stack([tables[i].rows() for i in idx])
        for i, verdict in zip(idx, _CHECKS[name](rows, _geometry(n, size))):
            if isinstance(verdict, tuple) and verdict[1] is None:
                verdict = VerificationFailed(f"the skeleton fails {name} and the table does not")
            own[i][name] = verdict
    return [_report(own[i], *place[i]) for i in range(len(tables))]


def _report(own: dict, found: dict, t: int) -> PlayabilityReport:
    """The report of one table from its own verdicts and its target's; the
    first check in loop order that raised raises here."""
    properties, witnesses = {}, {}
    for name in _REPORT_ORDER:
        verdict = own[name] if name in own else found[name][t]
        if isinstance(verdict, MveffError):
            raise verdict
        properties[name], witness = verdict
        if witness is not None:
            witnesses[name] = witness
    semi = properties.pop("semi_playable")
    playable = all(properties[name] for name in PLAYABLE_PARTS)
    return PlayabilityReport(
        properties=properties,
        witnesses=witnesses,
        semi_playable=semi,
        playable=playable,
        truly_playable=playable and properties["principal"],
    )


# -- skeleton, lift, equality -----------------------------------------------


def boolean_skeleton(E: EffFn, strict: bool = True) -> EffFn:
    """Restriction of the table to idempotent assessments, as a two-valued table.

    A cell counts as accepted exactly when its value is the top element.  In
    strict mode any intermediate value on an idempotent assessment raises,
    since homogeneity rules those out; non-strict mode just thresholds.
    """
    if E.n == 1:
        return E
    idem = E.geometry().idempotent_idx
    values = E.rows().take(idem, axis=1)
    if strict:
        hits = _first(((values != 0) & (values != E.n))[None])
        if hits is not None:
            mask, j = hits[0]
            raise NotHomogeneous(
                f"skeleton cell (coalition {mask}, assessment {int(idem[j])}) "
                f"has value {int(values[mask, j])}/{E.n}"
            )
    return EffFn(chain=BOOL_CHAIN, k=E.k, outcomes=E.outcomes, table=values == E.n)


def lift_boolean(H: EffFn, chain: Chain, check_input: bool = True) -> EffFn:
    """The canonical chain-valued extension of a playable Boolean table.

    E(C, f) is the largest i/n whose thresholded assessment the Boolean
    table accepts; an empty index set gives 0.
    """
    if H.n != 1:
        raise InvalidInput("lift expects a Boolean (two-valued) table")
    if check_input and not check_playability(H).playable:
        raise NotPlayableInput("lift requires a playable Boolean table")
    if chain.n == 1:
        return H
    n = chain.n
    geo = _geometry(n, H.num_outcomes)
    levels = np.arange(1, n + 1, dtype=_value_dtype(n))[:, None]
    # (masks, i, assessments): i where tau_i(f) is accepted, else 0
    accepted = H.rows().take(geo.tau_bool_idx, axis=1)
    table = (accepted * levels).max(axis=1)
    return EffFn(chain=chain, k=H.k, outcomes=H.outcomes, table=table)


# -- game-form synthesis -----------------------------------------------------


def _strategy_shapes(k: int, budget: int):
    shapes = sorted(
        itertools.product(range(1, budget + 1), repeat=k),
        key=lambda shape: (int(np.prod(shape)), shape),
    )
    return shapes


def synthesize_game_form(E: EffFn, budget: int = 3):
    """Exhaustively search for a game form realizing the table.

    The search reduces the problem to the Boolean skeleton, restricts
    outcome maps to the forced range (the intersection of the empty
    coalition's accepted sets), and tries strategy shapes in increasing
    profile count.  The first Boolean match is verified against the full
    chain-valued table before being returned.
    """
    from .games import GameForm, effectivity_table

    report = check_playability(E)
    if not report.truly_playable:
        raise NotTrulyPlayable("synthesis requires a truly playable table")
    H = boolean_skeleton(E)
    targets = np.flatnonzero(_forced_range(H.rows()[None], H.geometry())[0]).tolist()
    if not targets:
        raise NotTrulyPlayable("empty forced range; the table violates safety")

    for shape in _strategy_shapes(H.k, budget):
        num_profiles = int(np.prod(shape))
        for outcome_map in itertools.product(targets, repeat=num_profiles):
            if set(outcome_map) != set(targets):
                continue  # the range of o must be exactly the forced set
            form = GameForm(
                strategy_counts=shape,
                outcomes=H.outcomes,
                outcome_map=outcome_map,
            )
            if effectivity_table(form, BOOL_CHAIN) == H:
                candidate = effectivity_table(form, E.chain)
                if candidate == E:
                    return form
    raise SynthesisBudgetExceeded(
        f"no realizing game form with per-player strategy counts <= {budget}"
    )
