"""Chain-valued effectivity functions as explicit tables.

An EffFn has one value for every (coalition, assessment) cell, with
assessments over the ordered outcome set encoded as base-(n+1) integers.
The cells are one read-only array of shape (2^k, (n+1)^S) in the narrowest
signed integer type that holds [-n, 2n] (int8 up to n = 63); the tuple view
`.table` is built only when asked for.  A homogeneous table is the lift of
its Boolean skeleton, its 2^k x 2^S cells on the idempotent assessments;
for n > 1 that skeleton is outcome-monotone, and the lift of an
outcome-monotone Boolean table is homogeneous.  One rule says how a table
is held, decided once when it is built: a table that is homogeneous and
outcome-monotone (for n > 1, every homogeneous table) holds its
generators, each row's minimal accepted outcome sets in increasing order,
outcome j at bit S - 1 - j, the index of the set's characteristic
assessment; any other table holds its cells.  EffFn() tests the cells it
is given and takes a homogeneous table's generators from its skeleton in
one pass (_minimal_sets); a game form's table, a lift, a filtration's
class table and a decided state's table are built from their generators
(_generated).  The skeleton (_upset_skeleton) and the cells (_lift_values)
of a table held as its generators are built from them on first use,
under DEFAULT_CELL_BUDGET, and kept.  One upset has one antichain of
minimal sets, so a table compares, hashes and pickles as its generators
or as its cells, whichever it holds, and prints as its cells, or as its
generators when its cells are over the budget.  E(C, f) of a table held
as its generators is the max over the row's generators g of the min of f
on g (value_num); the formula evaluator's [C] nodes and a filtration's
condition (2) read whole rows through _row_values: on the generators
when every table read holds them, building no skeleton and no cells,
else a gather of the cells.  The model layer reads generator rows
through _generator_rows and cell rows through _cell_rows.

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
(n+1)^S cells per pair instead of (n+1)^(2S).  One count of every pair gives
each table's first failing pair and its first failing pair with a proper
union.  The witness is a failing pair's first failing (f, g) row-major, as a
dense scan reports it: one more transform counts the failing g of each row
f, and a scan of the first failing row gives g.  A table whose check would
touch more than _DENSE_CELL_BUDGET cells raises BudgetExceeded before any
pair is built.

Semi-playability is outcome monotonicity, liveness and safety on the proper
coalitions and superadditivity on the pairs with a proper union.  It is read
from the full verdicts: the row predicates list their witnesses with masks
outermost and the grand coalition last, so one fails on a proper row exactly
when its first witness's mask is not the grand coalition's, and the
superadditivity count already holds the proper-union scope.

A table held as its generators is decided on them first (_generators_hold),
each distinct tuple of generator rows once per check: when liveness,
safety, principality, N-maximality and superadditivity hold there, every
predicate holds, with no witness.  Any other such table is decided on its
skeleton as below, so its witnesses and errors are those of its cells.

A homogeneous table commutes with both doubling maps, hence with every
cut tau_i, so it is the lift of its Boolean skeleton and every predicate
(built from <=, meet, negation and the constants) has the same verdict on
the table and on the 2^S-assessment skeleton, where homogeneity always
holds; so has each frame correspondence of models.check_axiom_schema,
which reads its rows on generators when every table holds them.  For n > 1
`check_playability_many` therefore runs the battery on the skeletons of
the tables held as generators that _generators_hold leaves undecided and
on the cells of the others.  Equal targets run the battery once, all
targets of one geometry in one stack, so a lift checked beside its
skeleton costs nothing more.  A table whose skeleton fails a predicate
runs that predicate again on its cells, all such tables of one geometry
in one stack, so each witness is the first failing dense cell.  The check
builds no other table's cells.  `check_playability(E)` is the stack of
one, with the same report, and `check_properties` runs that check once:
on every predicate when the named ones include playable or
truly_playable, which it reads off the report, and on the named
predicates alone otherwise.  _require runs it on only the predicates a
caller reads, such as a filtration's PLAYABLE_PARTS, and raises the
caller's error without building a report.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .chain import TAU_ODOT, TAU_OPLUS, Chain, TauTerm
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
    check_distinct,
    check_names,
)
from .formulas import Coalition
from .games import DEFAULT_CELL_BUDGET, GameForm, effectivity_table

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


def encode_assessments(values: np.ndarray, n: int) -> np.ndarray:
    """encode_assessment of every column of values, whose first axis runs
    over the outcomes, in the narrowest signed type that holds (n+1)^size:
    one product with the place values."""
    size = len(values)
    powers = (n + 1) ** np.arange(size - 1, -1, -1, dtype=np.int64)
    idx = powers @ values.reshape(size, -1)
    return idx.astype(np.min_scalar_type(-1 - (n + 1) ** size)).reshape(values.shape[1:])


def assessment_columns(n: int, size: int, dtype) -> np.ndarray:
    """Every assessment over size outcomes as one column of a (size,
    (n+1)^size) array in dtype, in enumerate_assessments order."""
    return np.indices((n + 1,) * size, dtype=dtype).reshape(size, -1)


class _Geometry:
    """Cached index arrays for assessments over a fixed (n, size)."""

    def __init__(self, n: int, size: int):
        self.n = n
        self.size = size
        self.count = (n + 1) ** size
        # every assessment in enumerate_assessments order, shared read-only
        self.tuples = assessment_columns(n, size, np.int64).T
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
        # the widths of the blocks of coordinates a transform contracts
        # together, first block first
        width = 1
        while (n + 1) ** (width + 1) <= _BLOCK_CAP:
            width += 1
        self.blocks = [width] * (size // width) + [size % width] * (size % width > 0)

    @cached_property
    def lift_cuts(self) -> tuple:
        """_lift_cuts of every assessment, built on first use, for the
        cells of a table held as its generators (EffFn._cells)."""
        return _lift_cuts(self.tuples.T, self.n)


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
    as a tuple of tuples of ints.  A table holds its generators exactly
    when it is homogeneous and outcome-monotone (for n > 1, when it is
    homogeneous), and its cells otherwise; its skeleton and cells are
    built from the generators on first use and kept.  Instances are
    immutable and compare, hash and pickle by (chain, k, outcomes) and what
    they hold.
    """

    __slots__ = ("chain", "k", "outcomes", "_gens", "_skeleton", "_rows", "_table", "_hash")

    def __init__(self, chain: Chain, k: int, outcomes, table):
        """table: nested sequences or an array of shape (2^k, (n+1)^S).
        Whether it holds its generators is decided here, once: for n > 1
        its homogeneity is tested, and the minimal sets of a homogeneous
        table's skeleton, or of a Boolean table, are taken when every row
        is outcome-monotone."""
        outcomes = tuple(outcomes)
        if len(outcomes) < 1 or k < 2:
            raise InvalidInput("need at least 1 outcome and 2 players")
        check_distinct(outcomes, "outcomes")
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
        skeleton = rows
        if chain.n > 1:
            geo, skeleton = _geometry(chain.n, len(outcomes)), None
            if _check_homogeneous(rows[None], geo)[0][0]:
                skeleton = _skeleton_cells(rows, geo)
                skeleton.flags.writeable = False
        gens = None if skeleton is None else _minimal_sets(skeleton)
        _hold(self, chain, k, outcomes, gens, skeleton, rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"EffFn is immutable; cannot set {name!r}")

    def __reduce__(self):
        if self._gens is not None:
            return (_generated, (self.chain, self.k, self.outcomes, self._gens))
        return (EffFn, (self.chain, self.k, self.outcomes, self._rows))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EffFn):
            return NotImplemented
        # equal chains, players and outcomes fix the shape and the dtype
        if (self.chain, self.k, self.outcomes) != (other.chain, other.k, other.outcomes):
            return False
        # one upset has one antichain of minimal sets, held in one order, and
        # a table holding them is their lift
        if self._gens is not None or other._gens is not None:
            return self._gens == other._gens
        return self._rows.tobytes() == other._rows.tobytes()

    def __hash__(self):
        if self._hash is None:
            held = self._rows.tobytes() if self._gens is None else self._gens
            object.__setattr__(self, "_hash", hash((self.chain, self.k, self.outcomes, held)))
        return self._hash

    def __repr__(self):
        try:
            table = self.table
        except BudgetExceeded:  # held as generators, with cells over the budget
            held = f"outcomes={self.outcomes!r} generators={self._gens!r}"
            return f"<EffFn chain={self.chain!r} k={self.k!r} {held}>"
        return (
            f"EffFn(chain={self.chain!r}, k={self.k!r}, "
            f"outcomes={self.outcomes!r}, table={table!r})"
        )

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        if self._table is None:
            object.__setattr__(self, "_table", tuple(map(tuple, self.rows().tolist())))
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
        """The cells, read-only, in _value_dtype(n); those of a table held
        as its generators are built on first use, under DEFAULT_CELL_BUDGET."""
        return self._cells(DEFAULT_CELL_BUDGET)

    def _cells(self, budget: int) -> np.ndarray:
        """The cells, kept once built.  A table held as its generators has
        its skeleton's values at every assessment (_lift_values), so its
        memory is linear in the cells.  Raises BudgetExceeded before
        anything is built when it has more than budget cells."""
        if self._rows is None:
            cells = (self.n + 1) ** self.num_outcomes << self.k
            if cells > budget:
                raise BudgetExceeded(f"{cells} lifted table cells exceed budget {budget}")
            rows = skeleton = self._held_skeleton(budget)  # no more cells than the table
            if self.n > BOOL_CHAIN.n:
                rows = _lift_values(skeleton, self.geometry().lift_cuts)
                rows.flags.writeable = False
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def _held_skeleton(self, budget: int = DEFAULT_CELL_BUDGET) -> np.ndarray:
        """The Boolean skeleton of a table held as its generators, built on
        first use (_upset_skeleton), under budget, and kept."""
        if self._skeleton is None:
            skeleton = _upset_skeleton(self._gens, self.num_outcomes, budget)
            object.__setattr__(self, "_skeleton", skeleton)
        return self._skeleton

    def value_num(self, mask: int, f: Sequence[int]) -> int:
        """The numerator of E(mask, f): its cell, or on a table held as its
        generators the max over the row's generators g of the min of f on
        g (n on the empty set, 0 when the row has none), building no
        skeleton."""
        if self._gens is None:
            return int(self.rows()[mask, encode_assessment(f, self.n)])
        top = self.num_outcomes - 1
        values = (
            min((int(v) for j, v in enumerate(f) if g >> top - j & 1), default=self.n)
            for g in self._gens[mask]
        )
        return max(values, default=0)

    # -- documents ----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "kind": "effectivity",
            "n": self.n,
            "players": self.k,
            "outcomes": list(self.outcomes),
            "table": {
                str(Coalition(mask, self.k)): row
                for mask, row in enumerate(self.rows().tolist())
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EffFn":
        check_document(doc, ("effectivity",), ("n", "players", "outcomes", "table"))
        k = doc["players"]
        check_field(doc["n"], int, "n")
        check_field(k, int, "players")
        check_names(doc["outcomes"], "outcomes")
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


def _hold(E: EffFn, chain, k, outcomes, gens, skeleton=None, rows=None) -> EffFn:
    """Set E's fields, in the order of EffFn.__slots__: its generators when
    it holds them, and its skeleton and cells when they are built (a
    Boolean table's skeleton is its cells)."""
    for name, value in zip(EffFn.__slots__, (chain, k, outcomes, gens, skeleton, rows, None, None)):
        object.__setattr__(E, name, value)
    return E


def _generated(chain: Chain, k: int, outcomes, rows) -> EffFn:
    """The lift of the Boolean table whose row C accepts the outcome sets
    that contain one of rows[C], outcome j at bit S - 1 - j, held as each
    row's minimal sets (_minimal): equal tables hold equal tuples.  That
    skeleton is outcome-monotone, so the lift is homogeneous; its skeleton
    and cells are built on first use."""
    gens = tuple(_minimal(row) for row in rows)
    return _hold(object.__new__(EffFn), chain, k, tuple(outcomes), gens)


def _minimal_sets(skeleton: np.ndarray):
    """Each row's minimal accepted sets of a Boolean skeleton (2^k, 2^S), in
    increasing order, the index of a set having outcome j at bit S - 1 - j;
    None when a row is not outcome-monotone.  One pass over the indices,
    one outcome at a time: a set is minimal when it is accepted and the set
    without any one of its outcomes is not."""
    rows, count = skeleton.shape
    cube = skeleton.astype(bool).reshape((rows,) + (2,) * (count.bit_length() - 1))
    minimal = cube.copy()
    for axis in range(1, cube.ndim):
        lead = (slice(None),) * axis
        without, within = cube[lead + (0,)], cube[lead + (1,)]
        if (without & ~within).any():
            return None
        minimal[lead + (1,)] &= ~without
    gens = [[] for _ in range(rows)]
    for c, x in zip(*(axis.tolist() for axis in np.nonzero(minimal.reshape(rows, count)))):
        gens[c].append(x)
    return tuple(map(tuple, gens))


def _minimal(sets) -> tuple:
    """The minimal sets among sets, in increasing order."""
    kept = []
    for g in sorted(set(sets)):  # a proper subset is a smaller int
        if all(h & ~g for h in kept):
            kept.append(g)
    return tuple(kept)


# per bit b < 6 of an index, the places of a uint64 word whose index has bit
# b clear: the superset closure moves them up by 2^b
_LOW_BITS = (
    0x5555555555555555,
    0x3333333333333333,
    0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF,
    0x0000FFFF0000FFFF,
    0x00000000FFFFFFFF,
)


def _upset_skeleton(gens, size: int, budget: int) -> np.ndarray:
    """The Boolean skeleton of generator rows, read-only, in
    _value_dtype(1): row C is 1 at each outcome set that contains one of
    gens[C].  Each row is 2^size bits, index x at bit x % 64 of word x //
    64, closed under supersets one outcome at a time: within the words
    for the low six bits of the index, across them for the others.  Raises
    BudgetExceeded before anything is built when its cells exceed budget."""
    cells = len(gens) << size
    if cells > budget:
        raise BudgetExceeded(f"{cells} skeleton cells exceed budget {budget}")
    words = np.zeros((len(gens), max(1, (1 << size) >> 6)), dtype="<u8")
    pairs = [(c, g) for c, sets in enumerate(gens) for g in sets]
    row, index = np.array(pairs, dtype=np.uint64).reshape(-1, 2).T
    place = (row.astype(np.intp), (index >> 6).astype(np.intp))
    np.bitwise_or.at(words, place, np.uint64(1) << (index & 63))
    for b in range(min(size, 6)):
        words |= (words & np.uint64(_LOW_BITS[b])) << np.uint64(1 << b)
    for b in range(6, size):
        halves = words.reshape(len(gens), -1, 2, 1 << (b - 6))
        halves[:, :, 1] |= halves[:, :, 0]
    skeleton = np.unpackbits(words.view(np.uint8), axis=1, count=1 << size, bitorder="little")
    skeleton = skeleton.view(_value_dtype(BOOL_CHAIN.n))
    skeleton.flags.writeable = False
    return skeleton


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


@lru_cache(maxsize=None)
def _pair_stack(k: int):
    """The disjoint coalition pairs, c1 increasing and then c2 decreasing
    over the submasks of the rest, as three index arrays (first, second,
    union)."""
    full, pairs = (1 << k) - 1, []
    for c1 in range(1 << k):
        c2 = rest = full & ~c1
        pairs.append((c1, c2))
        while c2:
            c2 = (c2 - 1) & rest
            pairs.append((c1, c2))
    first, second = np.array(pairs, dtype=np.int64).T
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


def _pair_counts(rows, geo, pairs=None):
    """Superadditivity's exact count on each (pair, table).  pairs is three
    index arrays (first, second, union) into the rows of each table, pair p
    being two disjoint coalitions and their union; None means every
    disjoint pair of the table's coalitions (_pair_stack), listed only once
    the budget is checked.

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

    Returns (up, beta, counts): Z and beta per (row, table), levels and
    assessments flat, and the counts per (pair, table).  Raises
    BudgetExceeded when the transforms of every row and the products of
    every pair would touch more than _DENSE_CELL_BUDGET cells.
    """
    length = geo.n * geo.count  # levels x assessments of one transformed row
    count = 3 ** _players(rows) if pairs is None else len(pairs[0])
    cost = (2 * rows.shape[1] * sum((geo.n + 1) ** c for c in geo.blocks) + count) * length
    if cost > _DENSE_CELL_BUDGET:
        raise BudgetExceeded(
            f"superadditivity count of {cost} cells exceeds budget {_DENSE_CELL_BUDGET}"
        )
    first, second, union = _pair_stack(_players(rows)) if pairs is None else pairs
    # (assessments, rows, tables, levels)
    above = rows.T[..., None] >= np.arange(1, geo.n + 1, dtype=rows.dtype)
    cells = np.array((above, ~above), dtype=np.float64).reshape(2, geo.count, -1)
    cells = _transform(cells, geo, ("zeta_up", "mobius_down")).astype(np.int64)
    # (rows, tables, levels and assessments)
    up, beta = cells.view(np.uint64).reshape(2, rows.shape[1], len(rows), length)
    # (pairs, tables), in runs of pairs that bound the product temporaries
    step = max(1, _SCAN_CAP // (length * len(rows)))
    counts = []
    for start in range(0, len(first), step):
        run = slice(start, start + step)
        product = up.take(first[run], axis=0) * up.take(second[run], axis=0)
        product *= beta.take(union[run], axis=0)
        counts.append(product.sum(axis=2))
    return up, beta, counts[0] if len(counts) == 1 else np.concatenate(counts)


def _count_pairs(rows, geo):
    """Superadditivity's count over the disjoint coalition pairs, read in
    both of its scopes: every pair, and the pairs with a proper union.

    Returns (hits, verdict): per table (p, q), the _pair_stack indices of
    its first failing pair and of its first failing pair with a proper
    union, None where there is none, and verdict(t, p), table t's verdict
    on pair p with its first failing (f, g), computed once per (t, p):
    (True, None) for p None, or the BudgetExceeded of an over-budget count.
    """
    try:
        up, beta, counts = _pair_counts(rows, geo)
    except BudgetExceeded as over:
        return [(None, None)] * len(rows), lambda t, p, over=over: over
    k = _players(rows)
    first, second, union = _pair_stack(k)
    if not np.count_nonzero(counts):
        return [(None, None)] * len(rows), lambda t, p: (True, None)

    @lru_cache(maxsize=None)
    def verdict(t, p):
        if p is None:
            return True, None
        c1, c2 = int(first[p]), int(second[p])
        return _superadditivity_witness(rows[t], geo, up[c2, t], beta[c1 | c2, t], c1, c2)

    bad = counts.T != 0
    scopes = _first(bad), _first(bad & (union != (1 << k) - 1)) or [None] * len(rows)
    return [tuple(hit and hit[0] for hit in pair) for pair in zip(*scopes)], verdict


def superadditive_on_pair(rows, geo) -> bool:
    """Whether every table of the stack is superadditive on the one
    disjoint pair its three rows are, in the order c1, c2, c1 | c2:
    _pair_counts on that pair.  Raises BudgetExceeded as that count does.
    """
    return not _pair_counts(rows, geo, tuple(np.array([i]) for i in range(3)))[2].any()


def _superadditivity_witness(table, geo, up, beta, c1, c2):
    """The verdict of one table whose pair (c1, c2) fails, with its first
    failing (f, g) row-major, from Z(c2) and beta(c1 | c2) of _pair_counts.

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
    if geo.n == BOOL_CHAIN.n:  # both doubling maps are the identity on {0, 1}
        return [(True, None)] * len(rows)
    # (tables, masks, oplus then odot, assessments)
    expected = np.minimum(np.maximum(2 * rows[:, :, None, :] - geo.double_shift, 0), geo.n)
    bad = rows.take(geo.double_idx, axis=2) != expected
    return _verdicts(bad, lambda mask, which, fi: (mask, fi, ("oplus", "odot")[which]))


def commutes_with_doublings(rows, geo, ops) -> bool:
    """Whether every row of the stack commutes with the composite g of the
    doubling maps ops, first applied first: E(C, g(f)) = g(E(C, f)).  g on
    assessments is composed from the index maps _check_homogeneous reads,
    and g on values is the TauTerm's table."""
    idx = np.arange(geo.count)
    for op in ops:
        idx = geo.double_idx[(TAU_OPLUS, TAU_ODOT).index(op)].take(idx)
    g = np.array(TauTerm(ops).table(Chain(geo.n)), dtype=rows.dtype)
    return np.array_equal(rows.take(idx, axis=-1), g.take(rows))


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


# the row predicates semi-playability reads, in the order it reads them
_SEMI_ROWS = ("outcome_monotonic", "liveness", "safety")


def _semi_playable(found, full, count) -> list:
    """Per table, semi-playability read from the full verdicts in found, as
    the module docstring says; full is the grand coalition's mask, and
    count() gives the stack's _count_pairs result, asked for only when some
    table passes the proper rows."""
    verdicts = [None] * len(found["safety"])
    for name in _SEMI_ROWS:
        for t, (holds, witness) in enumerate(found[name]):
            if not holds and witness[0] != full and verdicts[t] is None:
                verdicts[t] = (False, (name,) + witness)
    if None in verdicts:
        hits, verdict = count()
        for t, (_, q) in enumerate(hits):
            if verdicts[t] is None:
                scanned = verdicts[t] = verdict(t, q)
                if isinstance(scanned, tuple) and not scanned[0]:
                    verdicts[t] = (False, ("superadditive",) + scanned[1])
    return verdicts


# the row predicates, each one array expression over the stack
_CHECKS = {
    "outcome_monotonic": _check_outcome_monotonic,
    "N_maximal": _check_n_maximal,
    "regular": _check_regular,
    "coalition_monotonic": _check_coalition_monotonic,
    "homogeneous": _check_homogeneous,
    "liveness": _check_liveness,
    "safety": _check_safety,
    "principal": _check_principal,
}

# the predicates of a report, in the order a loop over tables runs them
_REPORT_ORDER = (*PROPERTY_NAMES, "semi_playable")


def _battery(rows, geo, names):
    """The named predicates of _REPORT_ORDER on a stack of tables of one
    geometry: name -> one verdict per table.  The superadditivity count
    runs only when superadditivity or semi-playability reads it, and one
    count answers both; semi-playability runs it only when some table
    passes the proper rows."""
    semi = "semi_playable" in names
    found = {
        name: check(rows, geo)
        for name, check in _CHECKS.items()
        if name in names or semi and name in _SEMI_ROWS
    }
    counted = None
    if "superadditive" in names:
        hits, verdict = counted = _count_pairs(rows, geo)
        found["superadditive"] = [verdict(t, p) for t, (p, _) in enumerate(hits)]
    if semi:
        found["semi_playable"] = _semi_playable(
            found, rows.shape[1] - 1, lambda: counted or _count_pairs(rows, geo)
        )
    return found


def _stack(arrays) -> np.ndarray:
    # np.array of a list of equal arrays is np.stack, in a third of the time
    # on the few small tables of a model
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def check_property(E: EffFn, which: str) -> PropertyCheck:
    """Decide one playability predicate, with a witness cell on failure."""
    return check_properties(E, (which,))[0]


def check_properties(E: EffFn, names: Sequence[str]) -> list[PropertyCheck]:
    """Decide the named playability predicates, each with a witness cell on
    failure, in the order named, from one _decide run: of every predicate
    when playable or truly_playable is named, whose report answers those
    two, else of the named predicates alone.  Raises the error of the first
    name in order that is unknown or whose check raised, for playable and
    truly_playable the report's first error, as check_playability does."""
    whole = "playable" in names or "truly_playable" in names
    found = _decide((E,), tuple(name for name in _REPORT_ORDER if whole or name in names))[0]
    checks, report = [], None
    for which in names:
        if which in ("playable", "truly_playable"):
            report = report or _report(found)
            checks.append(PropertyCheck(which, getattr(report, which)))
            continue
        if which not in _REPORT_ORDER:
            raise InvalidInput(f"unknown property {which!r}")
        verdict = found[which]
        if isinstance(verdict, MveffError):
            raise verdict
        checks.append(PropertyCheck(which, *verdict))
    return checks


def check_playability(E: EffFn) -> PlayabilityReport:
    """Run every predicate and aggregate the playability verdicts."""
    return check_playability_many((E,))[0]


def check_playability_many(tables: Sequence[EffFn]) -> list[PlayabilityReport]:
    """The playability report of each table, checked as stacks of tables
    (_decide).  Where checks raise, the call raises the error of the first
    such table in input order, as a loop over check_playability would."""
    return [_report(verdicts) for verdicts in _decide(tables, _REPORT_ORDER)]


def _decide(tables: Sequence[EffFn], names: Sequence[str]) -> list[dict]:
    """Per table, name -> verdict of each named predicate of _REPORT_ORDER.

    A table holds its generators exactly when it is homogeneous and
    outcome-monotone, and is decided on them first: each distinct tuple of
    them once, by _generators_hold, and when that holds, so does every
    predicate.  Else it is checked on its Boolean skeleton, built from
    them, and a table holding its cells on those.  Equal targets run
    the battery once, all targets of one geometry in one stack, and the
    tables with n > 1 whose skeleton fails a predicate run it again on
    their cells, all such tables of one geometry in one stack, for its
    first failing dense cell.
    """
    own = [{} for _ in tables]  # per table: its rerun verdicts
    place = [None] * len(tables)  # per table: (its target's verdicts, target index)
    targets = {}  # target geometry -> {target cells: (target rows, owners)}
    lifted = []  # the tables with n > 1 checked on their skeletons
    passing = {name: [(True, None)] for name in names}
    decided = {}  # generator rows -> whether every predicate holds on them
    for i, E in enumerate(tables):
        if E._gens is None:
            target, key = E.rows(), (E.n, E.k, E.num_outcomes)
        else:
            if E._gens not in decided:
                decided[E._gens] = _generators_hold(E._gens)
            if decided[E._gens]:
                place[i] = passing, 0
                continue
            target, key = E._held_skeleton(), (BOOL_CHAIN.n, E.k, E.num_outcomes)
            if E.n > 1:
                lifted.append(i)
        unique = targets.setdefault(key, {})
        unique.setdefault(target.tobytes(), (target, []))[1].append(i)
    for (n, _, size), unique in targets.items():
        stack = _stack([target for target, _ in unique.values()])
        found = _battery(stack, _geometry(n, size), names)
        for t, (_, owners) in enumerate(unique.values()):
            for i in owners:
                place[i] = found, t
    # a table whose skeleton fails a predicate runs it again, so each such
    # witness is the first failing dense cell
    failing, again = {}, {}
    for i in lifted:
        found, t = place[i]
        failed = [
            name
            for name in names
            if isinstance(found[name][t], tuple) and found[name][t][1] is not None
        ]
        if failed:
            failing[i] = failed
            again.setdefault((tables[i].k, tables[i].geometry()), []).append(i)
    for (_, geo), idx in again.items():
        rerun = tuple(name for name in names if any(name in failing[i] for i in idx))
        try:
            rows = _stack([tables[i].rows() for i in idx])
        except BudgetExceeded as over:  # a lift too large to hold has no dense witness
            found = dict.fromkeys(rerun, [over] * len(idx))
        else:
            found = _battery(rows, geo, rerun)
        for t, i in enumerate(idx):
            for name in failing[i]:
                verdict = found[name][t]
                if isinstance(verdict, tuple) and verdict[1] is None:
                    verdict = VerificationFailed(
                        f"the skeleton fails {name} and the table does not"
                    )
                own[i][name] = verdict
    return [
        {name: own[i][name] if name in own[i] else found[name][t] for name in names}
        for i, (found, t) in enumerate(place)
    ]


@lru_cache(maxsize=None)
def _disjoint_pairs(k: int) -> tuple:
    """The disjoint coalition pairs (c1, c2) with c1 < c2."""
    return tuple((c1, c2) for c2 in range(1 << k) for c1 in range(c2) if not c1 & c2)


def _generators_hold(gens) -> bool:
    """Whether every predicate holds on the table whose rows the generator
    rows gens generate, decided on them: liveness (no row is empty),
    safety (no generator is 0), principality (row 0 has one generator z),
    N-maximality (each outcome of z is a generator of the grand coalition)
    and superadditivity (for disjoint C1 and C2, each g1 & g2 contains a
    generator of C1 | C2, at once when it is one, as z & g is for each g
    inside z; the pair (0, 0) holds once row 0 is principal).  With
    liveness and safety, superadditivity gives regularity (C and its
    complement on A and not A) and coalition monotonicity (C and {i} on
    all outcomes); outcome monotonicity and homogeneity hold by
    construction.  False also when the pair work, the sum of |G1| |G2|
    |G1 | G2| over the pairs, exceeds _DENSE_CELL_BUDGET, and before the
    pairs are listed when the 3^k ordered ones, which the battery's count
    takes too, exceed it."""
    full = len(gens) - 1
    if () in gens or (0,) in gens or len(gens[0]) != 1:
        return False
    z = gens[0][0]
    if z & ~reduce(int.__or__, (g for g in gens[full] if not g & g - 1), 0):
        return False
    if 3 ** full.bit_length() > _DENSE_CELL_BUDGET:  # the pairs, listed in Python
        return False
    pairs = _disjoint_pairs(full.bit_length())
    work = sum(len(gens[c1]) * len(gens[c2]) * len(gens[c1 | c2]) for c1, c2 in pairs)
    if work > _DENSE_CELL_BUDGET:
        return False
    known = [set(row) for row in gens]
    return all(_pair_holds(gens[c1], gens[c2], gens[c1 | c2], known[c1 | c2]) for c1, c2 in pairs)


def superadditive_on_generators(rows) -> bool:
    """Whether every table is superadditive on the one disjoint pair its
    three generator rows are, in the order c1, c2, c1 | c2 (_pair_holds).
    Raises BudgetExceeded before any meet is taken when the work, the sum
    of |G1| |G2| |G1 | G2|, exceeds _DENSE_CELL_BUDGET, as _generators_hold
    bounds it."""
    work = sum(len(first) * len(second) * len(union) for first, second, union in rows)
    if work > _DENSE_CELL_BUDGET:
        raise BudgetExceeded(f"superadditivity work of {work} exceeds budget {_DENSE_CELL_BUDGET}")
    return all(_pair_holds(first, second, union, set(union)) for first, second, union in rows)


def _pair_holds(first, second, union, known) -> bool:
    """Superadditivity on one disjoint pair (C1, C2) of generator rows:
    each g1 & g2 contains a generator of union, the row of C1 | C2, at once
    when it is one of them, the set known."""
    for meet in {g1 & g2 for g1 in first for g2 in second}:
        if meet not in known and all(h & ~meet for h in union):
            return False
    return True


def _report(verdicts: dict) -> PlayabilityReport:
    """The report of one table from its verdicts; the first check in loop
    order that raised raises here."""
    properties, witnesses = {}, {}
    for name in _REPORT_ORDER:
        verdict = verdicts[name]
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


def _require(checks) -> None:
    """Raise unless, for each (tables, names, error) of checks, every table
    holds each named predicate; one _decide run decides every table on the
    names some check reads, and builds no report.  As a loop over
    check_playability would, the first table in order whose check of one of
    its names raised raises that error, the first in report order, as
    _report does; else the error of the first check that a table fails."""
    names = tuple(name for name in _REPORT_ORDER if any(name in own for _, own, _ in checks))
    found = iter(_decide([E for tables, _, _ in checks for E in tables], names))
    failed = None
    for tables, own, error in checks:
        for verdicts in itertools.islice(found, len(tables)):
            for name in names:
                if name in own and isinstance(verdicts[name], MveffError):
                    raise verdicts[name]
            if failed is None and not all(verdicts[name][0] for name in own):
                failed = error
    if failed is not None:
        raise failed


# -- skeleton, lift, equality -----------------------------------------------


def _skeleton_cells(rows: np.ndarray, geo: _Geometry) -> np.ndarray:
    """The Boolean skeleton of every row of rows, in _value_dtype(1): its
    cells on the idempotent assessments, 1 where top."""
    return (rows.take(geo.idempotent_idx, axis=-1) == geo.n).view(_value_dtype(BOOL_CHAIN.n))


def _generator_rows(tables: Sequence[EffFn], masks) -> list | None:
    """Per table, the tuple of its generator rows at masks, when every
    table holds its generators, so is homogeneous and outcome-monotone;
    None when some table holds its cells.  A homogeneous table commutes
    with every cut tau_i, so a predicate built from <=, meet, negation and
    the constants has the same verdict on the generators as on the cells."""
    if any(E._gens is None for E in tables):
        return None
    return [tuple(E._gens[mask] for mask in masks) for E in tables]


def _cell_rows(tables: Sequence[EffFn], masks) -> tuple:
    """(rows, geometry) of the rows masks of tables of one geometry, their
    cells stacked."""
    return _stack([E.rows()[masks] for E in tables]), tables[0].geometry()


def _lift_cuts(f: np.ndarray, n: int) -> tuple:
    """(levels, cuts) of a lift at the assessments f, numerators with the S
    outcomes on its first axis: the candidate levels stacked on a first
    axis, every level 1..n when n <= S, else the S values of f and n, as
    [f >= i] only changes at a value of f (and is empty above the largest);
    and per level the base-2 index of the cut [f >= level] at each
    assessment.  levels is in _value_dtype(n)."""
    lead = f.shape[1:]
    if n <= len(f):
        levels = np.arange(1, n + 1).reshape((n,) + (1,) * len(lead))
    else:
        levels = np.concatenate((f, np.full((1,) + lead, n)))
    levels = levels.astype(_value_dtype(n))
    cuts = encode_assessments(np.moveaxis(f[None] >= levels[:, None], 1, 0), BOOL_CHAIN.n)
    return levels, cuts


def _lift_values(skeleton: np.ndarray, cuts: tuple) -> np.ndarray:
    """The lift of each Boolean skeleton row at the assessments whose
    _lift_cuts are cuts: the largest level i <= n whose threshold cut
    [f >= i] the row accepts, 0 where it accepts none, from one gather of
    the skeleton at every candidate level's cut.  skeleton is (rows, 2^S)
    in {0, 1}; the values are (rows, *assessment shape) in _value_dtype(n).
    On an outcome-monotone skeleton, a held table's, the accepted levels
    are 1..E(C, f), so E(C, f) = #{i <= n : H(C, [f >= i]) = 1}."""
    levels, cut = cuts
    return (skeleton.take(cut, axis=1) * levels).max(axis=1)


def _row_values(tables: Sequence[EffFn], mask: int, f: np.ndarray) -> np.ndarray:
    """E(C, f) of the row mask of each of tables of one geometry at the
    assessments f, outcomes on its first axis: (tables, *f.shape[1:]) in
    _value_dtype(n).  When every table holds its generators, the max over
    the row's generators g of the min of f on g, as value_num reads one
    cell, building no skeleton and no cells: in Python for one assessment
    (_generator_values), else one generator at a time over the grid
    (_generator_grid).  Else one gather of the cells at f's index."""
    n = tables[0].n
    held = _generator_rows(tables, (mask,))
    if held is None:
        return _cell_rows(tables, mask)[0].take(encode_assessments(f, n), axis=1)
    rows = [gens for (gens,) in held]
    if f.ndim == 1:
        return np.array(_generator_values(rows, f.tolist(), n), dtype=_value_dtype(n))
    return _generator_grid(rows, f, n)


def _generator_values(rows, f: list, n: int) -> list:
    """Per generator row, the max over its generators g of the min of the
    numerators f on g (n on the empty set), 0 for a row with none: the
    largest level v, a value of f or n, whose cut [f >= v] contains a
    generator, the levels tried from the top."""
    size = len(f)
    cuts = {n: 0}  # value -> the outcomes f takes it at
    for j, v in enumerate(f):
        cuts[v] = cuts.get(v, 0) | 1 << size - 1 - j
    levels, inside = [], 0  # (v, the outcomes outside [f >= v]), v > 0
    for v in sorted(cuts, reverse=True):
        inside |= cuts[v]
        if v:
            levels.append((v, ~inside))
    return [next((v for v, outside in levels if any(not g & outside for g in gens)), 0) for gens in rows]


def _generator_grid(rows, f: np.ndarray, n: int) -> np.ndarray:
    """_generator_values of each generator row at every assessment of f,
    outcomes on its first axis: the running max over the row's generators
    of the min of f over each one's outcomes, one generator at a time,
    each distinct generator's min taken once."""
    size = len(f)
    out = np.zeros((len(rows),) + f.shape[1:], dtype=_value_dtype(n))
    mins = {}
    for t, gens in enumerate(rows):
        for g in gens:
            if g not in mins:
                members = [f[j] for j in range(size) if g >> size - 1 - j & 1]
                mins[g] = reduce(np.minimum, members) if members else n
            np.maximum(out[t], mins[g], out=out[t])
    return out


def boolean_skeleton(E: EffFn) -> EffFn:
    """Restriction of the table to idempotent assessments, as a two-valued table.

    A cell counts as accepted exactly when its value is the top element.
    Any intermediate value on an idempotent assessment raises
    NotHomogeneous, since homogeneity rules those out.  A table held as
    its generators returns the Boolean table of those generators.
    """
    if E.n == 1:
        return E
    if E._gens is not None:  # a Boolean table's skeleton is its cells
        skeleton = E._skeleton
        return _hold(object.__new__(EffFn), BOOL_CHAIN, E.k, E.outcomes, E._gens, skeleton, skeleton)
    geo = E.geometry()
    values = E.rows().take(geo.idempotent_idx, axis=1)
    hits = _first(((values != 0) & (values != E.n))[None])
    if hits is not None:
        mask, j = hits[0]
        raise NotHomogeneous(
            f"skeleton cell (coalition {mask}, assessment {int(geo.idempotent_idx[j])}) "
            f"has value {int(values[mask, j])}/{E.n}"
        )
    return EffFn(BOOL_CHAIN, E.k, E.outcomes, _skeleton_cells(E.rows(), geo))


def lift_boolean(H: EffFn, chain: Chain) -> EffFn:
    """The canonical chain-valued extension of a playable Boolean table.

    E(C, f) is the largest i/n whose thresholded assessment the Boolean
    table accepts; an empty index set gives 0.  A playable table is
    outcome-monotone, so it holds its generators and its lift is
    homogeneous: the lift holds the same generators, built at once at any
    size, and its cells are built on first use (EffFn.rows), where a lift
    of more than DEFAULT_CELL_BUDGET cells, the effectivity table's budget,
    raises BudgetExceeded.  Raises NotPlayableInput when H is not playable.
    """
    if H.n != 1:
        raise InvalidInput("lift expects a Boolean (two-valued) table")
    _require((((H,), PLAYABLE_PARTS, NotPlayableInput("lift requires a playable Boolean table")),))
    if chain.n == 1:
        return H
    return _hold(object.__new__(EffFn), chain, H.k, H.outcomes, H._gens, H._skeleton)


# -- game-form synthesis -----------------------------------------------------


def game_form_maps(k: int, budget: int, outcomes: Sequence):
    """Every (strategy counts, outcome map) of k players with at most budget
    strategies each: strategy counts by increasing profile count and then
    in order, and within one the outcome maps over outcomes in lexicographic
    order.  The strategy counts are generated as they are reached, so the
    first form costs no more than its own.  Raises BudgetExceeded before any
    strategy counts are built when there are more than DEFAULT_CELL_BUDGET
    of them."""
    if budget**k > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"{budget}^{k} strategy counts exceed budget {DEFAULT_CELL_BUDGET}")
    # a heap of (profile count, strategy counts) pops them in order, and
    # each is pushed by one parent: itself with its last count above 1
    # lowered by one, so counts are raised at or after that place only
    heap = [(1, (1,) * k)] if budget > 0 else []
    while heap:
        count, shape = heapq.heappop(heap)
        for outcome_map in itertools.product(outcomes, repeat=count):
            yield shape, outcome_map
        last = max((i for i, s in enumerate(shape) if s > 1), default=0)
        for i in range(last, k):
            if shape[i] < budget:
                raised = shape[:i] + (shape[i] + 1,) + shape[i + 1 :]
                heapq.heappush(heap, (count // shape[i] * (shape[i] + 1), raised))


def synthesize_game_form(E: EffFn, budget: int = 3):
    """Exhaustively search for a game form realizing the table.

    A truly playable table is homogeneous and outcome-monotone, so it
    holds its generators, and its empty coalition's row has one, the forced
    range z, which safety makes nonempty.  The search restricts outcome
    maps to z and to maps onto all of it, and tries the game forms of
    game_form_maps in its order; a form matches when its table, also held
    as generators, has E's.  Raises SynthesisBudgetExceeded when no form
    within the budget matches, and BudgetExceeded when budget^k strategy
    counts are too many to try.
    """
    if not check_playability(E).truly_playable:
        raise NotTrulyPlayable("synthesis requires a truly playable table")
    z, top = E._gens[0][0], E.num_outcomes - 1
    targets = [j for j in range(E.num_outcomes) if z >> top - j & 1]
    for shape, outcome_map in game_form_maps(E.k, budget, targets):
        if set(outcome_map) != set(targets):
            continue  # the range of o must be exactly the forced set
        form = GameForm(strategy_counts=shape, outcomes=E.outcomes, outcome_map=outcome_map)
        if effectivity_table(form, E.chain) == E:
            return form
    raise SynthesisBudgetExceeded(
        f"no realizing game form with per-player strategy counts <= {budget}"
    )
