"""Chain-valued effectivity functions as explicit tables.

An EffFn stores one value for every (coalition, assessment) cell, with
assessments over the ordered outcome set encoded as base-(n+1) integers.
The cells are one read-only array of shape (2^k, (n+1)^S) in the narrowest
signed integer type that holds [-n, 2n] (int8 up to n = 63); the tuple view
`.table` is built only when asked for.

Each playability predicate is one array expression over every coalition
at once, laid out in the order of its displayed quantifiers, so a C-order
argmax of the failing cells is the first witness in that order.
Principality has a closed form: the only possible generator is the set of
coordinates that are top on every assessment the empty coalition accepts.

Superadditivity, E(C1,f) meet E(C2,g) <= E(C1 | C2, f meet g) for disjoint
C1 and C2, is decided on coordinate splits: (2n+1)^S triples (f, g, f meet
g) per coalition pair, each coordinate top on both sides or given to one of
f and g, instead of (n+1)^(2S) cells (f, g).  That is exact on
outcome-monotone rows, and any other row adds strips through the cells that
exceed its monotone minorant.  Pairs run in order up to the first that
fails, whose witness comes from a dense scan of that pair alone, so every
witness is the first failing (c1, c2, f, g) of a dense scan.  A check
larger than _DENSE_CELL_BUDGET cells raises BudgetExceeded.

`check_playability` first decides homogeneity on the full table.  A
homogeneous table commutes with both doubling maps, hence with every cut
tau_i, so it is the lift of its Boolean skeleton and every predicate (built
from <=, meet, negation and the constants) has the same verdict on the table
and on the 2^S-assessment skeleton.  For n > 1 the battery therefore runs on
the skeleton; a predicate that fails there runs again on the full table, so
its witness is the first failing dense cell.  Non-homogeneous tables and
Boolean tables run the battery on the full table.  Semi-playability is run
only for a witness: when the full outcome monotonicity, liveness, safety and
superadditivity hold, so do their proper-row and proper-union versions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from .chain import Chain
from .errors import (
    BadDocument,
    BudgetExceeded,
    InvalidInput,
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

# cells of a meet index that is built whole and kept; a larger one is built
# row by row as a scan needs it
_MEET_MATRIX_CAP = 1 << 22

# cells the superadditivity scan compares at once, split triples of a run of
# coalition pairs or strip rows (one pair's or one row's at least): a step
# and its same-sized temporaries stay under a few hundred KB, so the scan
# does not raise the peak memory of large tables
_SCAN_CAP = 1 << 16

# cells one superadditivity check may compare: split and strip cells of
# every pair, and (n+1)^(2S) for the dense scan of a failing pair
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

        # split triples: 2n + 1 choices of (f_j, g_j, h_j) per coordinate
        self.split_count = (2 * n + 1) ** size

        self._meet_idx = None
        self._splits = None

    def meet_all(self) -> np.ndarray:
        """The whole meet index, built once and kept."""
        if self._meet_idx is None:
            self._meet_idx = self._meet_rows(np.arange(self.count))
        return self._meet_idx

    def meet_rows(self, idx: np.ndarray) -> np.ndarray:
        """Meet index of the assessments idx against every assessment."""
        if self.count * self.count <= _MEET_MATRIX_CAP:
            return self.meet_all()[idx]
        return self._meet_rows(idx)

    def _meet_rows(self, idx: np.ndarray) -> np.ndarray:
        """Meet index of the assessments idx against every assessment.

        Meets act digit by digit, so with an index split into leading and
        trailing digits, idx = hi * L + lo, the meet index is the sum of the
        two halves' meet indices, the leading one scaled by L.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if self.size == 1:
            return np.minimum.outer(idx, np.arange(self.count, dtype=np.int64))
        high = _geometry(self.n, self.size // 2)
        low = _geometry(self.n, self.size - self.size // 2)
        hi = high.meet_all()[idx // low.count] * low.count
        lo = low.meet_all()[idx % low.count]
        return (hi[:, :, None] + lo[:, None, :]).reshape(len(idx), self.count)

    def splits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The split triples as index arrays (f, g, h), built once and kept.

        On each coordinate j either f_j = g_j = h_j = n, or h_j < n and one
        of f, g takes h_j there while the other takes n; so f meet g = h,
        and every (f, g) lies below the triple of its own meet that gives
        each coordinate to the smaller side.  The indices are held in the
        narrowest unsigned type that covers count.
        """
        if self._splits is None:
            n = self.n
            below, top = np.arange(n), np.full(n, n)
            options = np.array(
                [np.r_[below, top, n], np.r_[top, below, n], np.r_[below, below, n]]
            )
            triples = np.zeros((3, 1), dtype=np.int64)
            for _ in range(self.size):
                triples = (triples[:, :, None] * (n + 1) + options[:, None, :]).reshape(3, -1)
            triples = triples.astype(np.min_scalar_type(self.count - 1))
            triples.flags.writeable = False
            self._splits = tuple(triples)
        return self._splits

    def split_blocks(self, cap: int):
        """The split triples in blocks of at most cap triples.

        Triples that fit, or that have one coordinate, are the cached
        splits(), as one block.  Larger sets are never held whole: as in
        _meet_rows, a triple over leading and trailing digits is a leading
        triple scaled by the trailing count plus a trailing triple, and a
        block pairs a run of leading triples with every trailing one.
        """
        if self.split_count <= cap or self.size == 1:
            yield self.splits()
            return
        tail = 1
        while (2 * self.n + 1) ** (tail + 1) <= cap:
            tail += 1
        high = _geometry(self.n, self.size - tail).splits()
        low = _geometry(self.n, tail)
        step = max(1, cap // low.split_count)
        for start in range(0, len(high[0]), step):
            yield tuple(
                (h[start : start + step, None].astype(np.int64) * low.count + l).ravel()
                for h, l in zip(high, low.splits())
            )


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


# -- individual property checks ---------------------------------------------
#
# Each check stacks its comparisons in the order of its quantifiers (masks
# outermost) and reads the first failing cell with a C-order argmax.


def _first(bad: np.ndarray):
    """Unravelled index of the first True cell of bad, or None."""
    hit = int(bad.argmax())
    if not bad.flat[hit]:
        return None
    return np.unravel_index(hit, bad.shape)


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


def _rows(E: EffFn, proper: bool) -> np.ndarray:
    """The table's rows, without the grand coalition's (the last) if proper."""
    return E.rows()[:-1] if proper else E.rows()


def _check_outcome_monotonic(E: EffFn, proper=False):
    geo = E.geometry()
    rows = _rows(E, proper)
    # (masks, coordinates, assessments)
    hit = _first(rows[:, None, :] < rows.take(geo.dec_idx, axis=1))
    if hit is None:
        return True, None
    mask, j, fi = hit
    return False, (int(mask), int(fi), int(geo.dec_idx[j, fi]))


def _check_n_maximal(E: EffFn):
    geo = E.geometry()
    rows = E.rows()
    full = (1 << E.k) - 1
    hit = _first(E.n - rows[0].take(geo.neg_idx) > rows[full])
    if hit is None:
        return True, None
    return False, (full, int(hit[0]))


def _check_regular(E: EffFn):
    geo = E.geometry()
    rows = E.rows()
    # the complement of mask is full - mask, so complements run in reverse
    hit = _first(rows > E.n - rows[::-1].take(geo.neg_idx, axis=1))
    if hit is None:
        return True, None
    return False, (int(hit[0]), int(hit[1]))


def _monotone_minorant(rows: np.ndarray, geo: _Geometry) -> np.ndarray:
    """m(C, f), the least E(C, f') over f' >= f: the largest outcome-monotone
    table below rows, one suffix-minimum pass per outcome coordinate."""
    low = rows.copy()
    for j in range(geo.size):
        # (masks, leading digits, digit j, trailing digits)
        view = low.reshape(len(rows), -1, geo.n + 1, (geo.n + 1) ** (geo.size - 1 - j))
        for d in range(geo.n - 1, -1, -1):
            np.minimum(view[:, :, d], view[:, :, d + 1], out=view[:, :, d])
    return low


def _first_failing_row(rows, geo, own, other, cells):
    """First (f, g), f among cells in their order and then g row-major, with
    E(own,f) meet E(other,g) above E(own | other, f meet g), or None.

    The rows are compared in blocks of at most _SCAN_CAP cells.  Meet and
    min are symmetric, so with own and other swapped this scans the columns
    g in cells of the pair (other, own).
    """
    union = rows[own | other]
    step = max(1, _SCAN_CAP // geo.count)
    for start in range(0, len(cells), step):
        f = cells[start : start + step]
        lhs = np.minimum(rows[own, f][:, None], rows[other])
        hit = _first(lhs > union.take(geo.meet_rows(f)))
        if hit is not None:
            return int(f[hit[0]]), int(hit[1])
    return None


def _failing_pair(rows, excess, geo, first, second, union):
    """Index of the first pair with E(c1,f) meet E(c2,g) above
    E(c1 | c2, f meet g) for some (f, g), or None.

    excess marks the cells above their row's monotone minorant m (None:
    none).  A pair holds exactly when it holds on the split triples and on
    its strips, the rows of c1's excess cells and the columns of c2's: an
    (f, g) with neither cell excess lies below a split triple (f', g') with
    E(c1,f) = m(c1,f) <= m(c1,f') <= E(c1,f'), and likewise for g.  Each
    block of split triples is gathered once for every row, then compared
    pair run by pair run, up to the first pair known to fail: the pairs
    behind it are never compared again.
    """
    stop = len(first)
    for fi, gi, hi in geo.split_blocks(max(1, _SCAN_CAP // len(rows))):
        rf, rg, rh = rows.take(fi, axis=1), rows.take(gi, axis=1), rows.take(hi, axis=1)
        step = max(1, _SCAN_CAP // len(fi))
        for start in range(0, stop, step):
            run = slice(start, min(start + step, stop))
            lhs = np.minimum(rf.take(first[run], axis=0), rg.take(second[run], axis=0))
            failed = (lhs > rh.take(union[run], axis=0)).any(axis=1)
            if failed.any():
                stop = start + int(failed.argmax())
                break
    if excess is not None:
        has_excess = excess.any(axis=1)
        stripped = has_excess[first[:stop]] | has_excess[second[:stop]]
        for p in np.flatnonzero(stripped).tolist():
            c1, c2 = int(first[p]), int(second[p])
            for own, other in ((c1, c2), (c2, c1)):
                cells = np.flatnonzero(excess[own])
                if _first_failing_row(rows, geo, own, other, cells) is not None:
                    return p
    return stop if stop < len(first) else None


def _check_budget(cells: int):
    if cells > _DENSE_CELL_BUDGET:
        raise BudgetExceeded(
            f"superadditivity scan of {cells} cells exceeds budget {_DENSE_CELL_BUDGET}"
        )


def _check_superadditive(E: EffFn, proper_unions_only=False, monotone=False):
    """Superadditivity over the disjoint coalition pairs, optionally only
    those with a proper union, with the first failing (c1, c2, f, g) as
    witness.

    monotone says that the rows a pair can take as c1 or c2 are known to be
    outcome-monotone, so no minorant is built and there are no strips.  The
    budget is checked on the split and strip cells of every pair before the
    scan, and again with the dense cells of a failing pair.
    """
    geo = E.geometry()
    rows = E.rows()
    first, second, union = _pair_stack(E.k, proper_unions_only)
    excess = None if monotone else rows > _monotone_minorant(rows, geo)
    cells = len(first) * geo.split_count
    if excess is not None:
        per_row = excess.sum(axis=1)
        if per_row.any():
            cells += int(per_row[first].sum() + per_row[second].sum()) * geo.count
        else:
            excess = None
    _check_budget(cells)
    p = _failing_pair(rows, excess, geo, first, second, union)
    if p is None:
        return True, None
    _check_budget(cells + geo.count * geo.count)
    c1, c2 = int(first[p]), int(second[p])
    witness = _first_failing_row(rows, geo, c1, c2, np.arange(geo.count))
    if witness is None:
        raise VerificationFailed(
            f"the split scan fails the pair ({c1}, {c2}) and the dense scan does not"
        )
    return False, (c1, c2) + witness


def _check_coalition_monotonic(E: EffFn):
    rows = E.rows()
    smaller, bigger = _cover_pairs(E.k)
    hit = _first(rows.take(smaller, axis=0) > rows.take(bigger, axis=0))
    if hit is None:
        return True, None
    p, fi = hit
    return False, (int(smaller[p]), int(bigger[p]), int(fi))


def _check_homogeneous(E: EffFn):
    geo = E.geometry()
    rows = E.rows()
    # (masks, oplus then odot, assessments)
    expected = np.minimum(np.maximum(2 * rows[:, None, :] - geo.double_shift, 0), E.n)
    hit = _first(rows.take(geo.double_idx, axis=1) != expected)
    if hit is None:
        return True, None
    mask, which, fi = hit
    return False, (int(mask), int(fi), ("oplus", "odot")[which])


def _check_liveness(E: EffFn, proper=False):
    top = E.geometry().count - 1
    hit = _first(_rows(E, proper)[:, top] != E.n)
    if hit is None:
        return True, None
    return False, (int(hit[0]), top)


def _check_safety(E: EffFn, proper=False):
    hit = _first(_rows(E, proper)[:, 0] != 0)
    if hit is None:
        return True, None
    return False, (int(hit[0]), 0)


def _forced_range(E: EffFn) -> np.ndarray:
    """Mask of the outcomes top on every assessment the empty coalition
    accepts (all of them when it accepts none)."""
    return E.geometry().on_top[E.rows()[0] == E.n].all(axis=0)


def _check_principal(E: EffFn):
    """Whether the empty coalition's accepted set is a principal upset.

    The n-fold odot power of any generator g is the characteristic vector
    of its top-valued coordinates, so candidates reduce to outcome subsets.
    A subset G generates the accepted set A only if every member of A is
    top on G, and the assessment that is top exactly on G is in A; so the
    one candidate is _forced_range(E) (all outcomes when A is empty, whose
    upset holds the top assessment).
    """
    upset = E.geometry().on_top[:, _forced_range(E)].all(axis=1)
    return bool(np.array_equal(upset, E.rows()[0] == E.n)), None


def _check_semi_playable(E: EffFn):
    ok, w = _check_outcome_monotonic(E, proper=True)
    if not ok:
        return False, ("outcome_monotonic",) + w
    ok, w = _check_liveness(E, proper=True)
    if not ok:
        return False, ("liveness",) + w
    ok, w = _check_safety(E, proper=True)
    if not ok:
        return False, ("safety",) + w
    # a proper union has proper parts, whose rows are outcome-monotone here
    ok, w = _check_superadditive(E, proper_unions_only=True, monotone=True)
    if not ok:
        return False, ("superadditive",) + w
    return True, None


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
    holds, witness = _CHECKS[which](E)
    return PropertyCheck(which, holds, witness)


def check_playability(E: EffFn) -> PlayabilityReport:
    """Run every predicate and aggregate the playability verdicts.

    A homogeneous table with n > 1 is checked on its Boolean skeleton, which
    gives the same verdicts; a predicate that fails there is run again on the
    table itself for its witness.
    """
    homogeneous = _check_homogeneous(E)
    target = boolean_skeleton(E) if E.n > 1 and homogeneous[0] else E

    def run(name, check):
        holds, witness = check(target)
        if witness is None or target is E:
            return holds, witness
        holds, witness = check(E)
        if witness is None:
            raise VerificationFailed(f"the skeleton fails {name} and the table does not")
        return holds, witness

    properties = {}
    witnesses = {}
    for name in PROPERTY_NAMES:
        if name == "homogeneous":
            holds, witness = homogeneous
        elif name == "superadditive":
            # outcome monotonicity is decided first, and spares the scan
            # the monotone minorant of a table whose rows all have it
            monotone = properties["outcome_monotonic"]
            holds, witness = run(name, partial(_check_superadditive, monotone=monotone))
        else:
            holds, witness = run(name, _CHECKS[name])
        properties[name] = holds
        if witness is not None:
            witnesses[name] = witness
    # the full predicates imply their proper-row and proper-union versions,
    # so semi-playability needs a run of its own only for a witness
    if all(properties[name] for name in SEMI_PLAYABLE_PARTS):
        semi, semi_witness = True, None
    else:
        semi, semi_witness = run("semi_playable", _check_semi_playable)
    if semi_witness is not None:
        witnesses["semi_playable"] = semi_witness
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
        hit = _first((values != 0) & (values != E.n))
        if hit is not None:
            mask, j = (int(x) for x in hit)
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
    targets = np.flatnonzero(_forced_range(H)).tolist()
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
