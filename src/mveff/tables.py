"""Chain-valued effectivity functions as explicit tables.

An EffFn stores one value for every (coalition, assessment) cell, with
assessments over the ordered outcome set encoded as base-(n+1) integers.
Each playability predicate is decided by exhaustive quantification over its
displayed quantifiers, vectorized over the assessment axis; superadditivity
compares whole rows against the meet index in blocks of bounded size.

`check_playability` first decides homogeneity on the full table.  A
homogeneous table commutes with both doubling maps, hence with every cut
tau_i, so it is the lift of its Boolean skeleton and every predicate (built
from <=, meet, negation and the constants) has the same verdict on the table
and on the 2^S-assessment skeleton.  For n > 1 the battery therefore runs on
the skeleton; a predicate that fails there runs again on the full table, so
its witness is the first failing dense cell.  Non-homogeneous tables and
Boolean tables run the battery on the full table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .chain import Chain
from .errors import (
    BadDocument,
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

# cells of the meet index held in memory at once
_MEET_MATRIX_CAP = 1 << 22


def enumerate_assessments(n: int, size: int) -> Iterable[tuple[int, ...]]:
    """All numerator tuples over an outcome set of the given size, in
    canonical order (last coordinate fastest)."""
    return itertools.product(range(n + 1), repeat=size)


def encode_assessment(f: Sequence[int], n: int) -> int:
    idx = 0
    for v in f:
        idx = idx * (n + 1) + v
    return idx


def decode_assessment(idx: int, n: int, size: int) -> tuple[int, ...]:
    digits = []
    for _ in range(size):
        digits.append(idx % (n + 1))
        idx //= n + 1
    return tuple(reversed(digits))


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
        self.oplus_self_idx = np.minimum(2 * self.tuples, n) @ powers
        self.odot_self_idx = np.maximum(2 * self.tuples - n, 0) @ powers
        # tau_idx[i-1][fi] = index of the i/n-thresholded assessment
        self.tau_idx = [
            (np.where(self.tuples >= i, n, 0) @ powers) for i in range(1, n + 1)
        ]
        # per-coordinate decrement (cover pairs for monotonicity)
        self.dec_idx = []
        for j in range(size):
            dec = self.tuples.copy()
            dec[:, j] = np.maximum(dec[:, j] - 1, 0)
            self.dec_idx.append(dec @ powers)
        self.idempotent_mask = (self.tuples % n == 0).all(axis=1) if n > 1 else np.ones(
            self.count, dtype=bool
        )

        self._meet_idx = None

    def meet_blocks(self):
        """The count x count meet index in row blocks, as (first row, block).

        block[i, gi] encodes the meet of assessments start + i and gi.  A
        block holds at most _MEET_MATRIX_CAP cells; when one block covers
        every row it is built once and kept.
        """
        step = max(1, _MEET_MATRIX_CAP // self.count)
        if step >= self.count:
            yield 0, self._meet_all()
            return
        for start in range(0, self.count, step):
            yield start, self._meet_rows(start, min(start + step, self.count))

    def _meet_all(self) -> np.ndarray:
        if self._meet_idx is None:
            self._meet_idx = self._meet_rows(0, self.count)
        return self._meet_idx

    def _meet_rows(self, start: int, stop: int) -> np.ndarray:
        """Meet index of assessments start..stop-1 against every assessment.

        Meets act digit by digit, so with an index split into leading and
        trailing digits, idx = hi * L + lo, the meet index is the sum of the
        two halves' meet indices, the leading one scaled by L.
        """
        idx = np.arange(start, stop, dtype=np.int64)
        if self.size == 1:
            return np.minimum.outer(idx, np.arange(self.count, dtype=np.int64))
        high = _geometry(self.n, self.size // 2)
        low = _geometry(self.n, self.size - self.size // 2)
        hi = high._meet_all()[idx // low.count] * low.count
        lo = low._meet_all()[idx % low.count]
        return (hi[:, :, None] + lo[:, None, :]).reshape(stop - start, self.count)


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


@dataclass(frozen=True, eq=True)
class EffFn:
    """A total table P(N) x (chain^S) -> chain.

    table[mask][f_index] is the numerator of the value of the coalition with
    that bitmask at the encoded assessment.
    """

    chain: Chain
    k: int
    outcomes: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __init__(self, chain, k, outcomes, table):
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "table", tuple(tuple(row) for row in table))
        size = len(self.outcomes)
        if size < 1 or k < 2:
            raise ValueError("need at least 1 outcome and 2 players")
        expected = (chain.n + 1) ** size
        if len(self.table) != 1 << k or any(
            len(row) != expected for row in self.table
        ):
            raise ValueError("table shape does not match (players, outcomes, chain)")
        if any(not 0 <= v <= chain.n for row in self.table for v in row):
            raise ValueError("table entry outside the chain")

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def num_outcomes(self) -> int:
        return len(self.outcomes)

    def geometry(self) -> _Geometry:
        return _geometry(self.n, self.num_outcomes)

    def rows(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    def value_num(self, mask: int, f: Sequence[int]) -> int:
        return self.table[mask][encode_assessment(f, self.n)]

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
                str(Coalition(mask, self.k)): list(row)
                for mask, row in enumerate(self.table)
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
        rows = {}
        for key, row in doc["table"].items():
            check_field(row, list, f"the row of {key}", int)
            key = key.strip()
            if key == "N":
                mask = (1 << k) - 1
            else:
                inner = key.strip("{}").strip()
                members = [int(p) for p in inner.split(",")] if inner else []
                mask = Coalition.of(members, k).mask
            rows[mask] = row
        if len(rows) != 1 << k:
            raise BadDocument("effectivity document is missing coalitions")
        return cls(
            chain=Chain(doc["n"]),
            k=k,
            outcomes=tuple(doc["outcomes"]),
            table=[rows[mask] for mask in range(1 << k)],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


# -- individual property checks ---------------------------------------------


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


def _check_outcome_monotonic(E: EffFn, masks=None):
    geo = E.geometry()
    rows = E.rows()
    masks = range(1 << E.k) if masks is None else masks
    for mask in masks:
        row = rows[mask]
        for j in range(geo.size):
            bad = np.nonzero(row < row[geo.dec_idx[j]])[0]
            if bad.size:
                fi = int(bad[0])
                return False, (mask, fi, int(geo.dec_idx[j][fi]))
    return True, None


def _check_n_maximal(E: EffFn):
    geo = E.geometry()
    rows = E.rows()
    full = (1 << E.k) - 1
    lhs = E.n - rows[0][geo.neg_idx]
    bad = np.nonzero(lhs > rows[full])[0]
    if bad.size:
        return False, (full, int(bad[0]))
    return True, None


def _check_regular(E: EffFn):
    geo = E.geometry()
    rows = E.rows()
    full = (1 << E.k) - 1
    for mask in range(1 << E.k):
        comp = full & ~mask
        bad = np.nonzero(rows[mask] > E.n - rows[comp][geo.neg_idx])[0]
        if bad.size:
            return False, (mask, int(bad[0]))
    return True, None


def _superadditive_cell_violation(rows, geo, c1, c2):
    """First (f, g) in row-major order with E(c1,f) meet E(c2,g) above
    E(c1 | c2, f meet g), or None."""
    union_row = rows[c1 | c2]
    for start, meet in geo.meet_blocks():
        lhs = np.minimum.outer(rows[c1][start : start + len(meet)], rows[c2])
        bad = (lhs > union_row[meet]).ravel()
        first = int(bad.argmax())
        if bad[first]:
            fi, gi = divmod(first, geo.count)
            return start + fi, gi
    return None


def _check_superadditive(E: EffFn, proper_unions_only=False):
    geo = E.geometry()
    rows = E.rows()
    full = (1 << E.k) - 1
    for c1, c2 in _disjoint_mask_pairs(E.k):
        if proper_unions_only and (c1 | c2) == full:
            continue
        hit = _superadditive_cell_violation(rows, geo, c1, c2)
        if hit is not None:
            return False, (c1, c2, hit[0], hit[1])
    return True, None


def _check_coalition_monotonic(E: EffFn):
    rows = E.rows()
    for mask in range(1 << E.k):
        for i in range(E.k):
            if mask >> i & 1:
                continue
            bigger = mask | 1 << i
            bad = np.nonzero(rows[mask] > rows[bigger])[0]
            if bad.size:
                return False, (mask, bigger, int(bad[0]))
    return True, None


def _check_homogeneous(E: EffFn, masks=None):
    geo = E.geometry()
    rows = E.rows()
    n = E.n
    masks = range(1 << E.k) if masks is None else masks
    for mask in masks:
        row = rows[mask]
        bad = np.nonzero(row[geo.oplus_self_idx] != np.minimum(2 * row, n))[0]
        if bad.size:
            return False, (mask, int(bad[0]), "oplus")
        bad = np.nonzero(row[geo.odot_self_idx] != np.maximum(2 * row - n, 0))[0]
        if bad.size:
            return False, (mask, int(bad[0]), "odot")
    return True, None


def _check_liveness(E: EffFn, masks=None):
    top = E.geometry().count - 1
    masks = range(1 << E.k) if masks is None else masks
    for mask in masks:
        if E.table[mask][top] != E.n:
            return False, (mask, top)
    return True, None


def _check_safety(E: EffFn, masks=None):
    masks = range(1 << E.k) if masks is None else masks
    for mask in masks:
        if E.table[mask][0] != 0:
            return False, (mask, 0)
    return True, None


def _check_principal(E: EffFn):
    """Search every candidate generator g for the displayed principal shape.

    The n-fold odot power of any g is the characteristic vector of its
    top-valued coordinates, so candidates reduce to outcome subsets.
    """
    geo = E.geometry()
    ones = E.rows()[0] == E.n
    for combo_size in range(geo.size + 1):
        for combo in itertools.combinations(range(geo.size), combo_size):
            upset = np.ones(geo.count, dtype=bool)
            for j in combo:
                upset &= geo.tuples[:, j] == E.n
            if np.array_equal(upset, ones):
                return True, None
    return False, None


def _check_semi_playable(E: EffFn):
    full = (1 << E.k) - 1
    proper = [m for m in range(1 << E.k) if m != full]
    ok, w = _check_outcome_monotonic(E, masks=proper)
    if not ok:
        return False, ("outcome_monotonic",) + w
    ok, w = _check_liveness(E, masks=proper)
    if not ok:
        return False, ("liveness",) + w
    ok, w = _check_safety(E, masks=proper)
    if not ok:
        return False, ("safety",) + w
    ok, w = _check_superadditive(E, proper_unions_only=True)
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
        raise ValueError(f"unknown property {which!r}")
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

    def run(check):
        holds, witness = check(target)
        if witness is not None and target is not E:
            holds, witness = check(E)
        return holds, witness

    properties = {}
    witnesses = {}
    for name in PROPERTY_NAMES:
        holds, witness = homogeneous if name == "homogeneous" else run(_CHECKS[name])
        properties[name] = holds
        if witness is not None:
            witnesses[name] = witness
    semi, semi_witness = run(_check_semi_playable)
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
    idem = E.geometry().idempotent_mask
    values = E.rows()[:, idem]
    if strict:
        bad = np.argwhere((values != 0) & (values != E.n))
        if bad.size:
            mask, j = (int(x) for x in bad[0])
            fi = int(np.nonzero(idem)[0][j])
            raise NotHomogeneous(
                f"skeleton cell (coalition {mask}, assessment {fi}) "
                f"has value {int(values[mask, j])}/{E.n}"
            )
    table = (values == E.n).astype(np.int64).tolist()
    return EffFn(chain=BOOL_CHAIN, k=E.k, outcomes=E.outcomes, table=table)


def lift_boolean(H: EffFn, chain: Chain, check_input: bool = True) -> EffFn:
    """The canonical chain-valued extension of a playable Boolean table.

    E(C, f) is the largest i/n whose thresholded assessment the Boolean
    table accepts; an empty index set gives 0.
    """
    if H.n != 1:
        raise ValueError("lift expects a Boolean (two-valued) table")
    if check_input and not check_playability(H).playable:
        raise NotPlayableInput("lift requires a playable Boolean table")
    if chain.n == 1:
        return H
    n = chain.n
    geo = _geometry(n, H.num_outcomes)
    bool_geo = _geometry(1, H.num_outcomes)
    h_rows = H.rows()
    # thresholded assessment, re-encoded in base 2
    tau_bool_idx = [
        ((geo.tuples >= i).astype(np.int64) @ bool_geo.powers) for i in range(1, n + 1)
    ]
    table = []
    for mask in range(1 << H.k):
        values = np.zeros(geo.count, dtype=np.int64)
        for i in range(1, n + 1):
            accepted = h_rows[mask][tau_bool_idx[i - 1]] == 1
            values[accepted] = i
        table.append([int(v) for v in values])
    return EffFn(chain=chain, k=H.k, outcomes=H.outcomes, table=table)


def equal_by_skeleton(E: EffFn, other: EffFn, debug: bool = False) -> bool:
    """Table equality decided on the Boolean skeletons alone.

    Both inputs must be homogeneous; in debug mode the full tables are also
    compared and must agree with the skeleton verdict.
    """
    for table in (E, other):
        holds, _ = _check_homogeneous(table)
        if not holds:
            raise NotHomogeneous("skeleton comparison requires homogeneous tables")
    verdict = boolean_skeleton(E) == boolean_skeleton(other)
    if debug and (E == other) != verdict:
        raise VerificationFailed("skeleton verdict disagrees with full-table equality")
    return verdict


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
    bool_geo = _geometry(1, H.num_outcomes)
    size = H.num_outcomes
    # forced range: intersection of all sets accepted by the empty coalition
    forced = set(range(size))
    for fi, f in enumerate(bool_geo.tuples):
        if H.table[0][fi] == 1:
            forced &= {j for j in range(size) if f[j] == 1}
    targets = sorted(forced)
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
