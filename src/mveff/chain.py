"""Exact arithmetic on the finite Lukasiewicz chain.

The chain with parameter n has the n+1 elements 0, 1/n, ..., 1.  Every value
is stored as an integer numerator over the fixed denominator n, so all
operations are exact.  The doubling maps x+x (truncated) and x*x (dual) are
the building blocks from which every threshold map on the chain can be
composed; ``synthesize_tau_term`` finds a shortest such composition by
breadth-first search over function tables.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import ChainMismatch, IndexOutOfRange, InvalidInput

TAU_OPLUS = "oplus"
TAU_ODOT = "odot"


@dataclass(frozen=True)
class Chain:
    """The (n+1)-element Lukasiewicz chain."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput(f"chain parameter must be >= 1, got {self.n}")

    def value(self, num: int) -> "TruthValue":
        return TruthValue(num, self)

    @property
    def bottom(self) -> "TruthValue":
        return TruthValue(0, self)

    @property
    def top(self) -> "TruthValue":
        return TruthValue(self.n, self)

    def elements(self) -> Iterator["TruthValue"]:
        for num in range(self.n + 1):
            yield TruthValue(num, self)

    def __repr__(self):
        return f"Chain({self.n})"


@dataclass(frozen=True)
class TruthValue:
    """An element num/n of a chain, kept as an exact numerator."""

    num: int
    chain: Chain

    def __post_init__(self):
        if not 0 <= self.num <= self.chain.n:
            raise InvalidInput(f"numerator {self.num} outside 0..{self.chain.n}")

    def _check(self, other: "TruthValue") -> None:
        if self.chain != other.chain:
            raise ChainMismatch(f"{self.chain} vs {other.chain}")

    @property
    def n(self) -> int:
        return self.chain.n

    # -- MV operations ------------------------------------------------------

    def oplus(self, other: "TruthValue") -> "TruthValue":
        self._check(other)
        return TruthValue(min(self.num + other.num, self.n), self.chain)

    def odot(self, other: "TruthValue") -> "TruthValue":
        self._check(other)
        return TruthValue(max(self.num + other.num - self.n, 0), self.chain)

    def neg(self) -> "TruthValue":
        return TruthValue(self.n - self.num, self.chain)

    def implies(self, other: "TruthValue") -> "TruthValue":
        self._check(other)
        return TruthValue(min(self.n, self.n - self.num + other.num), self.chain)

    def iff(self, other: "TruthValue") -> "TruthValue":
        self._check(other)
        return TruthValue(self.n - abs(self.num - other.num), self.chain)

    def meet(self, other: "TruthValue") -> "TruthValue":
        self._check(other)
        return TruthValue(min(self.num, other.num), self.chain)

    def join(self, other: "TruthValue") -> "TruthValue":
        self._check(other)
        return TruthValue(max(self.num, other.num), self.chain)

    def is_idempotent(self) -> bool:
        return self.oplus(self) == self

    # -- order --------------------------------------------------------------

    def __le__(self, other):
        self._check(other)
        return self.num <= other.num

    def __lt__(self, other):
        self._check(other)
        return self.num < other.num

    def __repr__(self):
        return f"{self.num}/{self.n}"


def tau_oplus_num(num: int, n: int) -> int:
    return min(2 * num, n)


def tau_odot_num(num: int, n: int) -> int:
    return max(2 * num - n, 0)


def tau_threshold_num(i: int, num: int, n: int) -> int:
    """The step map sending num to n iff num >= i, else 0."""
    return n if num >= i else 0


@dataclass(frozen=True)
class TauTerm:
    """A composition of doubling maps, applied left to right."""

    ops: tuple[str, ...]

    def apply_num(self, num: int, n: int) -> int:
        for op in self.ops:
            num = tau_oplus_num(num, n) if op == TAU_OPLUS else tau_odot_num(num, n)
        return num

    def table(self, chain: Chain) -> tuple[int, ...]:
        return tuple(self.apply_num(num, chain.n) for num in range(chain.n + 1))

    def __len__(self):
        return len(self.ops)


@lru_cache(maxsize=None)
def synthesize_tau_term(chain: Chain, i: int) -> TauTerm:
    """Shortest doubling-map composition whose table equals tau_threshold_num(i, ., n).

    Breadth-first search over composite function tables on the chain; states
    are deduplicated by full table, so at most (n+1)^(n+1) states exist and
    the first hit is a minimal-length witness.
    """
    n = chain.n
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"threshold index {i} outside 1..{n}")
    target = tuple(tau_threshold_num(i, num, n) for num in range(n + 1))
    start = tuple(range(n + 1))
    if start == target:
        return TauTerm(())
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        table, ops = queue.popleft()
        for op, step in ((TAU_OPLUS, tau_oplus_num), (TAU_ODOT, tau_odot_num)):
            new_table = tuple(step(v, n) for v in table)
            if new_table == target:
                return TauTerm(ops + (op,))
            if new_table not in seen:
                seen.add(new_table)
                queue.append((new_table, ops + (op,)))
    raise AssertionError(f"no doubling-map term reaches threshold {i}/{n}")
