"""Finite strategic game forms and their effectivity functions.

A game form is players, per-player strategy counts, an ordered outcome set
and a total outcome map stored flat in row-major profile order (player 1
varies slowest).  A coalition's effectivity at an assessment of the
outcomes is one max-min over the profile hypercube: the min over the
non-members' strategy axes, then the max over the members' axes, which
`_max_min` computes for single cells.  A whole table is the lift of the
Boolean one, as max and min commute with every threshold cut, and a
coalition accepts an outcome set exactly when one of its joint strategies
forces the outcome into it.  So `effectivity_table` computes, per
coalition, the outcome sets its joint strategies force, as bitwise-or
reductions of a profile cube of outcome bits, and the table is held as
their minimal ones (Pauly's representation): no assessment is enumerated.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chain import Chain, TruthValue
from .errors import (
    BadDocument,
    BudgetExceeded,
    InvalidInput,
    check_distinct,
    check_document,
    check_field,
    check_names,
)
from .formulas import Coalition

DEFAULT_CELL_BUDGET = 1 << 20


@dataclass(frozen=True)
class GameForm:
    """An immutable finite game form."""

    strategy_counts: tuple[int, ...]
    outcomes: tuple[str, ...]
    outcome_map: tuple[int, ...]  # outcome index per profile, row-major

    def __post_init__(self):
        k = len(self.strategy_counts)
        if k < 2:
            raise InvalidInput("a game form needs at least 2 players")
        if len(self.outcomes) < 1:
            raise InvalidInput("a game form needs at least 1 outcome")
        check_distinct(self.outcomes, "outcomes")
        if any(m < 1 for m in self.strategy_counts):
            raise InvalidInput("strategy sets must be nonempty")
        expected = math.prod(self.strategy_counts)
        if len(self.outcome_map) != expected:
            raise InvalidInput(
                f"outcome map has {len(self.outcome_map)} entries, expected {expected}"
            )
        if any(not 0 <= o < len(self.outcomes) for o in self.outcome_map):
            raise InvalidInput("outcome map points outside the outcome set")

    @property
    def k(self) -> int:
        return len(self.strategy_counts)

    @property
    def num_profiles(self) -> int:
        return len(self.outcome_map)

    def profiles(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.strategy_counts))

    def profile_index(self, profile: Sequence[int]) -> int:
        idx = 0
        for m, s in zip(self.strategy_counts, profile):
            idx = idx * m + s
        return idx

    def outcome_of(self, profile: Sequence[int]) -> int:
        return self.outcome_map[self.profile_index(profile)]

    def range_of_outcomes(self) -> frozenset[int]:
        return frozenset(self.outcome_map)

    def outcome_array(self) -> np.ndarray:
        """Outcome indices reshaped with one axis per player."""
        return np.asarray(self.outcome_map, dtype=np.int64).reshape(
            self.strategy_counts
        )

    # -- documents ----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "kind": "game-form",
            "players": self.k,
            "strategies": list(self.strategy_counts),
            "outcomes": list(self.outcomes),
            "o": [self.outcomes[o] for o in self.outcome_map],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "GameForm":
        check_document(doc, ("game-form",), ("strategies", "outcomes", "o"))
        check_field(doc["strategies"], list, "strategies", int)
        check_names(doc["outcomes"], "outcomes")
        check_field(doc["o"], list, "o", str)
        outcomes = tuple(doc["outcomes"])
        index = {name: i for i, name in enumerate(outcomes)}
        unknown = sorted({name for name in doc["o"] if name not in index}, key=str)
        if unknown:
            raise BadDocument(
                f"game-form document maps profiles to unknown outcomes {unknown}"
            )
        return cls(
            strategy_counts=tuple(doc["strategies"]),
            outcomes=outcomes,
            outcome_map=tuple(index[name] for name in doc["o"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)


def _max_min(values: np.ndarray, mask: int, k: int) -> np.ndarray:
    """The coalition's max-min value of each row of a value cube.

    values has one row axis and then one axis per player; the min runs over
    the non-members' axes and then the max over the members' axes, so the
    empty coalition's max and the grand coalition's min range over one
    empty joint strategy.
    """
    out_axes = tuple(1 + i for i in range(k) if not mask >> i & 1)
    reduced = values.min(axis=out_axes) if out_axes else values
    in_axes = tuple(range(1, reduced.ndim))
    return reduced.max(axis=in_axes) if in_axes else reduced


def boolean_effectivity(form: GameForm, coalition: Coalition, target: Iterable[int]) -> bool:
    """Whether the coalition can force the outcome into the target set."""
    target = frozenset(target)
    indicator = [int(o in target) for o in range(len(form.outcomes))]
    return mv_effectivity(form, Chain(1), coalition, indicator).num == 1


def check_assessment(f: Sequence[int], size: int, n: int) -> np.ndarray:
    """f as an array, raising InvalidInput unless it lists size numerators
    of the chain with n."""
    f = np.asarray(f)
    if f.shape != (size,):
        raise InvalidInput("assessment length does not match the outcome set")
    if f.dtype.kind not in "biu" or f.min() < 0 or f.max() > n:
        raise InvalidInput("assessment entry outside the chain")
    return f


def mv_effectivity(
    form: GameForm, chain: Chain, coalition: Coalition, f: Sequence[int]
) -> TruthValue:
    """Exact max-min value of the coalition for the assessment f, which
    lists numerators over the outcome set."""
    f = check_assessment(f, len(form.outcomes), chain.n)
    values = f[form.outcome_array()][None]
    return TruthValue(_max_min(values, coalition.mask, form.k)[0].item(), chain)


def effectivity_table(
    form: GameForm, chain: Chain, cell_budget: int = DEFAULT_CELL_BUDGET
):
    """Full chain-valued effectivity table of the game form.

    Max and min commute with every threshold cut, so the table is the lift
    of the game form's Boolean table (tables.lift_boolean), and a coalition
    C accepts an outcome set exactly when one joint strategy of C forces the
    outcome into it: when the set contains the outcomes the others can
    still reach against that strategy (Pauly).  The table is held as those
    sets, minimized per coalition (tables._generated).  Outcome j is bit
    S - 1 - j of a uint64 profile cube, so a set's mask is the index of its
    characteristic assessment, and a coalition's reached sets are one
    bitwise-or reduction over a non-member's axis of the reached sets of
    the coalition with that player added.  The chain-valued cells are
    built on first use (EffFn.rows).  cell_budget bounds the profiles x
    2^k cells the reductions read.
    """
    from .tables import _generated

    cells = form.num_profiles << form.k
    if cells > cell_budget:
        raise BudgetExceeded(f"{cells} profile cells exceed budget {cell_budget}")

    size = len(form.outcomes)
    # more than 64 outcomes do not fit a uint64 word: Python ints then
    dtype = np.uint64 if size <= 64 else object
    bits = np.array([1 << (size - 1 - j) for j in range(size)], dtype=dtype)
    full = (1 << form.k) - 1
    reached = {full: bits[form.outcome_array()]}
    for mask in range(full - 1, -1, -1):
        player = (full & ~mask).bit_length() - 1  # a non-member; mask | its bit is done
        reached[mask] = np.bitwise_or.reduce(reached[mask | 1 << player], axis=player, keepdims=True)
    rows = [reached[mask].ravel().tolist() for mask in range(full + 1)]
    return _generated(chain, form.k, form.outcomes, rows)
