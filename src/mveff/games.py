"""Finite strategic game forms and their effectivity functions.

A game form is players, per-player strategy counts, an ordered outcome set
and a total outcome map stored flat in row-major profile order (player 1
varies slowest).  A coalition's effectivity at an assessment of the
outcomes is one max-min over the profile hypercube: the min over the
non-members' strategy axes, then the max over the members' axes.  The one
reduction `_max_min` computes every Boolean and chain-valued effectivity,
a single cell or a whole table.  A whole table is computed at n = 1: max
and min commute with every threshold cut, so the chain-valued table is the
lift of the Boolean one, and it is held as that skeleton.
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


def mv_effectivity(
    form: GameForm, chain: Chain, coalition: Coalition, f: Sequence[int]
) -> TruthValue:
    """Exact max-min value of the coalition for the assessment f, which
    lists numerators over the outcome set."""
    f = np.asarray(f)
    if f.shape != (len(form.outcomes),):
        raise InvalidInput("assessment length does not match the outcome set")
    if f.dtype.kind not in "biu" or f.min() < 0 or f.max() > chain.n:
        raise InvalidInput("assessment entry outside the chain")
    values = f[form.outcome_array()][None]
    return TruthValue(_max_min(values, coalition.mask, form.k)[0].item(), chain)


def effectivity_table(
    form: GameForm, chain: Chain, cell_budget: int = DEFAULT_CELL_BUDGET
):
    """Full chain-valued effectivity table of the game form.

    Max and min commute with every threshold cut, so the table is the lift
    of the game form's Boolean table (tables.lift_boolean), and it is held
    as that skeleton: every (coalition, Boolean assessment) cell by the
    max-min rule, done as vectorized axis reductions over the profile
    hypercube.  The chain-valued cells are built from it on first use
    (EffFn.rows).  cell_budget bounds the 2^k x 2^S cells built here.
    """
    from .tables import BOOL_CHAIN, _geometry, _lifted, _value_dtype

    num_outcomes = len(form.outcomes)
    cells = (1 << num_outcomes) * (1 << form.k)
    if cells > cell_budget:
        raise BudgetExceeded(f"{cells} table cells exceed budget {cell_budget}")

    assessments = _geometry(BOOL_CHAIN.n, num_outcomes).tuples
    # value cube: one row per assessment, one axis per player
    values = assessments[:, form.outcome_array()]
    skeleton = np.empty((1 << form.k, len(assessments)), dtype=_value_dtype(BOOL_CHAIN.n))
    for mask in range(1 << form.k):
        skeleton[mask] = _max_min(values, mask, form.k)
    return _lifted(chain, form.k, form.outcomes, skeleton)
