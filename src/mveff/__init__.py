"""Exact arithmetic and model checking for chain-valued effectivity functions."""

from .chain import (
    Chain,
    TauTerm,
    TruthValue,
    synthesize_tau_term,
)
from .decide import (
    LOGIC_PN,
    LOGIC_TPN,
    DecisionVerdict,
    search_countermodel,
    soundness_suite,
)
from .errors import MveffError
from .filtration import (
    FiltrationResult,
    Quotient,
    enriched_filtration,
    intermediate_filtration,
    playable_filtration,
    quotient,
)
from .formulas import (
    Coalition,
    Formula,
    parse,
    print_formula,
    subformulas,
)
from .games import (
    GameForm,
    boolean_effectivity,
    effectivity_table,
    mv_effectivity,
)
from .models import (
    EnrichedLnModel,
    LnModel,
    check_axiom_schema,
    eval_formula,
    eval_vector,
    is_standard,
    is_true,
    is_valid,
    standardize,
)
from .mvalgebra import (
    FiniteMVAlgebra,
    MVFilterView,
    check_grigolia,
    is_mv_filter,
    principal_filter,
)
from .tables import (
    EffFn,
    PlayabilityReport,
    boolean_skeleton,
    check_playability,
    check_playability_many,
    check_properties,
    check_property,
    lift_boolean,
    synthesize_game_form,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "TruthValue",
    "TauTerm",
    "synthesize_tau_term",
    "FiniteMVAlgebra",
    "MVFilterView",
    "is_mv_filter",
    "principal_filter",
    "check_grigolia",
    "Coalition",
    "Formula",
    "parse",
    "print_formula",
    "subformulas",
    "GameForm",
    "boolean_effectivity",
    "mv_effectivity",
    "effectivity_table",
    "EffFn",
    "PlayabilityReport",
    "check_property",
    "check_properties",
    "check_playability",
    "check_playability_many",
    "boolean_skeleton",
    "lift_boolean",
    "synthesize_game_form",
    "LnModel",
    "EnrichedLnModel",
    "eval_formula",
    "eval_vector",
    "is_true",
    "is_valid",
    "is_standard",
    "standardize",
    "check_axiom_schema",
    "Quotient",
    "FiltrationResult",
    "quotient",
    "intermediate_filtration",
    "playable_filtration",
    "enriched_filtration",
    "DecisionVerdict",
    "search_countermodel",
    "soundness_suite",
    "LOGIC_PN",
    "LOGIC_TPN",
    "MveffError",
    "__version__",
]
