"""
Boolean skeletons, lifts, and game-form synthesis
=================================================

"""

from mveff import (
    Chain,
    boolean_skeleton,
    effectivity_table,
    lift_boolean,
    synthesize_game_form,
)
from mveff.corpus import known_truly_playable_tables, playable_boolean_tables

chain = Chain(3)

# every playable two-valued table lifts to a playable chain-valued one,
# and restricting the lift back to idempotent assessments recovers it
for H in playable_boolean_tables(2, 2):
    E = lift_boolean(H, chain)
    assert boolean_skeleton(E) == H
print("lift/skeleton round trip on", len(playable_boolean_tables(2, 2)), "tables")

# truly playable tables are exactly the tables of game forms; the
# synthesizer searches small forms and verifies cell-for-cell equality
targets = known_truly_playable_tables()
forms = [synthesize_game_form(E, budget=3) for E in targets]
for form, E in zip(forms, targets):
    assert effectivity_table(form, E.chain) == E
print("synthesized strategy counts:", forms[3].strategy_counts)
print("outcome map:", forms[3].outcome_map)
print("round trip exact for", len(targets), "known tables")
