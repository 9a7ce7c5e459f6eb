"""Hand-worked cases for the benchmark's reference oracle.

    python3 -m pytest bench/test_oracle.py

Formula nodes are built from mveff's AST classes, which the oracle reads as
plain data; every expected value below is worked out by hand in a comment.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
from mveff.formulas import Box, BoxO, Coalition, Implies, Neg, Prop, Top  # noqa: E402

# matching pennies: outcome 0 when the two choices agree, 1 otherwise
PENNIES = ((2, 2), (0, 1, 1, 0))
# player 1 picks the outcome, player 2 has a single strategy
DICTATOR = ((2, 1), (0, 1))


def test_encode_decode_first_outcome_most_significant():
    assert oracle.encode((1, 0, 2), 2) == 1 * 9 + 0 * 3 + 2
    assert oracle.decode(11, 2, 3) == (1, 0, 2)
    assert oracle.assessments(1, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_maxmin_matching_pennies():
    counts, omap = PENNIES
    # f = (1, 0) on n=1: nobody but the grand coalition can force outcome 0
    assert oracle.maxmin_cell(counts, omap, 1, 0b00, (1, 0)) == 0
    assert oracle.maxmin_cell(counts, omap, 1, 0b01, (1, 0)) == 0
    assert oracle.maxmin_cell(counts, omap, 1, 0b10, (1, 0)) == 0
    assert oracle.maxmin_cell(counts, omap, 1, 0b11, (1, 0)) == 1
    # f = (2, 1) on n=2: every strategy of player 1 can end in either
    # outcome, so the guaranteed value is min(2, 1) = 1
    assert oracle.maxmin_cell(counts, omap, 2, 0b01, (2, 1)) == 1
    assert oracle.maxmin_cell(counts, omap, 2, 0b11, (2, 1)) == 2


def test_maxmin_dictator():
    counts, omap = DICTATOR
    # player 1 picks the better outcome, player 2 gets the worse one
    assert oracle.maxmin_cell(counts, omap, 2, 0b01, (1, 2)) == 2
    assert oracle.maxmin_cell(counts, omap, 2, 0b10, (1, 2)) == 1
    assert oracle.maxmin_cell(counts, omap, 2, 0b00, (1, 2)) == 1


def test_game_form_tables_are_truly_playable():
    for counts, omap in (PENNIES, DICTATOR):
        for n in (1, 2):
            verdicts = oracle.predicates(oracle.game_form_table(counts, omap, n, 2))
            assert verdicts["truly_playable"] and verdicts["regular"]
            assert verdicts["coalition_monotonic"] and verdicts["semi_playable"]


def _threshold_table():
    # one outcome, n=2: E(C, (x,)) = 1 when x >= 1/2, else 0, for k=2
    return oracle.Table(2, 2, 1, [[0, 2, 2]] * 4)


def test_non_homogeneous_table_and_its_witness():
    T = _threshold_table()
    verdicts = oracle.predicates(T)
    # f = (1/2): E(f (+) f) = E(1) = 1 but E(f) (+) E(f) = 1 as well; the
    # odot side fails: E(f (.) f) = E(0) = 0, E(f) (.) E(f) = 1 (.) 1 = 1
    assert not verdicts["homogeneous"]
    assert not verdicts["playable"]
    assert verdicts["outcome_monotonic"] and verdicts["safety"] and verdicts["liveness"]
    assert oracle.witness_violates(T, "homogeneous", (0, 1, "odot"))
    assert not oracle.witness_violates(T, "homogeneous", (0, 1, "oplus"))


def test_safety_and_principal():
    T = oracle.game_form_table(*DICTATOR, 1, 2)
    # the empty coalition accepts f exactly when both outcomes are 1:
    # principal with generator g = (1, 1)
    assert oracle.predicates(T)["principal"]
    T.rows[0b01][0] = 1  # player 1 now "forces" the all-zero assessment
    verdicts = oracle.predicates(T)
    assert not verdicts["safety"] and not verdicts["playable"]
    assert oracle.witness_violates(T, "safety", (0b01, 0))
    assert not oracle.witness_violates(T, "safety", (0b10, 0))


def test_superadditive_witness():
    T = oracle.game_form_table(*DICTATOR, 1, 2)
    # player 1 forces {outcome 0}: f = (1, 0) has E({1}, f) = 1, and player
    # 2 forces everything: g = (1, 1).  Dropping E(N, f meet g) to 0 breaks it.
    T.rows[0b11][oracle.encode((1, 0), 1)] = 0
    assert not oracle.predicates(T)["superadditive"]
    assert oracle.witness_violates(
        T, "superadditive", (0b01, 0b10, oracle.encode((1, 0), 1), oracle.encode((1, 1), 1))
    )


def _two_state_model():
    # both states carry the table of the one-profile game form ending in s0,
    # so E_u(C, f) = f(s0) for every coalition; p1 = (1/2, 1) on n=2
    table = oracle.game_form_table((1, 1), (0,), 2, 2)
    return oracle.Model(2, [table, table], {1: (1, 2)}, relation={(0, 1), (1, 1)})


def test_evaluator_on_hand_model():
    M = _two_state_model()
    p = Prop(1)
    assert oracle.values(Top(), M) == (2, 2)
    assert oracle.values(Neg(p), M) == (1, 0)
    # [{1}]p1 reads p1 at s0 from both states
    box = Box(Coalition(0b01, 2), p)
    assert oracle.values(box, M) == (1, 1)
    # p1 -> [{1}]p1: min(2, 2 - 1 + 1) = 2 at s0, min(2, 2 - 2 + 1) = 1 at s1
    assert oracle.values(Implies(p, box), M) == (2, 1)
    # [O]p1: both states see only s1, where p1 = 1
    assert oracle.values(BoxO(p), M) == (2, 2)
    M.relation = {(0, 0), (0, 1)}
    # s0 sees s0 and s1: min(1/2, 1); s1 sees nothing, so the empty min is 1
    assert oracle.values(BoxO(p), M) == (1, 2)


def test_standard_relation_of_hand_model():
    M = _two_state_model()
    # E_u(empty, 0 at v, 1 elsewhere) = value at s0, which is 0 exactly when v = s0
    assert oracle.standard_relation(M) == frozenset({(0, 0), (1, 0)})


def test_subformulas_and_propositions():
    p, q = Prop(1), Prop(2)
    phi = Implies(Neg(p), Implies(p, q))
    assert list(oracle.subformulas(phi)) == [p, Neg(p), q, Implies(p, q), phi]
    assert oracle.propositions(phi) == [1, 2]


def test_predicates_refuse_large_tables():
    T = oracle.Table(2, 2, 5, [[0] * 243] * 4)
    try:
        oracle.predicates(T)
    except ValueError:
        return
    raise AssertionError("a 243-assessment table passed the oracle limit")
