import itertools

import pytest

from mveff.chain import (
    Chain,
    TauTerm,
    TruthValue,
    synthesize_tau_term,
    tau_threshold_num,
)
from mveff.errors import (
    ChainMismatch,
    IndexOutOfRange,
    InvalidInput,
    MveffError,
)


def test_chain_elements():
    c = Chain(3)
    assert [v.num for v in c.elements()] == [0, 1, 2, 3]
    assert c.bottom.num == 0 and c.top.num == 3


def test_chain_requires_positive_n():
    with pytest.raises(ValueError):
        Chain(0)


def test_input_errors_are_typed_value_errors():
    assert issubclass(InvalidInput, MveffError) and issubclass(InvalidInput, ValueError)
    with pytest.raises(InvalidInput):
        Chain(0)
    with pytest.raises(InvalidInput):
        TruthValue(5, Chain(2))


def test_operations_match_closed_forms():
    c = Chain(4)
    n = c.n
    for a in range(n + 1):
        for b in range(n + 1):
            x, y = c.value(a), c.value(b)
            assert x.oplus(y).num == min(a + b, n)
            assert x.odot(y).num == max(a + b - n, 0)
            assert x.implies(y).num == min(n, n - a + b)
            assert x.iff(y).num == n - abs(a - b)
            assert x.meet(y).num == min(a, b)
            assert x.join(y).num == max(a, b)
        assert c.value(a).neg().num == n - a


def test_chain_mismatch_raises():
    with pytest.raises(ChainMismatch):
        Chain(2).value(1).oplus(Chain(3).value(1))


def test_idempotents_are_endpoints():
    for n in range(1, 6):
        c = Chain(n)
        idem = [v.num for v in c.elements() if v.is_idempotent()]
        assert idem == [0, n]


def test_tau_threshold_table():
    c = Chain(4)
    for i in range(1, 5):
        for v in c.elements():
            expected = c.top if v.num >= i else c.bottom
            assert tau_threshold_num(i, v.num, c.n) == expected.num
    with pytest.raises(IndexOutOfRange):
        synthesize_tau_term(c, 5)


def test_tau_term_synthesis_exact_tables():
    for n in range(1, 7):
        c = Chain(n)
        for i in range(1, n + 1):
            term = synthesize_tau_term(c, i)
            want = tuple(n if v >= i else 0 for v in range(n + 1))
            assert term.table(c) == want


def test_tau_term_minimality():
    # breadth-first search returns a shortest composition; no strictly
    # shorter composition may reach the same table
    c = Chain(3)
    for i in range(1, 4):
        term = synthesize_tau_term(c, i)
        target = term.table(c)
        for length in range(len(term)):
            for ops in itertools.product(("oplus", "odot"), repeat=length):
                assert TauTerm(ops).table(c) != target


def test_order():
    c = Chain(2)
    assert c.value(1) < c.value(2)
    assert c.value(1) <= c.value(1)
    assert TruthValue(2, c) == c.top
