import random

import pytest

from resolvend.errors import InvalidElementError, InvalidGroupError
from resolvend.groups import FiniteAbelianGroup, element_order, invariant_factors


def test_invariant_factors_canonicalize():
    assert FiniteAbelianGroup((9, 3)).factors == (3, 9)
    assert FiniteAbelianGroup((3, 3)).factors == (3, 3)
    assert FiniteAbelianGroup((15,)).factors == (15,)
    # coprime parts merge into a single cyclic factor
    assert FiniteAbelianGroup((3, 5)).factors == (15,)
    assert invariant_factors((3, 9, 5)) == (3, 45)


def test_even_order_rejected():
    with pytest.raises(InvalidGroupError):
        FiniteAbelianGroup((4,))
    with pytest.raises(InvalidGroupError):
        FiniteAbelianGroup((3, 6))


def test_basic_attributes():
    g = FiniteAbelianGroup((3, 9))
    assert g.order == 27
    assert g.exponent == 9
    assert g.rank == 2
    assert g.identity == (0, 0)
    assert g.spec == "3,9"
    assert len(list(g.elements())) == 27


def test_arithmetic_and_order():
    g = FiniteAbelianGroup((3, 9))
    a, b = (1, 2), (2, 8)
    assert g.add(a, b) == (0, 1)
    assert g.sub(a, b) == (2, 3)
    assert g.neg(a) == (2, 7)
    assert g.scale(a, 3) == (0, 6)
    assert element_order(g, (0, 0)) == 1
    assert element_order(g, (1, 0)) == 3
    assert element_order(g, (0, 1)) == 9
    assert element_order(g, (1, 3)) == 3


def test_group_law_sweep():
    rng = random.Random(7)
    g = FiniteAbelianGroup((3, 9))
    elems = list(g.elements())
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert g.add(a, b) == g.add(b, a)
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
        assert g.add(a, g.neg(a)) == g.identity
        n = element_order(g, a)
        assert g.scale(a, n) == g.identity


def test_element_reduction_and_validate():
    g = FiniteAbelianGroup((3, 9))
    assert g.element((-1, 10)) == (2, 1)
    with pytest.raises(InvalidElementError):
        g.validate((3, 0))
    with pytest.raises(InvalidElementError):
        g.validate((0,))
    with pytest.raises(InvalidElementError):
        g.element((1,))


def test_cyclic_span_and_subgroup():
    g = FiniteAbelianGroup((3, 9))
    span = g.cyclic_span((0, 3))
    assert span == [(0, 0), (0, 3), (0, 6)]
    assert g.cyclic_span(g.identity) == [g.identity]
    assert len(g.cyclic_span((1, 1))) == 9
