"""Ramification filtrations and the Puiseux coefficient model."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resolvend.cyclotomic import CycContext, cyc_from_json
from resolvend.errors import (
    ConductorError,
    FractionalPowerError,
    NotInvertibleError,
    ParityError,
    PreconditionError,
    TamenessError,
)
from resolvend.localfield import (
    INF,
    LocalModel,
    RamFiltration,
    different_valuation,
    is_weakly_ramified,
    prime_power_base,
    sqrt_inverse_different_valuation,
    validate_abelian_filtration,
)


def test_filtration_construction():
    filt = RamFiltration.from_spec("9,3,3,1")
    assert filt.orders == (9, 3, 3, 1)
    assert filt.order_at(0) == 9
    assert filt.order_at(2) == 3
    # the chain is eventually trivial
    assert filt.order_at(10) == 1
    with pytest.raises(PreconditionError):
        RamFiltration([3, 9])  # increasing
    with pytest.raises(PreconditionError):
        RamFiltration([9, 4])  # 4 does not divide 9
    with pytest.raises(PreconditionError):
        RamFiltration([])
    with pytest.raises(PreconditionError):
        RamFiltration([3, 0])


def test_filtration_equality_ignores_trailing_ones():
    assert RamFiltration([3, 3]) == RamFiltration([3, 3, 1, 1])
    assert hash(RamFiltration([5])) == hash(RamFiltration([5, 1]))
    assert RamFiltration([3]) != RamFiltration([3, 3])


def test_different_valuations():
    # a single tame jump
    for e in (3, 5, 7, 9, 27):
        filt = RamFiltration([e])
        assert different_valuation(filt) == e - 1
        assert sqrt_inverse_different_valuation(filt) == -(e - 1) // 2
        assert is_weakly_ramified(filt)
    # weakly ramified wild chains
    for p in (3, 5, 7):
        filt = RamFiltration([p, p, 1])
        assert different_valuation(filt) == 2 * (p - 1)
        assert sqrt_inverse_different_valuation(filt) == -(p - 1)
        assert is_weakly_ramified(filt)
    # a deeper chain is not weakly ramified
    deep = RamFiltration([3, 3, 3, 1])
    assert different_valuation(deep) == 6
    assert not is_weakly_ramified(deep)


def test_odd_different_has_no_square_root():
    with pytest.raises(ParityError):
        sqrt_inverse_different_valuation(RamFiltration([2]))


def test_abelian_filtration_congruence():
    # jumps at positions divisible by e_0 = |G_0|/|G_1| are the only ones allowed
    assert validate_abelian_filtration(RamFiltration([3]))
    assert validate_abelian_filtration(RamFiltration([3, 3, 1]))
    assert validate_abelian_filtration(RamFiltration([6, 2, 2, 2, 1]))
    # here e_0 = 3 but the order drops at n = 1
    assert not validate_abelian_filtration(RamFiltration([6, 2, 1]))


def test_prime_power_base():
    assert prime_power_base(7) == 7
    assert prime_power_base(9) == 3
    assert prime_power_base(27) == 3
    assert prime_power_base(49) == 7
    assert prime_power_base(121) == 11
    for bad in (1, 0, 12, 100):
        with pytest.raises(PreconditionError):
            prime_power_base(bad)


def test_model_interning_and_validation():
    a = LocalModel(3, 7, 9)
    b = LocalModel(3, 7, 9)
    assert a is b
    assert a is not LocalModel(3, 7, 45)
    with pytest.raises(PreconditionError):
        LocalModel(4, 13, 4)  # even ramification degree
    with pytest.raises(PreconditionError):
        LocalModel(3, 4, 3)  # residue characteristic 2
    with pytest.raises(TamenessError):
        LocalModel(5, 7, 5)  # 5 does not divide 7 - 1
    with pytest.raises(ConductorError):
        LocalModel(3, 7, 21)  # p divides the conductor
    with pytest.raises(ConductorError):
        LocalModel(3, 7, 5)  # conductor without order-3 roots


def test_failed_construction_is_not_cached():
    before = dict(LocalModel._cache)
    with pytest.raises(PreconditionError):
        LocalModel(2, 7, 1)
    with pytest.raises(ConductorError):
        LocalModel(3, 7, 21)
    assert LocalModel._cache == before


def test_valuations():
    model = LocalModel(3, 7, 9)
    assert model.val(model.zero()) == INF
    assert model.val(model.one()) == 0
    # pi itself sits e steps up the value group of L
    assert model.val(model.pi_power(1)) == 3
    assert model.val(model.pi_power(Fraction(1, 3))) == 1
    assert model.val(model.from_rational(7)) == 3
    assert model.val(model.from_rational(Fraction(1, 49))) == -6
    assert model.val(model.monomial(Fraction(-2, 3), model.ctx.from_rational(7))) == 1


def test_element_arithmetic():
    model = LocalModel(3, 7, 9)
    pi = model.pi_power(Fraction(1, 3))
    assert pi * pi * pi == model.pi_power(1)
    assert (pi + model.one()) - pi == model.one()
    assert pi * 0 == model.zero()
    assert (model.one() * 5 + pi) * pi == 5 * pi + pi * pi
    assert pi ** 6 == model.pi_power(2)
    x = model.one() + pi
    assert x ** 2 == model.one() + 2 * pi + pi * pi
    with pytest.raises(FractionalPowerError):
        model.monomial(Fraction(1, 2), model.ctx.one())  # exponent leaves (1/3)Z


def test_random_ring_laws():
    model = LocalModel(3, 7, 9)
    rng = random.Random("localfield-laws")
    exps = [Fraction(k, 3) for k in range(-3, 4)]

    def rand_elt():
        terms = {}
        for _ in range(rng.randrange(3)):
            c = model.ctx.from_fractions([Fraction(rng.randrange(-4, 5)) for _ in range(6)])
            terms[rng.choice(exps)] = c
        return model.zero() + sum((model.monomial(r, c) for r, c in terms.items()), model.zero())

    for _ in range(50):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a * (b * c) == (a * b) * c


def test_galois_action():
    model = LocalModel(3, 7, 9)
    pi = model.pi_power(Fraction(1, 3))
    zeta3 = model.from_cyc(model.ctx.zeta_power(3))
    # sigma scales each pi^(k/e) by zeta_e^k and fixes integral powers
    assert model.sigma(pi) == zeta3 * pi
    assert model.sigma(model.pi_power(1)) == model.pi_power(1)
    assert model.sigma(model.from_rational(5)) == model.from_rational(5)
    x = model.sigma(model.sigma(model.sigma(pi)))
    assert x == pi
    # phi raises coefficients to the residue order and fixes pi
    z = model.from_cyc(model.ctx.zeta_power(1))
    assert model.phi(z) == model.from_cyc(model.ctx.zeta_power(7))
    assert model.phi(pi) == pi
    names = [name for name, _, _ in model.galois_twists()]
    assert names == ["sigma", "phi"]


def test_base_field_membership():
    model = LocalModel(3, 7, 9)
    assert model.in_base_field(model.one())
    assert model.in_base_field(model.pi_power(2))
    assert not model.in_base_field(model.pi_power(Fraction(1, 3)))
    assert not model.in_base_field(model.from_cyc(model.ctx.zeta_power(1)))


def test_inversion():
    model = LocalModel(3, 7, 9)
    x = model.monomial(Fraction(2, 3), model.ctx.zeta_power(4))
    assert x * model.inv(x) == model.one()
    with pytest.raises(NotInvertibleError):
        model.inv(model.one() + model.pi_power(Fraction(1, 3)))
    with pytest.raises(NotInvertibleError):
        model.inv(model.zero())


def test_fractional_powers():
    model = LocalModel(3, 7, 9)
    assert model.frac_power(model.pi_power(2), Fraction(1, 2)) == model.pi_power(1)
    assert model.frac_power(model.pi_power(1), Fraction(1, 3)) == model.pi_power(Fraction(1, 3))
    zcube = model.monomial(0, model.ctx.zeta_power(3))
    assert model.frac_power(zcube, Fraction(1, 3)) == model.monomial(0, model.ctx.zeta_power(1))
    with pytest.raises(FractionalPowerError):
        model.frac_power(model.pi_power(1), Fraction(1, 6))
    with pytest.raises(FractionalPowerError):
        model.frac_power(model.monomial(0, model.ctx.zeta_power(1)), Fraction(1, 3))
    with pytest.raises(FractionalPowerError):
        model.frac_power(model.one() + model.pi_power(1), Fraction(1, 2))


def test_json_roundtrip():
    model = LocalModel(3, 7, 9)
    x = (model.monomial(Fraction(-1, 3), model.ctx.zeta_power(2))
         + model.from_rational(Fraction(7, 2))
         + model.pi_power(1) * model.ctx.zeta_power(5))
    data = model.to_json(x)
    assert all(set(item) == {"exponent", "coeff"} for item in data)
    assert [item["exponent"] for item in data] == ["-1/3", "0", "1"]
    back = model.zero()
    for item in data:
        back = back + model.monomial(Fraction(item["exponent"]), cyc_from_json(item["coeff"]))
    assert back == x
    assert model.to_json(model.zero()) == []


def test_mixed_models_refuse_to_combine():
    a = LocalModel(3, 7, 9).one()
    b = LocalModel(5, 11, 5).one()
    with pytest.raises(PreconditionError):
        a + b
    with pytest.raises(PreconditionError):
        a * b


def test_conductor_mismatch_on_import():
    model = LocalModel(3, 7, 9)
    foreign = CycContext(5).one()
    with pytest.raises(ConductorError):
        model.from_cyc(foreign)
