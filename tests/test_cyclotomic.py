import random
from fractions import Fraction

import pytest

from resolvend.cyclotomic import (
    CycAlgebra,
    CycContext,
    content_ord,
    cyc_det,
    cyc_from_json,
    cyc_inverse,
    cyc_to_json,
    cyclotomic_polynomial,
    discrete_log_in_mu,
    galois_apply,
    root_of_unity,
)
from resolvend.errors import (
    ConductorError,
    FractionalPowerError,
    InvalidAutomorphismError,
    NotARootError,
    NotInvertibleError,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_context_is_interned():
    assert CycContext(9) is CycContext(9)
    assert CycContext(9) is not CycContext(3)
    with pytest.raises(ConductorError):
        CycContext(4)


def test_failed_construction_is_not_cached():
    before = dict(CycContext._cache)
    for bad in (4, 0, -3):
        with pytest.raises(ConductorError):
            CycContext(bad)
    assert CycContext._cache == before


def test_zeta_relations():
    ctx = CycContext(9)
    z = ctx.zeta_power(1)
    acc = ctx.one()
    for _ in range(9):
        acc = acc * z
    assert acc == ctx.one()  # zeta^9 = 1
    assert acc * z == z  # zeta^10 = zeta
    assert ctx.zeta_power(9) == ctx.one()
    # sum over all ninth roots of unity vanishes
    total = ctx.zero()
    for k in range(9):
        total = total + ctx.zeta_power(k)
    assert total.is_zero()


def test_arithmetic_sweep():
    rng = random.Random(11)
    ctx = CycContext(15)

    def rand():
        c = ctx.zero()
        for k in range(ctx.phi):
            c = c + ctx.zeta_power(k) * rng.randint(-3, 3)
        return c * Fraction(1, rng.choice((1, 1, 2, 3)))

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == ctx.zero()
        assert a * ctx.one() == a


def test_galois_action_is_a_ring_map():
    ctx = CycContext(9)
    rng = random.Random(5)
    for _ in range(40):
        a = ctx.zero()
        b = ctx.zero()
        for k in range(ctx.phi):
            a = a + ctx.zeta_power(k) * rng.randint(-2, 2)
            b = b + ctx.zeta_power(k) * rng.randint(-2, 2)
        for k in (2, 4, 5, 7, 8):
            assert galois_apply(a * b, k) == galois_apply(a, k) * galois_apply(b, k)
            assert galois_apply(a + b, k) == galois_apply(a, k) + galois_apply(b, k)
    assert galois_apply(ctx.zeta_power(1), 2) == ctx.zeta_power(2)
    with pytest.raises(InvalidAutomorphismError):
        galois_apply(ctx.zeta_power(1), 3)


def test_root_of_unity_embedding():
    ctx = CycContext(45)
    z9 = root_of_unity(ctx, 9)
    acc = ctx.one()
    for _ in range(9):
        acc = acc * z9
    assert acc == ctx.one()
    with pytest.raises(ConductorError):
        root_of_unity(ctx, 7)


def test_discrete_log():
    ctx = CycContext(9)
    for k in range(9):
        x = ctx.zeta_power(k)
        assert discrete_log_in_mu(x, 9) == k
    with pytest.raises(NotARootError):
        discrete_log_in_mu(ctx.zeta_power(1) + ctx.one(), 9)


def test_inverse():
    ctx = CycContext(9)
    rng = random.Random(3)
    found = 0
    while found < 25:
        c = ctx.zero()
        for k in range(ctx.phi):
            c = c + ctx.zeta_power(k) * rng.randint(-2, 2)
        if c.is_zero():
            continue
        found += 1
        assert c * cyc_inverse(c) == ctx.one()
    with pytest.raises(NotInvertibleError):
        cyc_inverse(ctx.zero())


def test_content_ord():
    ctx = CycContext(3)
    x = ctx.zeta_power(1) * 9 + ctx.one() * 3
    assert content_ord(x, 3) == 1
    assert content_ord(x * Fraction(1, 27), 3) == -2
    assert content_ord(ctx.one(), 3) == 0
    assert content_ord(ctx.zeta_power(1) - ctx.one(), 5) == 0


def test_cyc_det():
    ctx = CycContext(3)
    z = ctx.zeta_power(1)
    one = ctx.one()
    # det [[1, z], [z, 1]] = 1 - z^2
    d = cyc_det([[one, z], [z, one]])
    assert d == one - z * z
    # a repeated row is singular
    assert cyc_det([[one, z], [one, z]]).is_zero()
    # row swap flips the sign
    d2 = cyc_det([[z, one], [one, z]])
    assert d2 == z * z - one


def test_json_roundtrip():
    ctx = CycContext(9)
    x = ctx.zeta_power(2) * Fraction(3, 2) - ctx.one() * 7
    data = cyc_to_json(x)
    assert data["N"] == 9
    assert cyc_from_json(data) == x


def test_algebra_valuation_and_powers():
    ctx = CycContext(3)
    alg = CycAlgebra(ctx, 7)
    x = ctx.one() * 49
    assert alg.val(x) == 2
    assert alg.val(ctx.one() * Fraction(1, 7)) == -1
    assert alg.inv(ctx.zeta_power(1)) == ctx.zeta_power(2)
    # fractional powers exist only for roots of unity and recover them
    z = ctx.zeta_power(1)
    assert alg.frac_power(z * z, Fraction(1, 2)) == z
    # a non-root has no fractional power at all
    with pytest.raises(NotARootError):
        alg.frac_power(ctx.one() * 7, Fraction(1, 2))
    # a root of unity whose exponent does not divide is rejected separately
    with pytest.raises(FractionalPowerError):
        alg.frac_power(z, Fraction(1, 2))
