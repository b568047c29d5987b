"""Formal wild algebra: actions, identities, and weight bounds."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvend import faults
from resolvend.cyclotomic import CycContext, CycNumber, cyc_inverse
from resolvend.errors import (
    ConductorError,
    FractionalPowerError,
    NotInvertibleError,
    PreconditionError,
)
from resolvend.groupring import Resolvend
from resolvend.groups import FiniteAbelianGroup
from resolvend.localfield import INF
from resolvend.wild import (
    WildAlgebra,
    _zeta_minus_one_ord,
    alpha_valuation_bound,
    build_alpha,
    centered,
    elementary_product_check,
    is_omega_invariant,
    omega_action,
    omega_exponent,
    pth_power_map,
    tau_action,
    tau_scaling_check,
    weight_lower_bound,
    wild_generator,
    wild_resolvent_identity,
    wild_unit_resolvents,
)


def test_centered_representatives():
    assert [centered(5, i) for i in range(5)] == [0, 1, 2, -2, -1]
    for p in (3, 5, 7):
        for i in range(-10, 10):
            c = centered(p, i)
            assert (c - i) % p == 0
            assert abs(c) <= (p - 1) // 2


def test_omega_exponent():
    # omega_j is the centered inverse of j
    assert omega_exponent(5, 1) == 1
    assert omega_exponent(5, 2) == -2  # 2^{-1} = 3 = -2
    assert omega_exponent(5, 3) == 2
    assert omega_exponent(5, 4) == -1
    with pytest.raises(PreconditionError):
        omega_exponent(5, 0)
    with faults.inject(faults.OMEGA_UNINVERTED):
        assert omega_exponent(5, 2) == 2
    assert omega_exponent(5, 2) == -2


def test_algebra_interning_and_shape():
    alg = WildAlgebra(5)
    assert alg is WildAlgebra(5)
    assert alg is not WildAlgebra(5, copies=2)
    assert alg.nvars == 4
    assert WildAlgebra(3, copies=2).nvars == 4
    assert alg.ctx.n == 5
    for p in (3, 5, 7, 11, 13):
        assert WildAlgebra(p).p == p
    with pytest.raises(PreconditionError):
        alg.var_index(0)
    with pytest.raises(PreconditionError):
        alg.var_index(5)
    with pytest.raises(PreconditionError):
        alg.var_index(1, copy=1)


def test_failed_construction_is_not_cached():
    before = dict(WildAlgebra._cache)
    for square in (9, 25, 49, 121):
        with pytest.raises(PreconditionError):
            WildAlgebra(square)
    with pytest.raises(PreconditionError):
        WildAlgebra(3, copies=0)
    assert WildAlgebra._cache == before


def test_coercion_checks_conductor_and_algebra():
    alg = WildAlgebra(3)
    with pytest.raises(ConductorError):
        alg.from_cyc(CycContext(5).one())
    with pytest.raises(ConductorError):
        alg.y(1) + CycContext(5).one()
    other = WildAlgebra(3, copies=2)
    with pytest.raises(PreconditionError):
        alg.y(1) + other.y(1)
    with pytest.raises(PreconditionError):
        alg.y(1) * other.y(1)
    with pytest.raises(PreconditionError):
        alg.one() == WildAlgebra(5).one()


def test_laurent_arithmetic():
    alg = WildAlgebra(3)
    y1, y2 = alg.y(1), alg.y(2)
    assert y1 * alg.y(1, power=-1) == alg.one()
    assert y1 * y2 == alg.monomial((1, 1), alg.ctx.one())
    assert (y1 + y2) - y2 == y1
    assert y1 * 0 == alg.zero()
    assert (y1 + 1) * (y1 - 1) == y1 * y1 - 1
    assert y1 ** -2 == alg.y(1, power=-2)


def test_ring_laws_sweep():
    alg = WildAlgebra(3)
    rng = random.Random("wild-laws")

    def rand_elt():
        acc = alg.zero()
        for _ in range(rng.randrange(3)):
            exps = tuple(rng.randrange(-2, 3) for _ in range(alg.nvars))
            coeff = CycNumber(alg.ctx, [rng.randrange(-3, 4) for _ in range(2)])
            acc = acc + alg.monomial(exps, coeff)
        return acc

    for _ in range(40):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)


def test_inversion_and_roots():
    alg = WildAlgebra(5)
    x = alg.monomial((2, 0, -1, 0), alg.ctx.zeta_power(3))
    assert x * alg.inv(x) == alg.one()
    with pytest.raises(NotInvertibleError):
        alg.inv(alg.y(1) + alg.one())
    assert alg.frac_power(alg.y(1, power=4), Fraction(1, 2)) == alg.y(1, power=2)
    with pytest.raises(FractionalPowerError):
        alg.frac_power(alg.y(1), Fraction(1, 2))
    z = alg.ctx.zeta_power(1)
    assert alg.frac_power(alg.from_cyc(z * z), Fraction(1, 2)) == alg.from_cyc(z)


def test_unit_monomials():
    alg = WildAlgebra(3)
    assert alg.is_unit_monomial(alg.y(1))
    assert alg.is_unit_monomial(alg.monomial((1, -2), alg.ctx.zeta_power(2)))
    assert not alg.is_unit_monomial(alg.y(1) * 2)
    assert not alg.is_unit_monomial(alg.y(1) + alg.y(2))
    assert not alg.is_unit_monomial(alg.zero())
    # zeta - 1 is integral but not a unit
    znz = alg.ctx.zeta_power(1) - alg.ctx.one()
    assert not alg.is_unit_monomial(alg.from_cyc(znz))


def test_omega_action():
    alg = WildAlgebra(5)
    # variables permute: y_i -> y_{ji}
    assert omega_action(alg.y(1), 2) == alg.y(2)
    assert omega_action(alg.y(2), 3) == alg.y(1)  # 2*3 = 6 = 1 mod 5
    # coefficients move through the inverse twist
    z = alg.from_cyc(alg.ctx.zeta_power(1))
    assert omega_action(z, 2) == alg.from_cyc(alg.ctx.zeta_power(3))  # c(2^{-1}) = -2
    # the action is a group action: j then k equals jk
    x = alg.y(1) + alg.y(3) * alg.ctx.zeta_power(2)
    assert omega_action(omega_action(x, 2), 4) == omega_action(x, 3)  # 8 = 3 mod 5


def test_alpha_is_omega_invariant():
    for p in (3, 5):
        assert is_omega_invariant(build_alpha(WildAlgebra(p)))
    alg = WildAlgebra(3)
    assert not is_omega_invariant(alg.y(1))


def test_tau_scaling():
    assert tau_scaling_check(3)
    assert tau_scaling_check(5)
    with faults.inject(faults.OMEGA_UNINVERTED):
        # inversion is trivial mod 3 but visible mod 5
        assert tau_scaling_check(3)
        assert not tau_scaling_check(5)
    assert tau_scaling_check(5)


def test_tau_is_multiplicative_in_j():
    alg = WildAlgebra(5)
    x = alg.y(1) * alg.y(3, power=2)
    for j, k in ((1, 2), (2, 2), (3, 4)):
        lhs = tau_action(tau_action(x, j), k)
        rhs = tau_action(x, (centered(5, j) + centered(5, k)) % 5)
        assert lhs == rhs


def test_wild_generator_values():
    group = FiniteAbelianGroup((3,))
    a = wild_generator(group, (1,))
    alg = a.algebra
    assert set(a.values) == set(group.elements())
    assert a.value((0,)) == build_alpha(alg)
    assert a.value((1,)) == tau_action(build_alpha(alg), 1)
    with pytest.raises(PreconditionError):
        wild_generator(group, (1,), WildAlgebra(5))


def test_pth_power_map():
    group = FiniteAbelianGroup((3,))
    alg = WildAlgebra(3)
    g = pth_power_map(group, (1,), alg)
    assert g.value((0,)) == alg.one()
    assert g.value((1,)) == alg.y(1, power=3)
    assert g.value((2,)) == alg.y(2, power=3)


def test_resolvent_identity_and_units():
    for p in (3, 5):
        a = wild_generator(FiniteAbelianGroup((p,)), (1,))
        assert wild_resolvent_identity(a, (1,))
        assert wild_unit_resolvents(a)
        # doubling one value adds a second term to every resolvent
        values = dict(a.values)
        values[(1,)] = values[(1,)] * 2
        planted = Resolvend(a.group, a.algebra, values)
        assert not wild_unit_resolvents(planted)
        assert not wild_resolvent_identity(planted, (1,))


def test_zeta_minus_one_valuation():
    alg = WildAlgebra(5)
    ctx = alg.ctx
    z = ctx.zeta_power(1)
    assert _zeta_minus_one_ord(ctx.one()) == 0
    assert _zeta_minus_one_ord(z - ctx.one()) == 1
    assert _zeta_minus_one_ord(ctx.from_rational(5)) == 4
    assert _zeta_minus_one_ord(ctx.from_rational(Fraction(1, 5))) == -4
    assert _zeta_minus_one_ord((z - ctx.one()) * Fraction(1, 5)) == -3
    assert _zeta_minus_one_ord(ctx.zero()) == INF
    # a denominator prime to p is a unit: it does not lower the valuation
    assert _zeta_minus_one_ord((z - ctx.one()) * Fraction(1, 2)) == 1
    assert _zeta_minus_one_ord((z - ctx.one()) * Fraction(1, 10)) == -3


def _valuation_by_inverse(c: CycNumber):
    """Reference valuation: strip the denominator's p-part, then multiply by
    (zeta - 1)^-1 while the coefficient-sum test says it divides.  Exact when
    the remaining denominator is 1, a lower bound otherwise."""
    if c.is_zero():
        return INF
    p = c.ctx.n
    den_v = 0
    d = c.den
    while d % p == 0:
        d //= p
        den_v += 1
    x = c * (p ** den_v)
    v = 0
    pi_inv = cyc_inverse(c.ctx.zeta_power(1) - c.ctx.one())
    while x.den == 1 and sum(x.num) % p == 0:
        x = x * pi_inv
        v += 1
    return v - den_v * (p - 1)


@st.composite
def valuation_inputs(draw):
    """c * (zeta - 1)^k / p^j with c integral, and the p-free part u of the
    denominator that the reference needs cleared."""
    ctx = CycContext(draw(st.sampled_from((3, 5, 7))))
    p = ctx.n
    c = CycNumber(ctx, draw(st.lists(st.integers(-9, 9), min_size=p - 1, max_size=p - 1)))
    c = c * (ctx.zeta_power(1) - ctx.one()) ** draw(st.integers(0, 2 * p))
    u = draw(st.sampled_from((1, 2, 4, 11)))
    return c * Fraction(1, p ** draw(st.integers(0, 3)) * u), u


@settings(max_examples=150, deadline=None)
@given(valuation_inputs())
def test_valuation_matches_inverse_reference(case):
    c, u = case
    assert _zeta_minus_one_ord(c) == _valuation_by_inverse(c * u)
    assert _zeta_minus_one_ord(c * u) == _zeta_minus_one_ord(c)


def test_weight_bounds():
    for p in (3, 5):
        alg = WildAlgebra(p)
        assert weight_lower_bound(alg.y(1) - 1) == 1
        znz = alg.from_cyc(alg.ctx.zeta_power(1) - alg.ctx.one())
        assert weight_lower_bound(znz) == p
        alpha = build_alpha(alg)
        assert weight_lower_bound(alpha * p - p) == p - 1
        # exact on monomials: z-degree plus p times the coefficient valuation
        mono = alg.y(1, power=2) * (alg.ctx.zeta_power(1) - alg.ctx.one())
        assert weight_lower_bound(mono) == p  # y^2 is a unit: weight from zeta - 1
        assert weight_lower_bound(alg.zero()) == INF


def test_alpha_valuation_bound():
    assert alpha_valuation_bound(build_alpha(WildAlgebra(3)))[1] == -2
    assert alpha_valuation_bound(build_alpha(WildAlgebra(5)))[1] == -4
    assert alpha_valuation_bound(build_alpha(WildAlgebra(7)))[1] == -6
    with pytest.raises(PreconditionError):
        alpha_valuation_bound(WildAlgebra(3).y(1))  # not omega-invariant


@pytest.mark.parametrize("p", (3, 5, 7))
def test_alpha_valuation_bound_returns_the_weight_it_used(p):
    """The pair is the weight of p*alpha - p, computed on its own, and the
    bound that weight gives; check 08 and wild-verify report both."""
    alpha = build_alpha(WildAlgebra(p))
    assert alpha_valuation_bound(alpha) == (weight_lower_bound(alpha * p - p), 1 - p)


def test_elementary_products():
    assert elementary_product_check(3, 1)
    assert elementary_product_check(3, 2)
    with pytest.raises(PreconditionError):
        elementary_product_check(3, 0)
    with pytest.raises(PreconditionError):
        elementary_product_check(3, 4)


class RefWild:
    """Reference wild element: a filtered dict of exponent tuples, products
    term by term and scalars as one-term elements; kept as a test oracle."""

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {tuple(k): c for k, c in terms.items() if not c.is_zero()}

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return RefWild(self.alg, terms)

    def __mul__(self, other):
        if not isinstance(other, RefWild):
            cyc = other if isinstance(other, CycNumber) else self.alg.ctx.from_rational(other)
            other = RefWild(self.alg, {self.alg.unit_key: cyc})
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k, c = tuple(a + b for a, b in zip(k1, k2)), c1 * c2
                terms[k] = terms[k] + c if k in terms else c
        return RefWild(self.alg, terms)


def _random_pair(rng, alg, count):
    real, ref = alg.zero(), RefWild(alg, {})
    for _ in range(count):
        exps = tuple(rng.randint(-1, 1) for _ in range(alg.nvars))
        c = CycNumber(alg.ctx, [rng.randint(-2, 2) for _ in range(alg.ctx.phi)],
                      rng.choice((1, 3)))
        real, ref = real + alg.monomial(exps, c), ref + RefWild(alg, {exps: c})
    return real, ref


@pytest.mark.parametrize("p, copies", [(3, 1), (3, 2), (5, 1)])
def test_laurent_paths_match_the_wild_reference(p, copies):
    """Scalar products of each kind, one-term and general products, and sums
    whose keys cancel, all against the reference."""
    alg = WildAlgebra(p, copies)
    rng = random.Random(f"wild-ref:{p}:{copies}")
    for _ in range(25):
        (x, rx), (y, ry) = _random_pair(rng, alg, rng.randint(0, 4)), _random_pair(rng, alg, 1)
        c = CycNumber(alg.ctx, [rng.randint(-2, 2) for _ in range(alg.ctx.phi)])
        for s in (c, alg.ctx.zeta_power(1), alg.ctx.zero(), 0, -3, Fraction(0), Fraction(5, 3)):
            assert (x * s).terms == (rx * s).terms
            assert (s * x).terms == (rx * s).terms
        assert (x * y).terms == (rx * ry).terms
        assert (y * x).terms == (ry * rx).terms
        assert (x * x).terms == (rx * rx).terms
        assert (x + (-x)).terms == {}
        neg_y = RefWild(alg, {k: -c for k, c in ry.terms.items()})
        assert ((x + y) + (-y)).terms == ((rx + ry) + neg_y).terms


def test_wild_products_keep_their_errors():
    alg = WildAlgebra(3)
    for x in (alg.zero(), alg.y(1) + alg.y(2)):
        with pytest.raises(ConductorError):
            x * CycContext(5).one()
    with pytest.raises(PreconditionError, match="wrong arity"):
        alg.y(1) * alg.monomial((1, 0, 2), alg.ctx.one())
    with pytest.raises(PreconditionError, match="wrong arity"):
        alg.element(alg, {(1,): alg.ctx.one()})


@pytest.mark.parametrize("p, copies", [(3, 1), (3, 2), (5, 1)])
def test_dot_matches_the_fold_of_products(p, copies):
    """``dot`` equals the running sum of products and the reference fold; a
    CycNumber second operand is a constant."""
    alg = WildAlgebra(p, copies)
    rng = random.Random(f"wild-dot:{p}:{copies}")
    for _ in range(20):
        xs = [_random_pair(rng, alg, rng.randint(0, 4)) for _ in range(4)]
        c = CycNumber(alg.ctx, [rng.randint(-2, 2) for _ in range(alg.ctx.phi)],
                      rng.choice((1, 2, 3)))
        pairs = [(xs[0], xs[1]), (xs[2], xs[3]), (xs[1], (c, c)), (xs[3], xs[0])]
        got = alg.dot([(x, y) for (x, _), (y, _) in pairs])
        want, ref = alg.zero(), RefWild(alg, {})
        for (x, rx), (y, ry) in pairs:
            want, ref = want + x * y, ref + rx * ry
        assert got.terms == want.terms == ref.terms


def test_dot_drops_cancelled_keys():
    alg = WildAlgebra(3)
    y1, y2 = alg.y(1), alg.y(2)
    # (y1 + y2) y1 - y1 y1 = y1 y2: the key of y1^2 cancels
    assert alg.dot([(y1 + y2, y1), (-y1, y1)]).terms == (y1 * y2).terms
    assert alg.is_zero(alg.dot([(y1 + y2, y2 - 1), (-(y1 + y2), y2 - 1)]))
    assert alg.is_zero(alg.dot([]))
    with pytest.raises(PreconditionError, match="mixed local models"):
        alg.dot([(y1, WildAlgebra(3, 2).y(1))])
