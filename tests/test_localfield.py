"""Ramification filtrations and the Puiseux coefficient model."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvend.cyclotomic import (
    CycContext,
    CycNumber,
    content_ord,
    cyc_inverse,
    cyc_root,
    cyc_to_json,
    galois_apply,
    root_of_unity,
)
from resolvend.errors import (
    ConductorError,
    FractionalPowerError,
    NotARootError,
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
    filt = RamFiltration((9, 3, 3, 1))
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
            c = CycNumber(model.ctx, [rng.randrange(-4, 5) for _ in range(6)])
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
    names = [name for name, _ in model.galois_twists()]
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


def cyc_from_json(data: dict) -> CycNumber:
    """Reads back what ``cyc_to_json`` writes: sum_k c_k zeta^k."""
    ctx = CycContext(int(data["N"]))
    return sum((ctx.zeta_power(k) * Fraction(c) for k, c in enumerate(data["coeffs"])), ctx.zero())


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


# ---------------------------------------------------------------------------
# the Fraction-keyed reference model and the lower-bound property of val


class RefPuiseux:
    """Reference Puiseux sum keyed by the Fraction exponent r of pi^r, the
    representation the integer keys replaced; kept as a test oracle."""

    def __init__(self, model, terms):
        clean = {}
        for r, c in terms.items():
            r = Fraction(r)
            if model.e % r.denominator != 0:
                raise FractionalPowerError(f"exponent {r} leaves (1/{model.e})Z")
            if not c.is_zero():
                clean[r] = c
        self.model = model
        self.terms = clean

    def __add__(self, other):
        terms = dict(self.terms)
        for r, c in other.terms.items():
            terms[r] = terms[r] + c if r in terms else c
        return RefPuiseux(self.model, terms)

    def __mul__(self, other):
        terms = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                r, c = r1 + r2, c1 * c2
                terms[r] = terms[r] + c if r in terms else c
        return RefPuiseux(self.model, terms)

    def inv(self):
        (r, c), = self.terms.items()
        return RefPuiseux(self.model, {-r: cyc_inverse(c)})

    def frac_power(self, e):
        (r, c), = self.terms.items()
        root = cyc_root(c, e)
        return RefPuiseux(self.model, {r * e: root})

    def sigma(self):
        m = self.model
        terms = {}
        for r, c in self.terms.items():
            k = int(r * m.e)
            terms[r] = c * root_of_unity(m.ctx, m.e, k) if k % m.e else c
        return RefPuiseux(m, terms)

    def phi(self):
        return RefPuiseux(self.model, {r: galois_apply(c, self.model.q)
                                       for r, c in self.terms.items()})

    def val(self):
        m = self.model
        if not self.terms:
            return INF
        return min(int(r * m.e) + m.e * content_ord(c, m.p) for r, c in self.terms.items())

    def in_base_field(self):
        if any(r.denominator != 1 for r in self.terms):
            return False
        return self.phi().terms == self.terms

    def to_json(self):
        return [{"exponent": str(r), "coeff": cyc_to_json(self.terms[r])}
                for r in sorted(self.terms)]

    def __repr__(self):
        if not self.terms:
            return "Puiseux(0)"
        bits = [f"pi^{r}*{c!r}" for r, c in sorted(self.terms.items())]
        return "Puiseux(" + " + ".join(bits) + ")"


MODELS = {3: (3, 7, 9), 9: (9, 19, 9)}


@st.composite
def coefficients(draw, model):
    """A general coefficient, or p^m zeta^j, whose content order is m."""
    ctx, p = model.ctx, model.p
    if draw(st.booleans()):
        num = draw(st.lists(st.integers(-3, 3), min_size=ctx.phi, max_size=ctx.phi))
        den = draw(st.sampled_from((1, 2, p, 3 * p, p * p)))
        return CycNumber(ctx, [c * draw(st.sampled_from((1, 1, p))) for c in num], den)
    m = draw(st.integers(-2, 2))
    return ctx.zeta_power(draw(st.integers(0, ctx.n - 1))) * Fraction(p) ** m


@st.composite
def element_pairs(draw, model, max_terms=3):
    """(PuiseuxElement, RefPuiseux) built from the same terms."""
    e = model.e
    real, ref = model.zero(), RefPuiseux(model, {})
    for _ in range(draw(st.integers(0, max_terms))):
        r = Fraction(draw(st.integers(-2 * e, 2 * e)), e)
        c = draw(coefficients(model))
        real = real + model.monomial(r, c)
        ref = ref + RefPuiseux(model, {r: c})
    return real, ref


def assert_same(x, ref):
    model = x.algebra
    assert {Fraction(k, model.e): c for k, c in x.terms.items()} == ref.terms
    assert model.to_json(x) == ref.to_json()
    assert repr(x) == repr(ref)
    assert model.val(x) == ref.val()
    assert model.in_base_field(x) == ref.in_base_field()


@st.composite
def model_and_pairs(draw, count=2, max_terms=3):
    model = LocalModel(*MODELS[draw(st.sampled_from(sorted(MODELS)))])
    return model, [draw(element_pairs(model, max_terms)) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(model_and_pairs())
def test_integer_keys_match_fraction_reference(data):
    model, ((x, rx), (y, ry)) = data
    for real, ref in ((x, rx), (y, ry), (x + y, rx + ry), (x * y, rx * ry)):
        assert_same(real, ref)
    assert_same(model.sigma(x), rx.sigma())
    assert_same(model.phi(x), rx.phi())
    if len(x.terms) == 1:
        assert_same(model.inv(x), rx.inv())


FRACTIONAL = [Fraction(a, b) for a, b in ((1, 3), (2, 3), (-1, 3), (1, 9), (-4, 9), (1, 2), (5, 3))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(-18, 18), st.integers(0, 8),
       st.sampled_from((1, 1, 2)), st.sampled_from(FRACTIONAL))
def test_frac_power_matches_fraction_reference(e, k, j, scale, f):
    """Results, and errors in the same order: a missing coefficient root
    before an exponent that leaves (1/e)Z."""
    model = LocalModel(*MODELS[e])
    c = model.ctx.zeta_power(j) * scale
    x, rx = model.monomial(Fraction(k, e), c), RefPuiseux(model, {Fraction(k, e): c})
    try:
        expected = rx.frac_power(f)
    except (FractionalPowerError, NotARootError) as exc:
        with pytest.raises(type(exc)) as got:
            model.frac_power(x, f)
        assert str(got.value) == str(exc)
    else:
        assert_same(model.frac_power(x, f), expected)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(-20, 20), st.integers(-3, 3),
       st.integers(0, 8))
def test_val_is_exact_on_monomials(e, k, m, j):
    model = LocalModel(*MODELS[e])
    c = model.ctx.zeta_power(j) * Fraction(model.p) ** m
    assert model.val(model.monomial(Fraction(k, e), c)) == k + e * m


@settings(max_examples=60, deadline=None)
@given(model_and_pairs())
def test_val_is_a_lower_bound_on_sums_and_products(data):
    model, ((x, _), (y, _)) = data
    assert model.val(x + y) >= min(model.val(x), model.val(y))
    assert model.val(x * y) >= model.val(x) + model.val(y)


def test_val_is_only_a_lower_bound():
    # 7 splits in Q(zeta_3): (3 + zeta_3)(3 + zeta_3^2) = 7, so both factors
    # have content order 0 while their product has content order 1
    model = LocalModel(3, 7, 9)
    x = model.from_cyc(model.ctx.zeta_power(3) + 3)
    y = model.from_cyc(model.ctx.zeta_power(6) + 3)
    assert x * y == model.from_rational(7)
    assert model.val(x) == model.val(y) == 0
    assert model.val(x * y) == 3 > model.val(x) + model.val(y)


# ---------------------------------------------------------------------------
# scalar products, sums and one-term products against the reference


@settings(max_examples=60, deadline=None)
@given(model_and_pairs(count=1), st.data())
def test_scalar_products_match_the_coerced_reference(data, draws):
    """x * c for each scalar kind equals the reference product with c as a
    one-term element, on both sides; a zero scalar leaves no terms."""
    model, ((x, rx),) = data
    c = draws.draw(coefficients(model))
    for s in (c, model.ctx.zero(), model.ctx.from_rational(Fraction(-2, 7)),
              0, 3, -1, Fraction(0), Fraction(2, 21)):
        cyc = s if isinstance(s, CycNumber) else model.ctx.from_rational(s)
        expected = rx * RefPuiseux(model, {0: cyc})
        assert_same(x * s, expected)
        assert_same(s * x, expected)
    assert (x * 0).terms == {} and (x * model.ctx.zero()).terms == {}


@settings(max_examples=60, deadline=None)
@given(model_and_pairs())
def test_sums_drop_only_cancelled_keys(data):
    model, ((x, rx), (y, ry)) = data
    assert (x + (-x)).terms == {}
    assert (x - x) == model.zero()
    assert_same((x + y) + (-y), (rx + ry) + RefPuiseux(model, {
        r: -c for r, c in ry.terms.items()}))
    assert_same(-x, RefPuiseux(model, {r: -c for r, c in rx.terms.items()}))


@settings(max_examples=60, deadline=None)
@given(model_and_pairs(count=1, max_terms=4), st.integers(-6, 6), st.data())
def test_one_term_products_match_the_reference(data, k, draws):
    model, ((x, rx),) = data
    r, c = Fraction(k, model.e), draws.draw(coefficients(model))
    mono, ref = model.monomial(r, c), RefPuiseux(model, {r: c})
    assert_same(mono * x, ref * rx)
    assert_same(x * mono, rx * ref)


def test_general_products_drop_cancelled_cross_terms():
    model = LocalModel(3, 7, 9)
    t = model.pi_power(Fraction(1, 3))
    product = (t + 1) * (t - 1)
    assert product.terms == {2: model.ctx.one(), 0: -model.ctx.one()}


def test_scalar_products_keep_their_errors():
    model = LocalModel(3, 7, 9)
    foreign = CycContext(5).one()
    for x in (model.zero(), model.pi_power(Fraction(1, 3)) + 1):
        with pytest.raises(ConductorError):
            x * foreign
        with pytest.raises(ConductorError):
            foreign * x
    with pytest.raises(PreconditionError, match="mixed local models"):
        model.one() * LocalModel(3, 7, 57).pi_power(1)
    with pytest.raises(TypeError):
        model.one() * 0.5


# ---------------------------------------------------------------------------
# sums of products in one pass


@settings(max_examples=60, deadline=None)
@given(model_and_pairs(count=4), st.data())
def test_dot_matches_the_fold_of_products(data, draws):
    """``dot`` equals the running sum of products and the reference fold; a
    CycNumber second operand is a constant."""
    model, elems = data
    c = draws.draw(coefficients(model))
    pairs = [(elems[0], elems[1]), (elems[2], elems[3]),
             (elems[1], (c, RefPuiseux(model, {0: c}))), (elems[3], elems[0])]
    got = model.dot([(x, y) for (x, _), (y, _) in pairs])
    want, ref = model.zero(), RefPuiseux(model, {})
    for (x, rx), (y, ry) in pairs:
        want, ref = want + x * y, ref + rx * ry
    assert got.terms == want.terms
    assert_same(got, ref)


def test_dot_drops_cancelled_keys_and_keeps_its_errors():
    model = LocalModel(3, 7, 9)
    t = model.pi_power(Fraction(1, 3))
    # (t + 1) t - t t = t: the key of t^2 cancels
    assert model.dot([(t + 1, t), (-t, t)]).terms == {1: model.ctx.one()}
    assert model.is_zero(model.dot([(t + 1, t - 1), (-(t + 1), t - 1)]))
    assert model.is_zero(model.dot([]))
    with pytest.raises(PreconditionError, match="mixed local models"):
        model.dot([(t, LocalModel(3, 7, 57).pi_power(1))])
    with pytest.raises(PreconditionError, match="mixed local models"):
        model.dot([(LocalModel(3, 7, 57).pi_power(1), t)])
    foreign = CycContext(5).one()
    for pairs in ([(t, foreign)], [(t + 1, foreign), (t, foreign)]):
        with pytest.raises(ConductorError):
            model.dot(pairs)
