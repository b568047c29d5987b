import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resolvend.cyclotomic import (
    CycAlgebra,
    CycContext,
    CycNumber,
    _bareiss_inverse,
    _poly_mul,
    content_ord,
    cyc_det,
    cyc_dot,
    cyc_inverse,
    cyc_root,
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
    PreconditionError,
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


def _euclid_inverse(x: CycNumber) -> CycNumber:
    """Reference inverse: the extended Euclidean algorithm over Q[z] against
    Phi_N, on lists of Fractions, tracking only the cofactor of x."""
    r0 = [Fraction(c) for c in x.ctx.poly]
    r1 = [Fraction(c, x.den) for c in x.num]
    while r1 and r1[-1] == 0:
        r1.pop()
    t0: list[Fraction] = []
    t1 = [Fraction(1)]

    def sub_scaled(a, b, c, shift):
        out = list(a) + [Fraction(0)] * max(0, len(b) + shift - len(a))
        for i, y in enumerate(b):
            out[i + shift] -= c * y
        while out and out[-1] == 0:
            out.pop()
        return out

    while len(r1) > 1:
        while len(r0) >= len(r1):
            c = r0[-1] / r1[-1]
            shift = len(r0) - len(r1)
            r0 = sub_scaled(r0, r1, c, shift)
            t0 = sub_scaled(t0, t1, c, shift)
            if not r0:
                break
        r0, r1, t0, t1 = r1, r0, t1, t0
    inv = [c / r1[0] for c in t1]
    inv += [Fraction(0)] * (x.ctx.phi - len(inv))
    return sum((x.ctx.zeta_power(k) * c for k, c in enumerate(inv[: x.ctx.phi])), x.ctx.zero())


@st.composite
def cyc_elements(draw):
    ctx = CycContext(draw(st.sampled_from((3, 5, 7, 9, 15, 21, 57))))
    num = draw(st.lists(st.integers(-4, 4), min_size=ctx.phi, max_size=ctx.phi))
    return CycNumber(ctx, num, draw(st.integers(1, 12)))


@settings(max_examples=80, deadline=None)
@given(cyc_elements())
def test_inverse_matches_euclid(x):
    assume(not x.is_zero())
    inv = cyc_inverse(x)
    assert inv == _euclid_inverse(x)
    assert x * inv == x.ctx.one()


@pytest.mark.parametrize("n", [3, 5, 7, 9, 21, 57])
def test_inverse_table_matches_a_fresh_elimination(n):
    """Each lookup, hit or miss, equals an elimination that bypasses the
    table; a repeated value, even as a new object, gets the stored number."""
    ctx = CycContext(n)
    rng = random.Random(f"inverse-table:{n}")
    pool: list[CycNumber] = []
    while len(pool) < 5:
        x = CycNumber(ctx, [rng.randint(-3, 3) for _ in range(ctx.phi)],
                      rng.choice((1, 2, 6, -3)))
        if not x.is_rational():
            pool.append(x)
    pool.append(pool[0] * Fraction(1, 7))  # same num, another den
    assert pool[-1].num == pool[0].num and pool[-1].den != pool[0].den
    assert any(x.den > 1 for x in pool) and any(min(x.num) < 0 for x in pool)
    for x in pool + [rng.choice(pool) for _ in range(15)]:
        x = CycNumber(ctx, x.num, x.den)
        inv = cyc_inverse(x)
        assert inv == _bareiss_inverse(x)
        assert x * inv == ctx.one()
        assert ctx.inverses[(x.num, x.den)] is inv
        assert cyc_inverse(x) is inv


def test_inverse_tables_are_per_conductor():
    """Q(zeta_7) and Q(zeta_9) both have phi = 6: one coefficient tuple names
    a different number in each, so each gets its own inverse."""
    num = (1, 2, 0, -1, 0, 3)
    a, b = CycNumber(CycContext(7), num, 2), CycNumber(CycContext(9), num, 2)
    inv_a, inv_b = cyc_inverse(a), cyc_inverse(b)
    assert inv_a == _euclid_inverse(a) and inv_a.ctx.n == 7
    assert inv_b == _euclid_inverse(b) and inv_b.ctx.n == 9
    assert inv_a.num != inv_b.num
    assert cyc_inverse(a) is inv_a and cyc_inverse(b) is inv_b
    assert CycContext(7).inverses is not CycContext(9).inverses


def test_zero_never_enters_the_inverse_table():
    ctx = CycContext(57)
    before = dict(ctx.inverses)
    for _ in range(3):
        with pytest.raises(NotInvertibleError):
            cyc_inverse(ctx.zero())
    assert ctx.inverses == before


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


def test_cyc_det_needs_a_square_matrix():
    ctx = CycContext(3)
    wide = [[ctx.zeta_power(i + j) for j in range(9)] for i in range(3)]
    with pytest.raises(PreconditionError):
        cyc_det(wide)
    with pytest.raises(PreconditionError):
        cyc_det([])
    with pytest.raises(PreconditionError):
        cyc_det([[ctx.one(), ctx.one()], [ctx.one()]])


def cyc_from_json(data: dict) -> CycNumber:
    """Reads back what ``cyc_to_json`` writes: sum_k c_k zeta^k."""
    ctx = CycContext(int(data["N"]))
    return sum((ctx.zeta_power(k) * Fraction(c) for k, c in enumerate(data["coeffs"])), ctx.zero())


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
    assert cyc_root(z * z, Fraction(1, 2)) == z
    # a non-root has no fractional power at all
    with pytest.raises(NotARootError):
        cyc_root(ctx.one() * 7, Fraction(1, 2))
    # a root of unity whose exponent does not divide is rejected separately
    with pytest.raises(FractionalPowerError):
        cyc_root(z, Fraction(1, 2))


def _remainder_mod_phi(vec, poly) -> list[int]:
    """Remainder of an integer polynomial on long division by the monic
    Phi_N, as phi coefficients; reads neither ``zetas`` nor the sparse rows."""
    out = list(vec)
    d = len(poly) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for i, p in enumerate(poly):
                out[k - d + i] -= c * p
    return out[:d] + [0] * max(0, d - len(out))


def _product_by_reduction(x: CycNumber, y: CycNumber) -> CycNumber:
    """Reference product: dense schoolbook product, then long division by Phi_N."""
    prod = [0] * (len(x.num) + len(y.num) - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            prod[i + j] += a * b
    return CycNumber(x.ctx, _remainder_mod_phi(prod, x.ctx.poly), x.den * y.den)


def _galois_by_division(x: CycNumber, k: int) -> CycNumber:
    """Reference automorphism: send zeta^j to x^(jk mod N), divide by Phi_N."""
    vec = [0] * x.ctx.n
    for j, c in enumerate(x.num):
        vec[(j * k) % x.ctx.n] += c
    return CycNumber(x.ctx, _remainder_mod_phi(vec, x.ctx.poly), x.den)


def _galois_by_dense_rows(x: CycNumber, k: int) -> CycNumber:
    """Reference automorphism: the sum of c_j times the root zetas[jk]."""
    ctx = x.ctx
    out = [0] * ctx.phi
    for j, c in enumerate(x.num):
        row = ctx.zetas[(j * k) % ctx.n].num
        for i in range(ctx.phi):
            out[i] += c * row[i]
    return CycNumber(ctx, out, x.den)


PRODUCT_CONDUCTORS = (3, 5, 7, 9, 15, 21, 57)


def _operands(ctx: CycContext, rng: random.Random) -> dict[str, CycNumber]:
    """One operand of each shape the product kernels treat differently."""
    phi = ctx.phi

    def nonzero():
        return rng.choice((-5, -2, -1, 1, 3, 4))

    def sparse():
        num = [0] * phi
        for i in rng.sample(range(1, phi), min(2, phi - 1)):
            num[i] = nonzero()
        num[0] = rng.choice((0, nonzero()))
        return num

    return {
        "sparse": CycNumber(ctx, sparse()),
        "dense": CycNumber(ctx, [nonzero() for _ in range(phi)]),
        "root": ctx.zeta_power(rng.randrange(1, ctx.n)),
        "negated-root": -ctx.zeta_power(rng.randrange(1, ctx.n)),
        "rational": ctx.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
        "sparse-over-den": CycNumber(ctx, sparse(), rng.choice((2, 3, 10))),
        "dense-over-den": CycNumber(ctx, [nonzero() for _ in range(phi)], rng.choice((-4, 6, 9))),
    }


@pytest.mark.parametrize("n", PRODUCT_CONDUCTORS)
def test_sparse_products_match_division_by_phi(n):
    """Every product, including the closed form at conductor 3, equals a
    dense schoolbook product divided by Phi_N, field by field."""
    ctx = CycContext(n)
    rng = random.Random(f"sparse-products:{n}")
    for _ in range(4):
        operands = _operands(ctx, rng)
        for name_x, x in operands.items():
            for name_y, y in operands.items():
                got, want = _fields(x * y), _fields(_product_by_reduction(x, y))
                assert got == want, (name_x, name_y)


@pytest.mark.parametrize("n", PRODUCT_CONDUCTORS)
def test_sparse_rows_match_division_by_phi(n):
    """Each sparse row is x^k divided by Phi_N, the roots of unity hold the
    same entries, and reduction agrees with division."""
    ctx = CycContext(n)
    assert len(ctx.zetas) == n
    assert len(ctx.xpow_terms) == max(n, 2 * ctx.phi - 1)
    for k, terms in enumerate(ctx.xpow_terms):
        row = _remainder_mod_phi([0] * k + [1], ctx.poly)
        assert terms == tuple((i, c) for i, c in enumerate(row) if c)
        if k < n:
            assert ctx.zetas[k].num == tuple(row)
    rng = random.Random(f"sparse-rows:{n}")
    for length in (ctx.phi, ctx.phi + 1, 2 * ctx.phi - 1, len(ctx.xpow_terms)):
        vec = [rng.choice((0, 0, -3, 1, 7)) for _ in range(length)]
        assert list(ctx.reduce(vec)) == _remainder_mod_phi(vec, ctx.poly)
    with pytest.raises(PreconditionError, match=f"at least phi = {ctx.phi} coefficients, got 1"):
        ctx.reduce([7])


def test_roots_of_unity_are_built_once_per_conductor():
    """Each zetas[k] is x^k divided by Phi_N, over denominator 1, at every odd
    conductor from 3 to 57; zeta_power and root_of_unity hand out those same
    objects for any integer exponent, negative ones included."""
    for n in range(3, 58, 2):
        ctx = CycContext(n)
        assert len(ctx.zetas) == n
        for k, z in enumerate(ctx.zetas):
            assert (list(z.num), z.den) == (_remainder_mod_phi([0] * k + [1], ctx.poly), 1)
            assert ctx.zeta_power(k) is z
            assert ctx.zeta_power(k - 3 * n) is z
        assert root_of_unity(ctx, n, -1) is ctx.zetas[n - 1]


@pytest.mark.parametrize("n", PRODUCT_CONDUCTORS)
def test_galois_action_matches_the_dense_rows(n):
    ctx = CycContext(n)
    rng = random.Random(f"galois-rows:{n}")
    units = [k for k in range(1, 2 * n) if gcd(k, n) == 1]
    for x in _operands(ctx, rng).values():
        for k in rng.sample(units, min(4, len(units))) + [-1]:
            got = _fields(galois_apply(x, k))
            assert got == _fields(_galois_by_dense_rows(x, k % n))
            assert got == _fields(_galois_by_division(x, k))


def test_coefficient_vectors_must_have_phi_entries():
    """A short vector would truncate sums and a long one would break the
    product kernels, so both are refused when the number is built."""
    ctx = CycContext(9)
    for num in ([1, 2, 3], [1] * 7, []):
        for den in (1, -2):
            with pytest.raises(PreconditionError):
                CycNumber(ctx, num, den)
    x = CycNumber(ctx, [1] * 6)
    assert (x + x).num == (2,) * 6
    with pytest.raises(PreconditionError):
        CycNumber(CycContext(3), (1, 2, 3))


@st.composite
def scalar_products(draw):
    ctx = CycContext(draw(st.sampled_from((3, 9, 15, 57))))
    num = draw(st.lists(st.integers(-4, 4), min_size=ctx.phi, max_size=ctx.phi))
    x = CycNumber(ctx, num, draw(st.integers(1, 12)))
    r = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 30)))
    kind = draw(st.sampled_from(("int", "fraction", "cyc")))
    if kind == "int":
        r = Fraction(r.numerator)
    scalar = r.numerator if kind == "int" else r if kind == "fraction" else ctx.from_rational(r)
    return x, scalar, ctx.from_rational(r)


@settings(max_examples=120, deadline=None)
@given(scalar_products())
def test_scalar_product_matches_reduction(data):
    x, scalar, as_cyc = data
    expected = _product_by_reduction(x, as_cyc)
    for got in (x * scalar, scalar * x, as_cyc * x):
        assert (got.num, got.den) == (expected.num, expected.den)


def _sum_by_normalising(x: CycNumber, y: CycNumber) -> CycNumber:
    """Reference sum over the common denominator, normalised by ``CycNumber()``."""
    return CycNumber(x.ctx, tuple(a * y.den + b * x.den for a, b in zip(x.num, y.num)),
                     x.den * y.den)


def _scaled_by_normalising(x: CycNumber, r: Fraction) -> CycNumber:
    """Reference product with a rational, normalised by ``CycNumber()``."""
    return CycNumber(x.ctx, tuple(c * r.numerator for c in x.num), x.den * r.denominator)


def _fields(x: CycNumber):
    assert type(x.num) is tuple and len(x.num) == x.ctx.phi
    assert x.den > 0 and gcd(x.den, *x.num) == 1, "not in lowest terms"
    return x.ctx.n, x.num, x.den


@pytest.mark.parametrize("n", (3, 9, 21, 57))
def test_fast_paths_match_the_normalising_route(n):
    """Integral sums, scalings and products skip the gcd pass; every result
    equals the one ``CycNumber()`` normalises, field by field."""
    ctx = CycContext(n)
    rng = random.Random(f"fast-paths:{n}")
    operands = [ctx.zero(), ctx.one(), -ctx.one(), ctx.zeta_power(1),
                ctx.from_rational(5), ctx.from_rational(Fraction(-3, 4))]
    for den in (1, 1, 1, 2, 3, 6, -4):
        operands.append(CycNumber(ctx, [rng.randint(-4, 4) for _ in range(ctx.phi)], den))
    operands.append(CycNumber(ctx, [2 * rng.randint(-2, 2) for _ in range(ctx.phi)], 4))
    scalars = (0, 1, -1, 3, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 9))
    for x in operands:
        _fields(x)
        assert _fields(-x) == _fields(_scaled_by_normalising(x, Fraction(-1)))
        assert x * 1 is x and 1 * x is x and x * ctx.one() is x
        for r in scalars:
            want = _fields(_scaled_by_normalising(x, Fraction(r)))
            as_cyc = ctx.from_rational(r)
            for got in (x * r, r * x, x * as_cyc, as_cyc * x):
                assert _fields(got) == want
        for y in operands:
            assert _fields(x + y) == _fields(_sum_by_normalising(x, y))
            assert _fields(x - y) == _fields(_sum_by_normalising(x, -y))
            assert _fields(x * y) == _fields(_product_by_reduction(x, y))


@st.composite
def content_inputs(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    ctx = CycContext(draw(st.sampled_from([n for n in (3, 5, 7, 9, 15, 21) if n % p])))
    m = draw(st.integers(-3, 3))
    j = draw(st.integers(0, ctx.n - 1))

    def general():
        num = draw(st.lists(st.integers(-4, 4), min_size=ctx.phi, max_size=ctx.phi))
        scale = Fraction(p) ** draw(st.integers(-2, 2))
        return CycNumber(ctx, num, draw(st.sampled_from((1, 2, p)))) * scale

    return CycAlgebra(ctx, p), m, j, general(), general()


@settings(max_examples=80, deadline=None)
@given(content_inputs())
def test_algebra_val_is_a_lower_bound(data):
    alg, m, j, x, y = data
    # exact on monomials p^m zeta^j
    assert alg.val(alg.ctx.zeta_power(j) * Fraction(alg.p) ** m) == m
    assert alg.val(x + y) >= min(alg.val(x), alg.val(y))
    assert alg.val(x * y) >= alg.val(x) + alg.val(y)


def test_algebra_val_is_only_a_lower_bound():
    # 7 = (3 + zeta_3)(3 + zeta_3^2) splits: each factor lies in one prime above 7
    ctx = CycContext(3)
    alg = CycAlgebra(ctx, 7)
    x, y = ctx.zeta_power(1) + 3, ctx.zeta_power(2) + 3
    assert x * y == ctx.from_rational(7)
    assert alg.val(x) == alg.val(y) == 0
    assert alg.val(x * y) == 1


@st.composite
def dot_pairs(draw, conductors=range(3, 58, 2)):
    """Up to six pairs at one odd conductor in 3..57, with denominators 1..12,
    each operand rational or not."""
    ctx = CycContext(draw(st.sampled_from(conductors)))

    def operand():
        den = draw(st.integers(1, 12))
        if draw(st.booleans()):
            return ctx.from_rational(Fraction(draw(st.integers(-6, 6)), den))
        return CycNumber(ctx, draw(st.lists(st.integers(-4, 4), min_size=ctx.phi,
                                            max_size=ctx.phi)), den)

    return ctx, [(operand(), operand()) for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=150, deadline=None)
@given(dot_pairs())
def test_dot_matches_the_fold_of_products(data):
    """One pass over a common denominator equals the running sum of lone
    products, field by field, so the result is in lowest terms."""
    ctx, pairs = data
    want = ctx.zero()
    for x, y in pairs:
        want = want + x * y
    for got in (cyc_dot(ctx, pairs), CycAlgebra(ctx).dot(pairs)):
        assert _fields(got) == _fields(want)


def _vector_dot(ctx: CycContext, pairs) -> CycNumber:
    """Reference sum of products at any conductor: each ``_poly_mul``
    product enters a vector of 2 phi - 1 coefficients over the common
    denominator, reduced by ``ctx.reduce`` once at the end.  This is the loop
    ``cyc_dot`` runs at every conductor but 3."""
    acc, den = [0] * (2 * ctx.phi - 1), 1
    for x, y in pairs:
        d = x.den * y.den
        g = den // gcd(den, d) * d
        acc = [c * (g // den) for c in acc]
        den = g
        for k, c in enumerate(_poly_mul(x.num, y.num)):
            acc[k] += c * (g // d)
    return CycNumber(ctx, ctx.reduce(acc), den)


@settings(max_examples=200, deadline=None)
@given(dot_pairs(conductors=(3,)), st.booleans())
def test_conductor_3_dot_matches_the_vector_loop(data, cancel):
    """The closed form equals the polynomial route field by field, on empty
    sums, on sums over mixed denominators and on sums that cancel."""
    ctx, pairs = data
    if cancel:
        pairs += [(-x, y) for x, y in pairs]
    want = _fields(_vector_dot(ctx, pairs))
    assert _fields(cyc_dot(ctx, pairs)) == want
    if cancel or not pairs:
        assert want == _fields(ctx.zero())


def test_dot_of_nothing_is_zero_and_mixed_conductors_raise():
    """A foreign operand on either side raises ConductorError before any of
    its coefficients are read, at conductor 3 as elsewhere."""
    for n, others in ((9, (3, 27)), (3, (9, 27))):
        ctx = CycContext(n)
        assert _fields(cyc_dot(ctx, [])) == _fields(ctx.zero())
        x = ctx.zeta_power(1)
        assert _fields(cyc_dot(ctx, [(x, x), (-x, x)])) == _fields(ctx.zero())
        for other in others:
            y = CycContext(other).zeta_power(1)
            for pair in ((x, y), (y, x)):
                with pytest.raises(ConductorError):
                    cyc_dot(ctx, [pair])
