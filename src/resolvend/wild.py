"""Formal algebra for the wild generator construction.

Everything happens in a Laurent-polynomial algebra over Q(zeta_p), built on
the core of ``laurent``, on commuting variables y_1 .. y_{p-1} (one block
per "copy" when several independent towers are multiplied together).  The
variables stand for the p-th roots x_i^(1/p) of the division-field units;
all the identities the construction needs hold formally once the Galois
actions

    omega_j:  y_i -> y_{ji},   zeta -> zeta^{c(j^{-1})}
    tau^c(j): y_i -> zeta^{c(i^{-1}) c(-1) c(j)} y_i

are imposed, and valuations are tracked by a weight that assigns
weight(y_i - 1) = 1, weight(zeta - 1) = p, weight(p) = p(p-1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .cyclotomic import CycContext, CycNumber, cyc_inverse, galois_apply
from .errors import FractionalPowerError, PreconditionError
from .faults import OMEGA_UNINVERTED, is_active
from .groupring import Resolvend, delta_resolvend, involution, to_character_space, transpose_lift
from .groups import FiniteAbelianGroup, GroupElement, element_order, prime_factors
from .laurent import SCALARS, LaurentAlgebra, LaurentElement, _product, _scaled
from .stickelberger import CharacterTable

INF = float("inf")


def centered(p: int, i: int) -> int:
    """The representative of i mod p in [(1-p)/2, (p-1)/2]."""
    half = (p - 1) // 2
    return (i + half) % p - half


def omega_exponent(p: int, j: int) -> int:
    """Cyclotomic exponent of omega_j, the centered representative of j^{-1};
    the fault switch drops the inversion."""
    j = j % p
    if j == 0:
        raise PreconditionError("omega index must be a unit mod p")
    if is_active(OMEGA_UNINVERTED):
        return centered(p, j)
    return centered(p, pow(j, -1, p))


def _key_sum(e1: tuple, e2: tuple) -> tuple:
    return tuple(a + b for a, b in zip(e1, e2))


class WildElement(LaurentElement):
    """Finite Laurent combination of monomials in the y-variables."""

    __slots__ = ()

    def __init__(self, algebra: "WildAlgebra", terms: dict):
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != algebra.nvars:
                raise PreconditionError("exponent vector has the wrong arity")
            if not c.is_zero():
                clean[exps] = c
        self.algebra = algebra
        self.terms = clean

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._merged(o)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return _scaled(self, other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self, o)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "Wild(0)"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(f"y{k+1}^{e}" for k, e in enumerate(exps) if e) or "1"
            bits.append(f"{self.terms[exps]!r}*{mono}")
        return "Wild(" + " + ".join(bits) + ")"


class WildAlgebra(LaurentAlgebra):
    """Laurent algebra Q(zeta_p)[y_i^{+-1}] with `copies` disjoint variable blocks."""

    element = WildElement
    key_type = tuple
    key_sum = staticmethod(_key_sum)
    name = "formal algebra"
    _cache: dict = {}

    def __new__(cls, p: int, copies: int = 1):
        key = (p, copies)
        if key in cls._cache:
            return cls._cache[key]
        if p < 3 or prime_factors(p) != {p: 1}:
            raise PreconditionError(f"p = {p} is not an odd prime")
        if copies < 1:
            raise PreconditionError("need at least one variable block")
        self = super().__new__(cls)
        self.p = p
        self.copies = copies
        self.nvars = copies * (p - 1)
        self.unit_key = (0,) * self.nvars
        self.ctx = CycContext(p)
        cls._cache[key] = self
        return self

    def __repr__(self):
        return f"WildAlgebra(p={self.p}, copies={self.copies})"

    def var_index(self, i: int, copy: int = 0) -> int:
        if not 1 <= i <= self.p - 1:
            raise PreconditionError(f"variable index {i} out of range")
        if not 0 <= copy < self.copies:
            raise PreconditionError(f"copy {copy} out of range")
        return copy * (self.p - 1) + (i - 1)

    def scale_key(self, exps: tuple, e) -> tuple:
        new = []
        for n in exps:
            ne = n * e
            if ne.denominator != 1:
                raise FractionalPowerError(f"exponent {ne} is not integral")
            new.append(ne.numerator)
        return tuple(new)

    def y(self, i: int, power: int = 1) -> WildElement:
        """y_i^power in the first variable block."""
        exps = [0] * self.nvars
        exps[self.var_index(i)] = power
        return self.monomial(exps, self.ctx.one())

    def standard_monomial(self, k: int, copy: int = 0) -> WildElement:
        """prod_i y_i^{c(ik)} on one variable block."""
        exps = [0] * self.nvars
        for i in range(1, self.p):
            exps[self.var_index(i, copy)] = centered(self.p, i * k)
        return self.monomial(exps, self.ctx.one())

    def is_unit_monomial(self, x: WildElement) -> bool:
        """Single Laurent term whose coefficient is a unit of Z[zeta_p]."""
        if len(x.terms) != 1:
            return False
        (_, c), = x.terms.items()
        if c.den != 1:
            return False
        return cyc_inverse(c).den == 1


# -- Galois actions ----------------------------------------------------------


def omega_action(x: WildElement, j: int) -> WildElement:
    """y_i -> y_{ji} in every block, zeta -> zeta^{c(j^{-1})} on coefficients."""
    alg = x.algebra
    p = alg.p
    k = omega_exponent(p, j) % p
    terms = {}
    for exps, c in x.terms.items():
        new = [0] * alg.nvars
        for copy in range(alg.copies):
            for i in range(1, p):
                new[alg.var_index(j * i % p, copy)] = exps[alg.var_index(i, copy)]
        terms[tuple(new)] = galois_apply(c, k)
    return WildElement(alg, terms)


def tau_action(x: WildElement, j: int, copy: int = 0) -> WildElement:
    """tau~^{c(j)}: y_i -> zeta^{c(i^{-1}) c(-1) c(j)} y_i on the given block,
    coefficients and other blocks fixed."""
    alg = x.algebra
    p = alg.p
    cj = centered(p, j)
    cm1 = centered(p, -1)
    terms = {}
    for exps, c in x.terms.items():
        phase = 0
        for i in range(1, p):
            phase += omega_exponent(p, i) * cm1 * cj * exps[alg.var_index(i, copy)]
        terms[exps] = c * alg.ctx.zeta_power(phase % p)
    return WildElement(alg, terms)


def is_omega_invariant(x: WildElement) -> bool:
    return all(omega_action(x, j) == x for j in range(1, x.algebra.p))


# -- the generator element ---------------------------------------------------


def build_alpha(alg: WildAlgebra, copy: int = 0) -> WildElement:
    """alpha = (1/p) sum_k prod_i y_i^{c(ik)}; omega-invariant by construction."""
    acc = alg.zero()
    for k in range(alg.p):
        acc = acc + alg.standard_monomial(k, copy)
    return acc * Fraction(1, alg.p)


def wild_generator(group: FiniteAbelianGroup, t: GroupElement,
                   algebra: WildAlgebra | None = None, copy: int = 0) -> Resolvend:
    """The map a(t^{c(j)}) = tau~^{c(j)}(alpha), supported on <t>."""
    t = group.element(t)
    p = element_order(group, t)
    alg = algebra or WildAlgebra(p)
    if alg.p != p:
        raise PreconditionError(f"algebra is for p = {alg.p}, |t| = {p}")
    alpha = build_alpha(alg, copy)
    values = {}
    for j in range(p):
        values[group.scale(t, centered(p, j))] = tau_action(alpha, j, copy)
    return Resolvend(group, alg, values)


def pth_power_map(group: FiniteAbelianGroup, t: GroupElement,
                  algebra: WildAlgebra) -> Resolvend:
    """g(t^{c(i)}) = x_i := y_i^p for i != 0, and 1 at the identity."""
    p = algebra.p
    t = group.element(t)
    values = {group.identity: algebra.one()}
    for i in range(1, p):
        values[group.scale(t, centered(p, i))] = algebra.y(i, power=p)
    return Resolvend(group, algebra, values)


# -- the verified identities --------------------------------------------------


def tau_scaling_check(p: int) -> bool:
    """tau~^{c(j)}(prod_i y_i^{c(ik)}) = zeta^{c(jk)} prod_i y_i^{c(ik)} for all j, k."""
    alg = WildAlgebra(p)
    for k in range(p):
        mono = alg.standard_monomial(k)
        for j in range(p):
            want = mono * alg.ctx.zeta_power(centered(p, j * k) % p)
            if tau_action(mono, j) != want:
                return False
    return True


def wild_resolvent_identity(a: Resolvend, t: GroupElement) -> bool:
    """Three-way equality for the wild generator a attached to t, at every
    character chi of <t> with chi(t) = zeta^{c(k)}:
    resolvent(a, chi) = prod_i y_i^{c(ik)} = transpose-lift of g at chi."""
    group, alg = a.group, a.algebra
    t = group.element(t)
    lift = transpose_lift(pth_power_map(group, t, alg))
    table = CharacterTable(group)
    step = group.exponent // alg.p
    for chi, value in to_character_space(a).items():
        # chi(t) = zeta_exp^m with (exp/p) | m, so chi(t) = zeta_p^(m / step)
        mono = alg.standard_monomial(table.value(chi, t) // step)
        if value != mono or lift[chi] != mono:
            return False
    return True


# -- weights ------------------------------------------------------------------


def _zeta_minus_one_ord(c: CycNumber):
    """Exact (zeta_p - 1)-adic valuation of c in Q(zeta_p).

    zeta - 1 divides integral a(zeta) iff p | a(1); then a / (zeta - 1) is the
    synthetic quotient of a(z) - (a(1)/p) Phi_p(z) by z - 1.  A factor p of the
    denominator counts p - 1; the rest of the denominator is a unit."""
    if c.is_zero():
        return INF
    p = c.ctx.n
    a = c.num
    v = 0
    while sum(a) % p == 0:
        m = sum(a) // p
        a = list(accumulate(m - x for x in a))
        v += 1
    d = c.den
    while d % p == 0:
        d //= p
        v -= p - 1
    return v


def weight_lower_bound(x: WildElement):
    """Certified lower bound for v_{L(zeta)}(x): rewrite in z_i = y_i - 1 and
    take the minimum of (sum of z-exponents) + p * ord_{zeta-1}(coefficient).
    Exact on monomials; a lower bound in general."""
    alg = x.algebra
    p = alg.p
    if not x.terms:
        return INF
    # clear negative exponents with a unit monomial shift
    shift = [0] * alg.nvars
    for exps in x.terms:
        for k, e in enumerate(exps):
            shift[k] = max(shift[k], -e)
    # expand each shifted monomial in the z-basis, coefficients stay exact
    zterms: dict = {}
    for exps, c in x.terms.items():
        expansion = {(0,) * alg.nvars: c}
        for k, e in enumerate(exps):
            n = e + shift[k]
            if n == 0:
                continue
            # y^n = sum_m C(n, m) z^m
            row = [1]
            for _ in range(n):
                row = [a + b for a, b in zip(row + [0], [0] + row)]
            new: dict = {}
            for zexp, zc in expansion.items():
                for m, binom in enumerate(row):
                    if binom == 0:
                        continue
                    key = zexp[:k] + (zexp[k] + m,) + zexp[k + 1:]
                    add = zc * binom
                    new[key] = new[key] + add if key in new else add
            expansion = new
        for zexp, zc in expansion.items():
            zterms[zexp] = zterms[zexp] + zc if zexp in zterms else zc
    best = INF
    for zexp, zc in zterms.items():
        if zc.is_zero():
            continue
        w = sum(zexp) + p * _zeta_minus_one_ord(zc)
        best = min(best, w)
    return best


def alpha_valuation_bound(alpha: WildElement):
    """The certified chain: weight_lower_bound(p*alpha - p) >= 1 and alpha
    omega-invariant give v_L(alpha) >= ceil((W - p(p-1))/(p-1)) with
    W = min(bound, p(p-1)); the target inequality is v_L(alpha) >= 1 - p."""
    p = alpha.algebra.p
    if not is_omega_invariant(alpha):
        raise PreconditionError("alpha is not omega-invariant; no descent to L")
    w = weight_lower_bound(alpha * p - p)
    if w == INF:
        return INF
    scaled = min(w, p * (p - 1)) - p * (p - 1)
    num = Fraction(scaled, p - 1)
    return -((-num.numerator) // num.denominator)  # ceil


# -- unit resolvents and products ---------------------------------------------


def wild_unit_resolvents(a: Resolvend) -> bool:
    """Every resolvent of the wild generator a is a unit monomial and
    r(a) r(a)^{[-1]} = 1."""
    group, alg = a.group, a.algebra
    values = to_character_space(a)
    for chi, value in values.items():
        if not alg.is_unit_monomial(value) or value * values[group.neg(chi)] != alg.one():
            return False
    return a * involution(a) == delta_resolvend(group, alg, group.identity)


def elementary_product_check(p: int, r: int) -> bool:
    """Product construction on (Z/p)^r: convolve r independent wild generators
    (disjoint variable blocks) and confirm that every resolvent of the product
    is the product of the per-block resolvents and a unit monomial."""
    if r < 1 or r > 3:
        raise PreconditionError("block count out of the supported range")
    group = FiniteAbelianGroup((p,) * r)
    alg = WildAlgebra(p, copies=r)
    gens = []
    for copy in range(r):
        coords = [0] * r
        coords[copy] = 1
        gens.append(wild_generator(group, group.element(coords), alg, copy))
    a = gens[0]
    for b in gens[1:]:
        a = a * b
    blocks = [to_character_space(g) for g in gens]
    for chi, value in to_character_space(a).items():
        if not alg.is_unit_monomial(value):
            return False
        prod = alg.one()
        for block in blocks:
            prod = prod * block[chi]
        if value != prod:
            return False
    return True
