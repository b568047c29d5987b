"""Tame local homomorphisms and the explicit ramified generator.

The model extension is F(pi^(1/e))/F with e odd dividing q-1.  A local
homomorphism is the pair (image of Frobenius, image of the inertia
generator); the generator map sends sigma^i to the i-th conjugate of

    alpha = (1/e) * sum_k  Pi^(k + (1-e)/2),        Pi = pi^(1/e),

and its resolvend factors as a unit times the transpose lift of the
prime element map f_s.  Everything here is verified by exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .cyclotomic import CycAlgebra, CycContext, cyc_det, galois_apply, root_of_unity
from .errors import (
    NotAGeneratorError,
    PreconditionError,
    SearchFailureError,
    TamenessError,
)
from .faults import ALPHA_UNNORMALIZED, is_active
from .groupring import (
    Resolvend,
    from_character_space,
    generator_certificate,
    invert_resolvend,
    nonintegral_coefficients,
    reduced_equal,
    to_character_space,
    transpose_lift,
    unit_certificate,
)
from .groups import FiniteAbelianGroup, GroupElement, element_order
from .localfield import LocalModel, prime_power_base
from .stickelberger import CharacterTable, DetKernelBasis, pairing_sign

# the unramified search tries coefficients in [-SEARCH_BOUND, SEARCH_BOUND]
# on at most SEARCH_SUPPORT roots of unity
SEARCH_BOUND = 2
SEARCH_SUPPORT = 3


@dataclass(frozen=True)
class TameHom:
    """A homomorphism out of the local Galois group, recorded by the images
    of Frobenius (t_phi) and of the inertia generator (s_sigma)."""

    group: FiniteAbelianGroup
    t_phi: GroupElement
    s_sigma: GroupElement
    q: int

    def __post_init__(self):
        object.__setattr__(self, "t_phi", self.group.element(self.t_phi))
        object.__setattr__(self, "s_sigma", self.group.element(self.s_sigma))
        e = element_order(self.group, self.s_sigma)
        if (self.q - 1) % e:
            raise TamenessError(f"inertia image has order {e}, not dividing q-1 = {self.q - 1}")
        if math.gcd(self.q, self.group.order) != 1:
            raise TamenessError("residue size q must be coprime to the group order")

    def level(self) -> int:
        """0 when unramified, 1 otherwise."""
        return 0 if self.s_sigma == self.group.identity else 1


def factorize(h: TameHom) -> tuple[TameHom, TameHom]:
    """Split into the unramified part (t, 1) and the totally ramified part (1, s)."""
    one = h.group.identity
    return (TameHom(h.group, h.t_phi, one, h.q), TameHom(h.group, one, h.s_sigma, h.q))


def prime_element_map(group: FiniteAbelianGroup, model: LocalModel,
                      s: GroupElement) -> Resolvend:
    """The map f_s on G sending s to the base uniformizer and all else to 1."""
    values = {x: model.one() for x in group.elements()}
    if s != group.identity:
        values[group.validate(s)] = model.pi_power(1)
    return Resolvend(group, model, values)


def build_model(e: int, q: int, conductor: int | None = None) -> LocalModel:
    if conductor is None:
        conductor = e if e > 1 else 1
    return LocalModel(e, q, conductor)


def _alpha(model: LocalModel):
    """(1/e) sum_k Pi^(k+(1-e)/2) in the Puiseux model; the fault switch
    drops the 1/e normalization."""
    e = model.e
    lo = (1 - e) // 2
    acc = model.zero()
    for k in range(e):
        acc = acc + model.pi_power(Fraction(k + lo, e))
    if is_active(ALPHA_UNNORMALIZED):
        return acc
    return acc * Fraction(1, e)


def tame_generator(group: FiniteAbelianGroup, s: GroupElement, q: int,
                   conductor: int | None = None) -> Resolvend:
    """Generator map for the totally ramified extension attached to s:
    supported on <s>, with a(s^i) = sigma^i(alpha)."""
    s = group.element(s)
    e = element_order(group, s)
    if (q - 1) % e:
        raise TamenessError(f"order {e} of s does not divide q-1 = {q - 1}")
    model = build_model(e, q, conductor)
    alpha = _alpha(model)
    values = {}
    current = alpha
    for i in range(e):
        values[group.scale(s, i)] = current
        current = model.sigma(current)
    return Resolvend(group, model, values)


def resolvent_table(a: Resolvend, s: GroupElement):
    """Yield one row (chi, <chi, s>, (a | chi), match) per character, in
    character order, where match says whether the resolvent of the generator
    attached to s equals pi^<chi, s>."""
    model = a.algebra
    table = CharacterTable(a.group)
    col = table.position(s)
    sign, m = pairing_sign(), a.group.exponent
    for (chi, value), row in zip(to_character_space(a).items(), table.rows):
        pairing = Fraction(sign * row[col], m)
        yield chi, pairing, value, value == model.pi_power(pairing)


def _conjugates(a: Resolvend, s: GroupElement) -> list:
    """[a(s^i) for i < e]: the conjugates sigma^i(alpha) when a is the
    generator attached to s, whose order must be the model's e."""
    span = a.group.cyclic_span(a.group.element(s))
    if len(span) != a.algebra.e:
        raise PreconditionError(f"s has order {len(span)}, not the model's e = {a.algebra.e}")
    return [a.value(g) for g in span]


def inversion_identity_check(a: Resolvend, s: GroupElement) -> bool:
    """sum_i a(s^i) zeta_e^(-(l+(1-e)/2) i) = Pi^(l+(1-e)/2) for all l, where
    a(s^i) = sigma^i(alpha) for the generator a attached to s."""
    model = a.algebra
    e = model.e
    lo = (1 - e) // 2
    conj = _conjugates(a, s)
    for l in range(e):
        twisted = model.dot([(conj[i], root_of_unity(model.ctx, e, -(l + lo) * i))
                             for i in range(e)])
        if twisted != model.pi_power(Fraction(l + lo, e)):
            return False
    return True


def basis_change_determinant(a: Resolvend, s: GroupElement):
    """Determinant of the matrix expressing the conjugates a(s^i) =
    sigma^i(alpha) in the power basis Pi^(k+(1-e)/2); a unit determinant
    certifies that the conjugates form a basis over the base ring."""
    model = a.algebra
    e = model.e
    lo = (1 - e) // 2
    return cyc_det([[x.terms.get(k + lo, model.ctx.zero()) for k in range(e)]
                    for x in _conjugates(a, s)])


def basis_change_is_unit(a: Resolvend, s: GroupElement) -> bool:
    """Whether the basis-change determinant is a unit at every prime above q.
    Exact, where a content order of 0 is not: 3 + zeta_3 has content order 0
    at 7 but norm 7."""
    det = basis_change_determinant(a, s)
    return _unit_above_p([det], det.ctx, a.algebra.p)


def decompose_tame_resolvend(h: TameHom, a: Resolvend, basis: DetKernelBasis) -> Resolvend:
    """Factor r(a) as u * lift(f_s) with s = h.s_sigma and return the unit
    part u: checks the generator certificate, builds u in character space,
    certifies u and u^{-1} integral, and verifies the factorization on the
    determinant kernel."""
    model = a.algebra
    group = a.group
    e = element_order(group, h.s_sigma)
    cert = generator_certificate(a, (1 - e) // 2)
    if not cert.ok:
        raise NotAGeneratorError("; ".join(cert.witnesses) or "certificate failed")
    vf = transpose_lift(prime_element_map(group, model, h.s_sigma))
    va = to_character_space(a)
    u = from_character_space(group, model,
                             {chi: va[chi] * model.inv(vf[chi]) for chi in va})
    if bad := nonintegral_coefficients(u, False):
        raise NotAGeneratorError(f"unit part not integral at {bad[0][0]}")
    if bad := nonintegral_coefficients(invert_resolvend(u), False):
        raise NotAGeneratorError(f"inverse of unit part not integral at {bad[0][0]}")
    if not reduced_equal(a, u * from_character_space(group, model, vf), basis):
        raise NotAGeneratorError("factorization fails reduced equality")
    return u


def recompose(u: Resolvend, s: GroupElement) -> Resolvend:
    """Inverse direction of the decomposition: u * lift(f_s)."""
    lift = transpose_lift(prime_element_map(u.group, u.algebra, s))
    return u * from_character_space(u.group, u.algebra, lift)


def _ord_mod(q: int, r: int) -> int:
    if r < 2:
        raise PreconditionError(f"modulus {r} is below 2")
    if math.gcd(q, r) != 1:
        raise PreconditionError(f"gcd({q}, {r}) != 1")
    k, acc = 1, q % r
    while acc != 1:
        acc = acc * q % r
        k += 1
    return k


def _search_candidates(r: int, bound: int, max_support: int):
    """Coefficient vectors on zeta_r^0..zeta_r^(r-1), ordered by L1 weight
    then lexicographically; deterministic."""
    for weight in range(1, bound * max_support + 1):
        for size in range(1, max_support + 1):
            weighted = [m for m in product(range(1, bound + 1), repeat=size) if sum(m) == weight]
            for positions in combinations(range(r), size):
                for mags in weighted:
                    for signs in product((1, -1), repeat=size):
                        yield tuple(zip(positions, (m * s for m, s in zip(mags, signs))))


def _fp_coprime_to_minpoly(coeffs: list, base: list, p: int) -> bool:
    """gcd of two polynomials over F_p is a nonzero constant (ascending
    coefficient lists)."""
    def trim(v):
        v = [c % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(base), trim(coeffs)
    while b:
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        rem = a[:]
        while rem and len(rem) - 1 >= db:
            c = rem[-1]
            if c:
                f = c * inv % p
                off = len(rem) - 1 - db
                for i in range(db + 1):
                    rem[off + i] = (rem[off + i] - f * b[i]) % p
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        a, b = b, rem
    return len(a) == 1


def _unit_above_p(values, ctx: CycContext, p: int) -> bool:
    """Whether every value is a unit at every prime above p.

    A value with p in a denominator is rejected.  Otherwise it is
    p-integral, the coefficient ring modulo p is F_p[x] modulo the reduced
    minimal polynomial, and the value is a unit above p exactly when its
    reduction is coprime to that polynomial; zero and multiples of p reduce
    to zero and are rejected.  This is an equivalence, not just a filter,
    but the caller still runs the full certificate on the survivor.
    """
    for v in values:
        coeffs = []
        for c in v.coefficients():
            den = c.denominator % p
            if den == 0:
                return False
            coeffs.append(c.numerator * pow(den, -1, p) % p)
        if not _fp_coprime_to_minpoly(coeffs, ctx.poly, p):
            return False
    return True


def unramified_generator_search(group: FiniteAbelianGroup, q: int, t: GroupElement,
                                r: int) -> Resolvend:
    """Bounded search for a normal-basis style generator of the degree-|t|
    unramified extension, modeled inside Q(zeta_r) with Frobenius zeta -> zeta^q.

    Returns the first map a(t^i) = phi^i(theta) whose resolvents are all
    units above p and which passes ``unit_certificate``.  Raises
    SearchFailureError when the bounded space is exhausted.
    """
    t = group.element(t)
    m = element_order(group, t)
    ctx = CycContext(math.lcm(group.exponent, r))
    p = prime_power_base(q)
    alg = CycAlgebra(ctx, p=p)
    if t == group.identity:
        return Resolvend(group, alg, {group.identity: alg.one()})
    if _ord_mod(q, r) != m:
        raise PreconditionError(f"ord_{r}({q}) = {_ord_mod(q, r)} != |t| = {m}")
    if math.gcd(q, ctx.n) != 1:
        raise PreconditionError(f"Frobenius exponent {q} not invertible mod {ctx.n}")
    # search and certify over the cyclic span; the certificate transfers to the
    # ambient group because resolvents there only see the restriction to <t>
    habs = FiniteAbelianGroup((m,))
    for cand in _search_candidates(r, SEARCH_BOUND, SEARCH_SUPPORT):
        theta = alg.dot([(root_of_unity(ctx, r, j), ctx.from_rational(coeff)) for j, coeff in cand])
        values = {}
        current = theta
        for i in range(m):
            values[(i,)] = current
            current = galois_apply(current, q)
        a = Resolvend(habs, alg, values)
        if _unit_above_p(to_character_space(a).values(), ctx, p) and unit_certificate(a).ok:
            return Resolvend(group, alg, {group.scale(t, i): values[(i,)] for i in range(m)})
    raise SearchFailureError(
        f"no certified generator with support <= {SEARCH_SUPPORT}, "
        f"coefficients in [-{SEARCH_BOUND},{SEARCH_BOUND}]")
