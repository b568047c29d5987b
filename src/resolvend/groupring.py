"""Resolvends: group-ring elements r(a) = sum_s a(s) s^{-1} attached to maps
a : G -> coefficients, together with the character-space isomorphism.

The coefficient algebra is duck-typed: exact cyclotomic numbers
(``CycAlgebra``) or either sparse Laurent algebra over Q(zeta_N) built on
``laurent`` -- the Puiseux model of ``localfield`` and the formal wild
algebra of ``wild``.  The algebra object exposes
zero/one/from_cyc/is_zero/inv/frac_power/val and the values carry exact
ring arithmetic.  Inversion always happens pointwise in character space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotGaloisOrbitError, NotInvertibleError, SingularResolvendError
from .groups import FiniteAbelianGroup, GroupElement
from .stickelberger import DetKernelBasis, char_inv, char_value, characters, stickelberger_pairing


class GMap:
    """Total map G -> A; entries missing from ``values`` read as zero."""

    def __init__(self, group: FiniteAbelianGroup, algebra, values: dict):
        self.group = group
        self.algebra = algebra
        self.values = {s: v for s, v in values.items() if not algebra.is_zero(v)}

    def value(self, s: GroupElement):
        return self.values.get(s, self.algebra.zero())

    def translate(self, t: GroupElement) -> "GMap":
        """(t . a)(s) = a(s t)."""
        return GMap(self.group, self.algebra,
                    {self.group.sub(s, t): v for s, v in self.values.items()})

    def map_values(self, fn) -> "GMap":
        return GMap(self.group, self.algebra, {s: fn(v) for s, v in self.values.items()})

    def into(self, algebra, fn) -> "GMap":
        return GMap(self.group, algebra, {s: fn(v) for s, v in self.values.items()})

    def __eq__(self, other):
        return (isinstance(other, GMap) and self.group == other.group
                and self.values == other.values)

    def __repr__(self):
        return f"GMap({self.group.spec}, {len(self.values)} nonzero)"


def unit_map(group: FiniteAbelianGroup, algebra, overrides: dict | None = None) -> GMap:
    """Map with value one everywhere, then explicit overrides."""
    values = {s: algebra.one() for s in group.elements()}
    if overrides:
        for s, v in overrides.items():
            values[group.validate(s)] = v
    return GMap(group, algebra, values)


class Resolvend:
    """Group-ring element sum_u coeffs[u] * u."""

    def __init__(self, group: FiniteAbelianGroup, algebra, coeffs: dict):
        self.group = group
        self.algebra = algebra
        self.coeffs = {u: v for u, v in coeffs.items() if not algebra.is_zero(v)}

    def coeff(self, u: GroupElement):
        return self.coeffs.get(u, self.algebra.zero())

    def __eq__(self, other):
        return (isinstance(other, Resolvend) and self.group == other.group
                and self.coeffs == other.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Resolvend):
            return NotImplemented
        out: dict = {}
        for u, x in self.coeffs.items():
            for w, y in other.coeffs.items():
                t = self.group.add(u, w)
                prod = x * y
                out[t] = out[t] + prod if t in out else prod
        return Resolvend(self.group, self.algebra, out)

    def __repr__(self):
        return f"Resolvend({self.group.spec}, {len(self.coeffs)} nonzero)"


def delta_resolvend(group: FiniteAbelianGroup, algebra, t: GroupElement) -> Resolvend:
    return Resolvend(group, algebra, {group.validate(t): algebra.one()})


def identity_resolvend(group: FiniteAbelianGroup, algebra) -> Resolvend:
    return delta_resolvend(group, algebra, group.identity)


def to_resolvend(a: GMap) -> Resolvend:
    """r(a) = sum_s a(s) s^{-1}: coefficient at u is a(u^{-1})."""
    return Resolvend(a.group, a.algebra,
                     {a.group.neg(s): v for s, v in a.values.items()})


def from_resolvend(r: Resolvend) -> GMap:
    return GMap(r.group, r.algebra, {r.group.neg(u): v for u, v in r.coeffs.items()})


def involution(r: Resolvend) -> Resolvend:
    """Coefficient-fixing involution s -> s^{-1}."""
    return Resolvend(r.group, r.algebra, {r.group.neg(u): v for u, v in r.coeffs.items()})


def resolvent(a: GMap, chi) -> object:
    """(a | chi) = sum_s a(s) chi(s)^{-1}."""
    alg = a.algebra
    acc = alg.zero()
    ichi = char_inv(a.group, chi)
    for s, v in a.values.items():
        acc = acc + v * char_value(a.group, ichi, s, alg.ctx)
    return acc


class CharacterVector:
    """Function on the dual group; the character-space image of a resolvend."""

    def __init__(self, group: FiniteAbelianGroup, algebra, values: dict):
        self.group = group
        self.algebra = algebra
        self.values = dict(values)

    def value(self, chi):
        return self.values[chi]

    def __eq__(self, other):
        return (isinstance(other, CharacterVector) and self.group == other.group
                and self.values == other.values)


def to_character_space(r: Resolvend) -> CharacterVector:
    """Evaluate sum_u c_u u at every character; a ring isomorphism."""
    alg = r.algebra
    values = {}
    for chi in characters(r.group):
        acc = alg.zero()
        for u, c in r.coeffs.items():
            acc = acc + c * char_value(r.group, chi, u, alg.ctx)
        values[chi] = acc
    return CharacterVector(r.group, alg, values)


def from_character_space(v: CharacterVector) -> Resolvend:
    """Inverse of to_character_space by orthogonality (divides by |G|)."""
    alg = v.algebra
    group = v.group
    scale = Fraction(1, group.order)
    coeffs = {}
    for u in group.elements():
        acc = alg.zero()
        for chi, val in v.values.items():
            acc = acc + val * char_value(group, char_inv(group, chi), u, alg.ctx)
        coeffs[u] = acc * scale
    return Resolvend(group, alg, coeffs)


def invert_resolvend(r: Resolvend) -> Resolvend:
    """Pointwise inversion in character space; exact."""
    v = to_character_space(r)
    inv_values = {}
    for chi, val in v.values.items():
        if r.algebra.is_zero(val):
            raise SingularResolvendError(f"resolvent vanishes at character {chi}")
        inv_values[chi] = r.algebra.inv(val)
    return from_character_space(CharacterVector(r.group, r.algebra, inv_values))


def trace_pairing_identity_check(a: GMap, b: GMap) -> bool:
    """r(a) r(b)^{[-1]} = sum_s Tr((s.a) b) s^{-1}, both sides computed
    independently: left in the group ring, right through the trace form."""
    lhs = to_resolvend(a) * involution(to_resolvend(b))
    group, alg = a.group, a.algebra
    coeffs = {}
    for s in group.elements():
        shifted = a.translate(group.neg(s))  # (s^{-1} . a)(t) = a(t s^{-1})
        acc = alg.zero()
        for t in group.elements():
            acc = acc + shifted.value(t) * b.value(t)
        coeffs[s] = acc
    rhs = Resolvend(group, alg, coeffs)
    return lhs == rhs


@dataclass
class CertificateReport:
    ok: bool
    membership_ok: bool
    unit_ok: bool
    witnesses: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "membership_ok": self.membership_ok,
                "unit_ok": self.unit_ok, "witnesses": list(self.witnesses)}


def generator_certificate(a: GMap, v_floor: int) -> CertificateReport:
    """Generator test over a local model: valuation floor on all values of a,
    then u = r(a) r(a)^{[-1]} integral, base-field rational, with integral
    inverse.  Witnesses name the first few failures."""
    model = a.algebra
    witnesses: list[str] = []
    membership_ok = True
    for s in a.group.elements():
        val = model.val(a.value(s))
        if val < v_floor:
            membership_ok = False
            witnesses.append(f"v(a({','.join(map(str, s))})) = {val} < {v_floor}")
    unit_ok = True
    r = to_resolvend(a)
    try:
        u = r * involution(r)
        for g, c in u.coeffs.items():
            if model.val(c) < 0:
                unit_ok = False
                witnesses.append(f"v(u at {g}) = {model.val(c)} < 0")
            if not model.in_base_field(c):
                unit_ok = False
                witnesses.append(f"u at {g} leaves the base field")
        u_inv = invert_resolvend(u)
        for g, c in u_inv.coeffs.items():
            if model.val(c) < 0:
                unit_ok = False
                witnesses.append(f"v(u^-1 at {g}) = {model.val(c)} < 0")
            if not model.in_base_field(c):
                unit_ok = False
                witnesses.append(f"u^-1 at {g} leaves the base field")
    except (SingularResolvendError, NotInvertibleError) as exc:
        unit_ok = False
        witnesses.append(f"unit test failed: {exc}")
    return CertificateReport(membership_ok and unit_ok, membership_ok, unit_ok, witnesses[:8])


def unit_certificate(a: GMap) -> CertificateReport:
    """Unramified-style unit test: r(a) and r(a)^{-1} both integral."""
    alg = a.algebra
    witnesses: list[str] = []
    ok = True
    for s, v in a.values.items():
        if alg.val(v) < 0:
            ok = False
            witnesses.append(f"v(a({s})) = {alg.val(v)} < 0")
    try:
        r_inv = invert_resolvend(to_resolvend(a))
        for g, c in r_inv.coeffs.items():
            if alg.val(c) < 0:
                ok = False
                witnesses.append(f"v(r^-1 at {g}) = {alg.val(c)} < 0")
    except (SingularResolvendError, NotInvertibleError) as exc:
        ok = False
        witnesses.append(f"not invertible: {exc}")
    return CertificateReport(ok, ok, ok, witnesses[:8])


def transpose_lift(g: GMap) -> CharacterVector:
    """Character-space lift of a unit-valued map: chi -> prod over s != 1 of
    g(s)^<chi,s>, with the fractional powers taken in the coefficient algebra."""
    group, alg = g.group, g.algebra
    one = alg.one()
    values = {}
    for chi in characters(group):
        acc = one
        for s in group.elements():
            if s == group.identity:
                continue
            v = g.value(s)
            ex = stickelberger_pairing(group, chi, s)
            if ex == 0 or v == one:
                continue
            acc = acc * alg.frac_power(v, ex)
        values[chi] = acc
    return CharacterVector(group, alg, values)


def resolvend_inverse_transport(a: GMap) -> GMap:
    """The map a' with r(a') = r(a)^{-1}."""
    return from_resolvend(invert_resolvend(to_resolvend(a)))


def resolvend_product_transport(a1: GMap, a2: GMap) -> GMap:
    """The map a with r(a) = r(a1) r(a2); direct convolution on G."""
    group, alg = a1.group, a1.algebra
    out: dict = {}
    for s1, v1 in a1.values.items():
        for s2, v2 in a2.values.items():
            s = group.add(s1, s2)
            prod = v1 * v2
            out[s] = out[s] + prod if s in out else prod
    return GMap(group, alg, out)


def reduced_equal(r1: Resolvend, r2: Resolvend, basis: DetKernelBasis) -> bool:
    """Equality of reduced resolvends: same values on every determinant-kernel
    basis vector, i.e. equality up to multiplication by a group element."""
    v1 = to_character_space(r1)
    v2 = to_character_space(r2)
    for vec in (v1, v2):
        for chi, val in vec.values.items():
            if r1.algebra.is_zero(val):
                raise SingularResolvendError(f"resolvent vanishes at character {chi}")
    for combo in basis.combos():
        acc1 = r1.algebra.one()
        acc2 = r1.algebra.one()
        for chi, mult in combo.items():
            acc1 = acc1 * (v1.values[chi] ** mult)
            acc2 = acc2 * (v2.values[chi] ** mult)
        if acc1 != acc2:
            return False
    return True


def associated_hom(a: GMap, automorphisms) -> dict[str, GroupElement]:
    """For each named coefficient automorphism w, the unique t in G with
    w(a) = t . a (equivalently w(r(a)) = r(a) t)."""
    group = a.group
    out: dict[str, GroupElement] = {}
    for name, fn in automorphisms:
        twisted = a.map_values(fn)
        found = None
        for t in group.elements():
            if twisted == a.translate(t):
                found = t
                break
        if found is None:
            raise NotGaloisOrbitError(f"{name} does not act through the group on this map")
        out[name] = found
    return out
