"""Resolvends: group-ring elements r(a) = sum_s a(s) s^{-1} attached to maps
a : G -> coefficients, together with the character-space isomorphism.

One type, ``Resolvend``, is both: it stores the map (``values[s]`` = a(s),
read through ``value``) and shows the group-ring coefficients
c_u = a(u^{-1}) as ``coeffs``.  The product r(a1) r(a2) is r of the
convolution of a1 and a2, and ``involution`` (u -> u^{-1} on coefficients,
s -> s^{-1} on the map) is the one reindexing.

The coefficient algebra is duck-typed: exact cyclotomic numbers
(``CycAlgebra``) or either sparse Laurent algebra over Q(zeta_N) built on
``laurent`` -- the Puiseux model of ``localfield`` and the formal wild
algebra of ``wild``.  The algebra object exposes ``ctx`` and
zero/one/is_zero/inv/frac_power/val, a local model for
``generator_certificate`` also ``in_base_field``, and the values carry
exact ring arithmetic.  Inversion always happens pointwise in character space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotGaloisOrbitError, NotInvertibleError, SingularResolvendError
from .groups import FiniteAbelianGroup, GroupElement
from .stickelberger import (
    CharacterTable,
    DetKernelBasis,
    char_inv,
    characters,
    pairing_sign,
)


class Resolvend:
    """The group-ring element r(a) = sum_s a(s) s^{-1} of a map a : G -> A.

    It is stored as the map: ``values[s] = a(s)``, entries missing from
    ``values`` read as zero.  ``coeffs`` is the group-ring view
    c_u = a(u^{-1})."""

    def __init__(self, group: FiniteAbelianGroup, algebra, values: dict):
        self.group = group
        self.algebra = algebra
        self.values = {s: v for s, v in values.items() if not algebra.is_zero(v)}

    def value(self, s: GroupElement):
        return self.values.get(s, self.algebra.zero())

    @property
    def coeffs(self) -> dict:
        """Group-ring coefficients {u: c_u}, a fresh dict on each access."""
        return {self.group.neg(s): v for s, v in self.values.items()}

    def translate(self, t: GroupElement) -> "Resolvend":
        """(t . a)(s) = a(s t)."""
        return Resolvend(self.group, self.algebra,
                         {self.group.sub(s, t): v for s, v in self.values.items()})

    def map_values(self, fn) -> "Resolvend":
        return Resolvend(self.group, self.algebra, {s: fn(v) for s, v in self.values.items()})

    def into(self, algebra, fn) -> "Resolvend":
        return Resolvend(self.group, algebra, {s: fn(v) for s, v in self.values.items()})

    def __eq__(self, other):
        return (isinstance(other, Resolvend) and self.group == other.group
                and self.values == other.values)

    def __mul__(self, other):
        if not isinstance(other, Resolvend):
            return NotImplemented
        return resolvend_product_transport(self, other)

    def __repr__(self):
        return f"Resolvend({self.group.spec}, {len(self.values)} nonzero)"


def unit_map(group: FiniteAbelianGroup, algebra, overrides: dict | None = None) -> Resolvend:
    """Map with value one everywhere, then explicit overrides."""
    values = {s: algebra.one() for s in group.elements()}
    if overrides:
        for s, v in overrides.items():
            values[group.validate(s)] = v
    return Resolvend(group, algebra, values)


def delta_resolvend(group: FiniteAbelianGroup, algebra, t: GroupElement) -> Resolvend:
    """The group element t, i.e. the map with value one at t^{-1}."""
    return Resolvend(group, algebra, {group.neg(group.validate(t)): algebra.one()})


def identity_resolvend(group: FiniteAbelianGroup, algebra) -> Resolvend:
    return delta_resolvend(group, algebra, group.identity)


def involution(r: Resolvend) -> Resolvend:
    """Coefficient-fixing involution s -> s^{-1}."""
    return Resolvend(r.group, r.algebra, {r.group.neg(s): v for s, v in r.values.items()})


def resolvent(a: Resolvend, chi) -> object:
    """(a | chi) = sum_s a(s) chi(s)^{-1}, reading one row of chi^{-1}."""
    alg, group = a.algebra, a.group
    table = CharacterTable(group)
    table.position(chi)  # a character outside the group raises here
    roots = table.roots(char_inv(group, chi), alg.ctx)
    position = table.position
    acc = alg.zero()
    for s, v in a.values.items():
        acc = acc + v * roots[position(s)]
    return acc


class CharacterVector:
    """Function on the dual group; the character-space image of a resolvend."""

    def __init__(self, group: FiniteAbelianGroup, algebra, values: dict):
        self.group = group
        self.algebra = algebra
        self.values = dict(values)

    def __eq__(self, other):
        return (isinstance(other, CharacterVector) and self.group == other.group
                and self.values == other.values)


def to_character_space(r: Resolvend) -> CharacterVector:
    """Evaluate sum_u c_u u = sum_s a(s) s^{-1} at every character; a ring
    isomorphism."""
    return CharacterVector(r.group, r.algebra,
                           {chi: resolvent(r, chi) for chi in characters(r.group)})


def from_character_space(v: CharacterVector) -> Resolvend:
    """Inverse of to_character_space by orthogonality (divides by |G|):
    c_u = (1/|G|) sum_chi v(chi) chi(u)^{-1}, stored as a(u^{-1})."""
    alg = v.algebra
    group = v.group
    table = CharacterTable(group)
    rows = [(val, table.roots(chi, alg.ctx)) for chi, val in v.values.items()]
    scale = Fraction(1, group.order)
    values = {}
    for u in group.elements():
        s = group.neg(u)
        j = table.index[s]
        acc = alg.zero()
        for val, roots in rows:
            acc = acc + val * roots[j]
        values[s] = acc * scale
    return Resolvend(group, alg, values)


def invert_resolvend(r: Resolvend) -> Resolvend:
    """Pointwise inversion in character space; exact."""
    v = to_character_space(r)
    inv_values = {}
    for chi, val in v.values.items():
        if r.algebra.is_zero(val):
            raise SingularResolvendError(f"resolvent vanishes at character {chi}")
        inv_values[chi] = r.algebra.inv(val)
    return from_character_space(CharacterVector(r.group, r.algebra, inv_values))


def trace_pairing_identity_check(a: Resolvend, b: Resolvend) -> bool:
    """r(a) r(b)^{[-1]} = sum_s Tr((s.a) b) s^{-1}, both sides computed
    independently: left in the group ring, right through the trace form."""
    lhs = a * involution(b)
    group, alg = a.group, a.algebra
    values = {}
    for s in group.elements():
        acc = alg.zero()
        for t, bt in b.values.items():
            at_ts = a.values.get(group.add(t, s))  # (s . a)(t) = a(t s)
            if at_ts is not None:
                acc = acc + at_ts * bt
        values[s] = acc
    rhs = Resolvend(group, alg, values)
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


def generator_certificate(a: Resolvend, v_floor: int) -> CertificateReport:
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
    try:
        u = a * involution(a)
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


def unit_certificate(a: Resolvend) -> CertificateReport:
    """Unramified-style unit test: r(a) and r(a)^{-1} both integral."""
    alg = a.algebra
    witnesses: list[str] = []
    ok = True
    for s, v in a.values.items():
        if alg.val(v) < 0:
            ok = False
            witnesses.append(f"v(a({s})) = {alg.val(v)} < 0")
    try:
        r_inv = invert_resolvend(a)
        for g, c in r_inv.coeffs.items():
            if alg.val(c) < 0:
                ok = False
                witnesses.append(f"v(r^-1 at {g}) = {alg.val(c)} < 0")
    except (SingularResolvendError, NotInvertibleError) as exc:
        ok = False
        witnesses.append(f"not invertible: {exc}")
    return CertificateReport(ok, ok, ok, witnesses[:8])


def transpose_lift(g: Resolvend) -> CharacterVector:
    """Character-space lift of a unit-valued map: chi -> prod over s != 1 of
    g(s)^<chi,s>, with the fractional powers taken in the coefficient algebra
    and <chi, s> = c/exp(G) read from the character table."""
    group, alg = g.group, g.algebra
    table = CharacterTable(group)
    sign, m = pairing_sign(), group.exponent
    one = alg.one()
    support = [(j, v) for j, v in enumerate(map(g.value, group.elements()))
               if j and v != one]  # position 0 is the identity
    values = {}
    for chi, row in zip(characters(group), table.rows):
        acc = one
        for j, v in support:
            if row[j]:
                acc = acc * alg.frac_power(v, Fraction(sign * row[j], m))
        values[chi] = acc
    return CharacterVector(group, alg, values)


def resolvend_product_transport(a1: Resolvend, a2: Resolvend) -> Resolvend:
    """r(a1) r(a2), which is r(a) for the convolution a of a1 and a2 on G."""
    group, alg = a1.group, a1.algebra
    out: dict = {}
    for s1, v1 in a1.values.items():
        for s2, v2 in a2.values.items():
            s = group.add(s1, s2)
            prod = v1 * v2
            out[s] = out[s] + prod if s in out else prod
    return Resolvend(group, alg, out)


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


def associated_hom(a: Resolvend, automorphisms) -> dict[str, GroupElement]:
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
