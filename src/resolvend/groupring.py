"""Resolvends: group-ring elements r(a) = sum_s a(s) s^{-1} attached to maps
a : G -> coefficients, together with the character-space isomorphism.

One type, ``Resolvend``, is both: it stores the map (``values[s]`` = a(s),
read through ``value``) and shows the group-ring coefficients
c_u = a(u^{-1}) as ``coeffs``.  The product r(a1) r(a2) is r of the
convolution of a1 and a2, and ``involution`` (u -> u^{-1} on coefficients,
s -> s^{-1} on the map) is the one reindexing.

Characters are the group's own tuples (see ``stickelberger``), so a value in
character space is a plain dict {chi: (a | chi)}.  The character table is
symmetric, so one transform serves both directions: the inverse reads the
dict as a map on G and takes its resolvents.

The coefficient algebra is duck-typed: exact cyclotomic numbers
(``CycAlgebra``) or either sparse Laurent algebra over Q(zeta_N) built on
``laurent`` -- the Puiseux model of ``localfield`` and the formal wild
algebra of ``wild``.  The algebra object exposes ``ctx`` and
zero/one/is_zero/inv/frac_power/val and ``dot`` (the sum of x * y over a
list of pairs, a CycNumber y acting as a constant, in one pass), a local
model for ``generator_certificate`` also ``in_base_field``, and the values
carry exact ring arithmetic.  Every sum of products here -- convolution,
resolvents, the trace form -- is one ``dot`` per output value.  Inversion
always happens pointwise in character space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotGaloisOrbitError, NotInvertibleError, SingularResolvendError
from .groups import FiniteAbelianGroup, GroupElement
from .stickelberger import CharacterTable, DetKernelBasis, pairing_sign


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


def delta_resolvend(group: FiniteAbelianGroup, algebra, t: GroupElement) -> Resolvend:
    """The group element t, i.e. the map with value one at t^{-1}."""
    return Resolvend(group, algebra, {group.neg(group.validate(t)): algebra.one()})


def involution(r: Resolvend) -> Resolvend:
    """Coefficient-fixing involution s -> s^{-1}."""
    return Resolvend(r.group, r.algebra, {r.group.neg(s): v for s, v in r.values.items()})


def resolvent(a: Resolvend, chi) -> object:
    """(a | chi) = sum_s a(s) chi(s)^{-1}, reading one row of chi^{-1}, as
    one ``dot`` over the pairs (a(s), chi(s)^{-1})."""
    alg, group = a.algebra, a.group
    table = CharacterTable(group)
    table.row(chi)  # a character outside the group raises here
    roots = table.roots(group.neg(chi), alg.ctx)
    position = table.position
    return alg.dot([(v, roots[position(s)]) for s, v in a.values.items()])


def to_character_space(r: Resolvend) -> dict:
    """Evaluate sum_u c_u u = sum_s a(s) s^{-1} at every character; a ring
    isomorphism onto {chi: (a | chi)}."""
    return {chi: resolvent(r, chi) for chi in r.group.elements()}


def from_character_space(group: FiniteAbelianGroup, algebra, values: dict) -> Resolvend:
    """Inverse of to_character_space by orthogonality: with v read as a map on
    G, a(s) = (1/|G|) (v | s^{-1}), since chi(s) = s(chi)."""
    v = Resolvend(group, algebra, values)
    scale = Fraction(1, group.order)
    return Resolvend(group, algebra,
                     {group.neg(u): resolvent(v, u) * scale for u in group.elements()})


def invert_resolvend(r: Resolvend) -> Resolvend:
    """Pointwise inversion in character space; exact."""
    inv_values = {}
    for chi, val in to_character_space(r).items():
        if r.algebra.is_zero(val):
            raise SingularResolvendError(f"resolvent vanishes at character {chi}")
        inv_values[chi] = r.algebra.inv(val)
    return from_character_space(r.group, r.algebra, inv_values)


def trace_pairing_identity_check(a: Resolvend, b: Resolvend) -> bool:
    """r(a) r(b)^{[-1]} = sum_s Tr((s.a) b) s^{-1}, both sides computed
    independently: left in the group ring, right through the trace form."""
    lhs = a * involution(b)
    group, alg, av = a.group, a.algebra, a.values
    # (s . a)(t) = a(t s)
    rhs = Resolvend(group, alg, {
        s: alg.dot([(av[ts], bt) for t, bt in b.values.items() if (ts := group.add(t, s)) in av])
        for s in group.elements()})
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


def transpose_lift(g: Resolvend) -> dict:
    """Character-space lift of a unit-valued map: chi -> prod over s != 1 of
    g(s)^<chi,s>, with the fractional powers taken in the coefficient algebra
    and <chi, s> = c/exp(G) read from the character table.  Each power
    g(s)^(c/exp(G)) is taken once and shared by the characters with that c."""
    group, alg = g.group, g.algebra
    table = CharacterTable(group)
    sign, m = pairing_sign(), group.exponent
    one = alg.one()
    support = [(j, v, {}) for j, v in enumerate(map(g.value, group.elements()))
               if j and v != one]  # position 0 is the identity
    values = {}
    for chi, row in zip(group.elements(), table.rows):
        acc = one
        for j, v, powers in support:
            c = row[j]
            if c:
                if c not in powers:
                    powers[c] = alg.frac_power(v, Fraction(sign * c, m))
                acc = acc * powers[c]
        values[chi] = acc
    return values


def resolvend_product_transport(a1: Resolvend, a2: Resolvend) -> Resolvend:
    """r(a1) r(a2), which is r(a) for the convolution a of a1 and a2 on G:
    the pairs (a1(s1), a2(s2)) bucketed by s1 + s2, one ``dot`` per bucket."""
    group, alg = a1.group, a1.algebra
    buckets: dict = {}
    for s1, v1 in a1.values.items():
        for s2, v2 in a2.values.items():
            buckets.setdefault(group.add(s1, s2), []).append((v1, v2))
    return Resolvend(group, alg, {s: alg.dot(pairs) for s, pairs in buckets.items()})


def reduced_equal(r1: Resolvend, r2: Resolvend, basis: DetKernelBasis) -> bool:
    """Equality of reduced resolvends: same values on every determinant-kernel
    basis vector, i.e. equality up to multiplication by a group element."""
    v1 = to_character_space(r1)
    v2 = to_character_space(r2)
    for vec in (v1, v2):
        for chi, val in vec.items():
            if r1.algebra.is_zero(val):
                raise SingularResolvendError(f"resolvent vanishes at character {chi}")
    for combo in basis.combos():
        acc1 = r1.algebra.one()
        acc2 = r1.algebra.one()
        for chi, mult in combo.items():
            acc1 = acc1 * (v1[chi] ** mult)
            acc2 = acc2 * (v2[chi] ** mult)
        if acc1 != acc2:
            return False
    return True


def associated_hom(a: Resolvend, automorphisms) -> dict[str, GroupElement]:
    """For each named coefficient automorphism w, the unique t in G with
    w(a) = t . a (equivalently w(r(a)) = r(a) t)."""
    group = a.group
    out: dict[str, GroupElement] = {}
    for name, fn in automorphisms:
        twisted = a.into(a.algebra, fn)
        found = None
        for t in group.elements():
            if twisted == a.translate(t):
                found = t
                break
        if found is None:
            raise NotGaloisOrbitError(f"{name} does not act through the group on this map")
        out[name] = found
    return out
