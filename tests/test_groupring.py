"""Resolvends, character space, certificates, and transports."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resolvend import groupring
from resolvend.cyclotomic import CycAlgebra, CycContext, CycNumber
from resolvend.errors import InvalidElementError, NotGaloisOrbitError, SingularResolvendError
from resolvend.groups import FiniteAbelianGroup
from resolvend.groupring import (
    CharacterVector,
    Resolvend,
    associated_hom,
    delta_resolvend,
    from_character_space,
    generator_certificate,
    identity_resolvend,
    invert_resolvend,
    involution,
    reduced_equal,
    resolvend_product_transport,
    resolvent,
    to_character_space,
    trace_pairing_identity_check,
    unit_certificate,
    unit_map,
)
from resolvend.localfield import LocalModel
from resolvend.stickelberger import DetKernelBasis, char_inv, characters
from resolvend.suite import odd_abelian_groups

C3 = FiniteAbelianGroup((3,))
C9 = FiniteAbelianGroup((9,))
C33 = FiniteAbelianGroup((3, 3))


def small_algebra():
    return CycAlgebra(CycContext(3), 7)


def random_cyc(rng: random.Random, ctx):
    return CycNumber(ctx, [rng.randrange(-3, 4) for _ in range(ctx.phi)])


def random_value(rng: random.Random, alg):
    """A random cyclotomic number, or one or two Puiseux terms over one."""
    if not isinstance(alg, LocalModel):
        return random_cyc(rng, alg.ctx)
    x = alg.zero()
    for _ in range(rng.randint(1, 2)):
        x = x + alg.monomial(Fraction(rng.randint(-3, 3), alg.e), random_cyc(rng, alg.ctx))
    return x


def random_map(rng: random.Random, group, alg, invertible=False, sparse=False):
    """Random map; with ``invertible`` the values are monomial units, with
    ``sparse`` about a third of them are left out."""
    values = {}
    for s in group.elements():
        if sparse and rng.randrange(3) == 0:
            continue
        if invertible:
            values[s] = alg.ctx.zeta_power(rng.randrange(3))
        else:
            values[s] = random_value(rng, alg)
    return Resolvend(group, alg, values)


def _coefficient_product(r1: Resolvend, r2: Resolvend) -> dict:
    """The product in group-ring coefficients, sum_u c_u u * sum_w d_w w:
    the loop ``Resolvend.__mul__`` ran before it delegated to the map
    convolution, kept as an oracle."""
    out: dict = {}
    for u, x in r1.coeffs.items():
        for w, y in r2.coeffs.items():
            t = r1.group.add(u, w)
            prod = x * y
            out[t] = out[t] + prod if t in out else prod
    return {t: v for t, v in out.items() if not r1.algebra.is_zero(v)}


def test_map_view_total_with_zero_default():
    alg = small_algebra()
    a = Resolvend(C3, alg, {(1,): alg.ctx.one(), (2,): alg.ctx.zero()})
    assert a.value((1,)) == alg.ctx.one()
    assert a.value((0,)) == alg.ctx.zero()
    assert sorted(a.values) == [(1,)]


def test_translate_convention():
    alg = small_algebra()
    a = Resolvend(C3, alg, {(1,): alg.ctx.one() * 5})
    # (t . a)(s) = a(s + t)
    b = a.translate((1,))
    assert b.value((0,)) == alg.ctx.one() * 5
    assert a.translate((0,)) == a
    assert a.translate((1,)).translate((2,)) == a


def test_resolvend_convolution():
    alg = small_algebra()
    r = delta_resolvend(C3, alg, (1,)) * delta_resolvend(C3, alg, (2,))
    assert r == identity_resolvend(C3, alg)
    s = delta_resolvend(C3, alg, (1,))
    assert s * s == delta_resolvend(C3, alg, (2,))


@pytest.mark.parametrize("alg", [CycAlgebra(CycContext(9), 7), LocalModel(3, 7, 9)],
                         ids=["cyclotomic", "puiseux"])
def test_product_matches_coefficient_oracle(alg):
    rng = random.Random(f"product-oracle:{type(alg).__name__}")
    for group in (C3, C9, C33):
        for _ in range(6):
            a = random_map(rng, group, alg, sparse=True)
            b = random_map(rng, group, alg, sparse=True)
            assert (a * b).coeffs == _coefficient_product(a, b)
            assert resolvend_product_transport(a, b) == a * b


def test_resolvend_views():
    """c_u = a(u^{-1}); a delta is one group element; the involution swaps
    u and u^{-1} and is its own inverse."""
    alg = small_algebra()
    rng = random.Random("views")
    for group in (C3, C9, C33):
        for _ in range(10):
            r = random_map(rng, group, alg, sparse=True)
            coeffs = r.coeffs
            for u in group.elements():
                assert coeffs.get(u, alg.zero()) == r.value(group.neg(u))
                assert involution(r).coeffs.get(u, alg.zero()) == r.value(u)
            assert involution(involution(r)) == r
        for t in group.elements():
            assert delta_resolvend(group, alg, t).coeffs == {t: alg.one()}


def test_resolvent_matches_character_space():
    """(a | chi) computed directly equals the character-space image of r(a)."""
    alg = small_algebra()
    rng = random.Random("resolvent-vs-char")
    for _ in range(20):
        a = random_map(rng, C3, alg)
        v = to_character_space(a)
        for chi in characters(C3):
            assert v.values[chi] == resolvent(a, chi)


def test_character_space_is_a_ring_isomorphism():
    alg = small_algebra()
    rng = random.Random("char-iso")
    for _ in range(20):
        a = random_map(rng, C3, alg)
        b = random_map(rng, C3, alg)
        r1, r2 = a, b
        assert from_character_space(to_character_space(r1)) == r1
        v1, v2 = to_character_space(r1), to_character_space(r2)
        v12 = to_character_space(r1 * r2)
        for chi in characters(C3):
            assert v12.values[chi] == v1.values[chi] * v2.values[chi]


def test_involution():
    alg = small_algebra()
    rng = random.Random("involution")
    for _ in range(10):
        r1 = random_map(rng, C3, alg)
        r2 = random_map(rng, C3, alg)
        assert involution(involution(r1)) == r1
        assert involution(r1 * r2) == involution(r1) * involution(r2)


def test_inversion():
    alg = small_algebra()
    r = Resolvend(C3, alg, {(0,): alg.ctx.one() * 2, (1,): alg.ctx.one()})
    assert r * invert_resolvend(r) == identity_resolvend(C3, alg)
    # the all-ones resolvend kills every nontrivial character
    with pytest.raises(SingularResolvendError):
        invert_resolvend(unit_map(C3, alg))


def test_trace_pairing_identity():
    alg = small_algebra()
    rng = random.Random("trace-small")
    for _ in range(25):
        a = random_map(rng, C3, alg)
        b = random_map(rng, C3, alg)
        assert trace_pairing_identity_check(a, b)
    model = LocalModel(3, 7, 3)
    pi = model.pi_power(Fraction(1, 3))
    a = Resolvend(C3, model, {(0,): model.one(), (1,): pi, (2,): pi * pi})
    b = Resolvend(C3, model, {(0,): pi, (2,): model.one() * 5})
    assert trace_pairing_identity_check(a, b)


def test_generator_certificate_accepts_identity():
    model = LocalModel(3, 7, 3)
    a = Resolvend(C3, model, {(0,): model.one()})
    report = generator_certificate(a, 0)
    assert report.ok and report.membership_ok and report.unit_ok
    assert report.witnesses == []
    data = report.to_json()
    assert set(data) == {"ok", "membership_ok", "unit_ok", "witnesses"}


def test_generator_certificate_flags_low_valuation():
    model = LocalModel(3, 7, 3)
    a = Resolvend(C3, model, {(0,): model.pi_power(Fraction(-1, 3))})
    report = generator_certificate(a, 0)
    assert not report.membership_ok
    assert any("< 0" in w for w in report.witnesses)


def test_generator_certificate_flags_non_unit():
    model = LocalModel(3, 7, 3)
    # r = 7 is integral but its inverse is not
    a = Resolvend(C3, model, {(0,): model.from_rational(7)})
    report = generator_certificate(a, 0)
    assert report.membership_ok
    assert not report.unit_ok
    assert not report.ok


def test_unit_certificate():
    alg = small_algebra()
    good = Resolvend(C3, alg, {(0,): alg.ctx.one(), (1,): alg.ctx.zeta_power(1)})
    # r = 1 + zeta x has unit resolvents at every character of C3
    report = unit_certificate(good)
    if report.ok:
        assert report.witnesses == []
    bad = Resolvend(C3, alg, {(0,): alg.ctx.one() * Fraction(1, 7)})
    assert not unit_certificate(bad).ok
    singular = unit_map(C3, alg)
    report = unit_certificate(singular)
    assert not report.ok
    assert any("not invertible" in w for w in report.witnesses)


def test_transports():
    alg = small_algebra()
    rng = random.Random("transports")

    def nonsingular():
        while True:
            a = random_map(rng, C3, alg, invertible=True)
            v = to_character_space(a)
            if not any(val.is_zero() for val in v.values.values()):
                return a

    for _ in range(15):
        a = nonsingular()
        b = nonsingular()
        assert invert_resolvend(a) * a == identity_resolvend(C3, alg)
        assert (a * b).coeffs == _coefficient_product(a, b)


def test_reduced_equality():
    alg = small_algebra()
    basis = DetKernelBasis(C3)
    z = alg.ctx.zeta_power(1)
    r = Resolvend(C3, alg, {(0,): z})
    translated = r * delta_resolvend(C3, alg, (2,))
    assert reduced_equal(r, translated, basis)
    scaled = Resolvend(C3, alg, {(0,): z * z})
    assert not reduced_equal(r, scaled, basis)
    with pytest.raises(SingularResolvendError):
        reduced_equal(r, unit_map(C3, alg), basis)


def test_associated_hom():
    alg = small_algebra()
    z = alg.ctx.zeta_power(1)
    a = Resolvend(C3, alg, {(0,): alg.ctx.one(), (1,): z, (2,): z * z})
    hom = associated_hom(a, [("id", lambda v: v), ("shift", lambda v: v * z)])
    assert hom["id"] == (0,)
    assert hom["shift"] == (1,)
    with pytest.raises(NotGaloisOrbitError):
        associated_hom(a, [("double", lambda v: v * 2)])


def _char_value(group, chi, s, ctx):
    """chi(s) = zeta_m^k, k = sum_i chi_i s_i (m/d_i), computed per call: the
    formula the transforms used before they read one row of roots per
    character."""
    m = group.exponent
    k = sum(img * c * (m // d) for img, c, d in zip(chi, s, group.factors))
    return ctx.zeta_power((ctx.n // m) * k)


def _resolvent_by_pairs(a: Resolvend, chi):
    acc = a.algebra.zero()
    ichi = char_inv(a.group, chi)
    for s, v in a.values.items():
        acc = acc + v * _char_value(a.group, ichi, s, a.algebra.ctx)
    return acc


def _from_character_space_by_pairs(v: CharacterVector) -> Resolvend:
    group, alg = v.group, v.algebra
    values = {}
    for u in group.elements():
        s = group.neg(u)
        acc = alg.zero()
        for chi, val in v.values.items():
            acc = acc + val * _char_value(group, chi, s, alg.ctx)
        values[s] = acc * Fraction(1, group.order)
    return Resolvend(group, alg, values)


def test_row_reads_match_the_per_pair_transforms():
    """Both transforms, reading one row of roots per character, equal the
    per-(chi, s) loops on every odd group of order <= 27, over Q(zeta_m)
    and over a Puiseux model at conductor m = exp(G)."""
    rng = random.Random("row-reads")
    groups = odd_abelian_groups(27)
    assert len(groups) == 17
    for i, group in enumerate(groups):
        m = group.exponent
        model = LocalModel(3, 13, m) if m % 3 == 0 else LocalModel(1, 3, m)
        for alg in (CycAlgebra(CycContext(m)), model):
            a = random_map(rng, group, alg, sparse=i % 2 == 1)
            assert to_character_space(a).values == {chi: _resolvent_by_pairs(a, chi)
                                                    for chi in characters(group)}
            v = CharacterVector(group, alg, random_map(rng, group, alg).values)
            back, want = from_character_space(v), _from_character_space_by_pairs(v)
            assert back == want
            assert list(back.values) == list(want.values)


def test_transforms_keep_their_error_contract():
    """A conductor without the order-exp(G) roots and a character outside the
    group both raise InvalidElementError, as the per-pair reads did."""
    short = CycAlgebra(CycContext(3))
    with pytest.raises(InvalidElementError):
        resolvent(Resolvend(C9, short, {(1,): short.one()}), (1,))
    with pytest.raises(InvalidElementError):
        from_character_space(CharacterVector(C9, short, {(1,): short.one()}))
    alg = CycAlgebra(CycContext(9))
    a = Resolvend(C9, alg, {(1,): alg.one()})
    for bad in ((9,), (-1,), (1, 1), (), ("1",), None):
        with pytest.raises(InvalidElementError):
            resolvent(a, bad)
        with pytest.raises(InvalidElementError):
            from_character_space(CharacterVector(C9, alg, {bad: alg.one()}))
    with pytest.raises(InvalidElementError):
        resolvent(a, [1])
    with pytest.raises(InvalidElementError):
        resolvent(Resolvend(C9, alg, {(9,): alg.one()}), (1,))


def _trace_side_by_translates(a: Resolvend, b: Resolvend) -> Resolvend:
    """sum_s Tr((s.a) b) s^{-1} through |G| translated copies of a, zeros
    included: the trace side as it was built before it read a at t s."""
    group, alg = a.group, a.algebra
    values = {}
    for s in group.elements():
        shifted = a.translate(s)
        acc = alg.zero()
        for t in group.elements():
            acc = acc + shifted.value(t) * b.value(t)
        values[s] = acc
    return Resolvend(group, alg, values)


def test_trace_check_matches_the_translate_oracle(monkeypatch):
    """With the product side replaced by a given element, the check passes
    exactly when that element is the oracle's trace side."""
    rng = random.Random("trace-oracle")
    for alg in (small_algebra(), LocalModel(3, 7, 3)):
        for group in (C3, C9, C33):
            for trial in range(6):
                a = random_map(rng, group, alg, sparse=trial % 2 == 1)
                b = random_map(rng, group, alg, sparse=trial % 3 == 2)
                assert trace_pairing_identity_check(a, b)
                want = _trace_side_by_translates(a, b)
                assert want == a * involution(b)
                off = Resolvend(group, alg, {**want.values,
                                             group.identity: want.value(group.identity) + 1})
                for lhs, verdict in ((want, True), (off, False)):
                    monkeypatch.setattr(groupring, "resolvend_product_transport",
                                        lambda x, y, lhs=lhs: lhs)
                    assert trace_pairing_identity_check(a, b) is verdict
                monkeypatch.undo()
