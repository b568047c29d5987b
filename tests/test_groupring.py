"""Resolvends, character space, certificates, and transports."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resolvend.cyclotomic import CycAlgebra, CycContext
from resolvend.errors import NotGaloisOrbitError, SingularResolvendError
from resolvend.groups import FiniteAbelianGroup
from resolvend.groupring import (
    GMap,
    Resolvend,
    associated_hom,
    delta_resolvend,
    from_character_space,
    from_resolvend,
    generator_certificate,
    identity_resolvend,
    invert_resolvend,
    involution,
    reduced_equal,
    resolvend_inverse_transport,
    resolvend_product_transport,
    resolvent,
    to_character_space,
    to_resolvend,
    trace_pairing_identity_check,
    unit_certificate,
    unit_map,
)
from resolvend.localfield import LocalModel
from resolvend.stickelberger import DetKernelBasis, characters

C3 = FiniteAbelianGroup((3,))


def small_algebra():
    return CycAlgebra(CycContext(3), 7)


def random_gmap(rng: random.Random, group, alg, invertible=False):
    """Random map; with ``invertible`` the values are monomial units."""
    values = {}
    for s in group.elements():
        if invertible:
            values[s] = alg.ctx.zeta_power(rng.randrange(3))
        else:
            values[s] = alg.ctx.from_fractions(
                [Fraction(rng.randrange(-3, 4)) for _ in range(2)])
    return GMap(group, alg, values)


def test_gmap_total_with_zero_default():
    alg = small_algebra()
    a = GMap(C3, alg, {(1,): alg.ctx.one(), (2,): alg.ctx.zero()})
    assert a.value((1,)) == alg.ctx.one()
    assert a.value((0,)) == alg.ctx.zero()
    assert sorted(a.values) == [(1,)]


def test_translate_convention():
    alg = small_algebra()
    a = GMap(C3, alg, {(1,): alg.ctx.one() * 5})
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


def test_resolvend_gmap_roundtrip():
    alg = small_algebra()
    rng = random.Random("roundtrip")
    for _ in range(20):
        a = random_gmap(rng, C3, alg)
        assert from_resolvend(to_resolvend(a)) == a


def test_resolvent_matches_character_space():
    """(a | chi) computed directly equals the character-space image of r(a)."""
    alg = small_algebra()
    rng = random.Random("resolvent-vs-char")
    for _ in range(20):
        a = random_gmap(rng, C3, alg)
        v = to_character_space(to_resolvend(a))
        for chi in characters(C3):
            assert v.value(chi) == resolvent(a, chi)


def test_character_space_is_a_ring_isomorphism():
    alg = small_algebra()
    rng = random.Random("char-iso")
    for _ in range(20):
        a = random_gmap(rng, C3, alg)
        b = random_gmap(rng, C3, alg)
        r1, r2 = to_resolvend(a), to_resolvend(b)
        assert from_character_space(to_character_space(r1)) == r1
        v1, v2 = to_character_space(r1), to_character_space(r2)
        v12 = to_character_space(r1 * r2)
        for chi in characters(C3):
            assert v12.value(chi) == v1.value(chi) * v2.value(chi)


def test_involution():
    alg = small_algebra()
    rng = random.Random("involution")
    for _ in range(10):
        r1 = to_resolvend(random_gmap(rng, C3, alg))
        r2 = to_resolvend(random_gmap(rng, C3, alg))
        assert involution(involution(r1)) == r1
        assert involution(r1 * r2) == involution(r1) * involution(r2)


def test_inversion():
    alg = small_algebra()
    r = Resolvend(C3, alg, {(0,): alg.ctx.one() * 2, (1,): alg.ctx.one()})
    assert r * invert_resolvend(r) == identity_resolvend(C3, alg)
    # the all-ones resolvend kills every nontrivial character
    with pytest.raises(SingularResolvendError):
        invert_resolvend(to_resolvend(unit_map(C3, alg)))


def test_trace_pairing_identity():
    alg = small_algebra()
    rng = random.Random("trace-small")
    for _ in range(25):
        a = random_gmap(rng, C3, alg)
        b = random_gmap(rng, C3, alg)
        assert trace_pairing_identity_check(a, b)
    model = LocalModel(3, 7, 3)
    pi = model.pi_power(Fraction(1, 3))
    a = GMap(C3, model, {(0,): model.one(), (1,): pi, (2,): pi * pi})
    b = GMap(C3, model, {(0,): pi, (2,): model.one() * 5})
    assert trace_pairing_identity_check(a, b)


def test_generator_certificate_accepts_identity():
    model = LocalModel(3, 7, 3)
    a = GMap(C3, model, {(0,): model.one()})
    report = generator_certificate(a, 0)
    assert report.ok and report.membership_ok and report.unit_ok
    assert report.witnesses == []
    data = report.to_json()
    assert set(data) == {"ok", "membership_ok", "unit_ok", "witnesses"}


def test_generator_certificate_flags_low_valuation():
    model = LocalModel(3, 7, 3)
    a = GMap(C3, model, {(0,): model.pi_power(Fraction(-1, 3))})
    report = generator_certificate(a, 0)
    assert not report.membership_ok
    assert any("< 0" in w for w in report.witnesses)


def test_generator_certificate_flags_non_unit():
    model = LocalModel(3, 7, 3)
    # r = 7 is integral but its inverse is not
    a = GMap(C3, model, {(0,): model.from_rational(7)})
    report = generator_certificate(a, 0)
    assert report.membership_ok
    assert not report.unit_ok
    assert not report.ok


def test_unit_certificate():
    alg = small_algebra()
    good = GMap(C3, alg, {(0,): alg.ctx.one(), (1,): alg.ctx.zeta_power(1)})
    # r = 1 + zeta x has unit resolvents at every character of C3
    report = unit_certificate(good)
    if report.ok:
        assert report.witnesses == []
    bad = GMap(C3, alg, {(0,): alg.ctx.one() * Fraction(1, 7)})
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
            a = random_gmap(rng, C3, alg, invertible=True)
            v = to_character_space(to_resolvend(a))
            if not any(val.is_zero() for val in v.values.values()):
                return a

    for _ in range(15):
        a = nonsingular()
        b = nonsingular()
        inv = resolvend_inverse_transport(a)
        assert to_resolvend(inv) * to_resolvend(a) == identity_resolvend(C3, alg)
        prod = resolvend_product_transport(a, b)
        assert to_resolvend(prod) == to_resolvend(a) * to_resolvend(b)


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
        reduced_equal(r, to_resolvend(unit_map(C3, alg)), basis)


def test_associated_hom():
    alg = small_algebra()
    z = alg.ctx.zeta_power(1)
    a = GMap(C3, alg, {(0,): alg.ctx.one(), (1,): z, (2,): z * z})
    hom = associated_hom(a, [("id", lambda v: v), ("shift", lambda v: v * z)])
    assert hom["id"] == (0,)
    assert hom["shift"] == (1,)
    with pytest.raises(NotGaloisOrbitError):
        associated_hom(a, [("double", lambda v: v * 2)])
