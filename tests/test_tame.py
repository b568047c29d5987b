"""Tame generators: construction, certificates, decomposition, search."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from resolvend import faults, tame
from resolvend.cyclotomic import (
    CycAlgebra,
    CycContext,
    content_ord,
    cyc_inverse,
    galois_apply,
)
from resolvend.errors import (
    ConductorError,
    InvalidElementError,
    NotAGeneratorError,
    PreconditionError,
    SearchFailureError,
    TamenessError,
)
from resolvend.groups import FiniteAbelianGroup, element_order
from resolvend.groupring import (
    Resolvend,
    associated_hom,
    from_character_space,
    generator_certificate,
    reduced_equal,
    resolvent,
    transpose_lift,
    unit_certificate,
)
from resolvend.localfield import prime_power_base
from resolvend.stickelberger import DetKernelBasis, stickelberger_pairing
from resolvend.tame import (
    SEARCH_BOUND,
    SEARCH_SUPPORT,
    TameHom,
    _search_candidates,
    _unit_above_p,
    basis_change_determinant,
    basis_change_is_unit,
    build_model,
    decompose_tame_resolvend,
    factorize,
    inversion_identity_check,
    prime_element_map,
    recompose,
    resolvent_table,
    tame_generator,
    unramified_generator_search,
)
from resolvend.suite import TAME_Q

C3 = FiniteAbelianGroup((3,))


def test_tame_hom_validation():
    h = TameHom(C3, (0,), (1,), 7)
    assert element_order(h.group, h.s_sigma) == 3
    assert h.level() == 1
    assert TameHom(C3, (1,), (0,), 7).level() == 0
    with pytest.raises(TamenessError):
        TameHom(C3, (0,), (1,), 5)  # 3 does not divide 5 - 1
    with pytest.raises(TamenessError):
        TameHom(C3, (0,), (0,), 3)  # q shares a factor with |G|


def test_factorize():
    group = FiniteAbelianGroup((3, 3))
    h = TameHom(group, (1, 0), (0, 1), 7)
    unram, ram = factorize(h)
    assert unram.t_phi == (1, 0) and unram.s_sigma == (0, 0)
    assert ram.t_phi == (0, 0) and ram.s_sigma == (0, 1)
    assert unram.level() == 0 and ram.level() == 1


def test_tame_generator_structure():
    a = tame_generator(C3, (1,), 7)
    model = a.algebra
    assert set(a.values) == set(C3.elements())
    # the values are the sigma-conjugates of a(1)
    assert a.value((1,)) == model.sigma(a.value((0,)))
    assert a.value((2,)) == model.sigma(a.value((1,)))
    assert a.value((0,)) == model.sigma(a.value((2,)))


def test_resolvent_table():
    """(a | chi) = pi^<chi, s> across every character, several (e, q)."""
    for e, q in ((3, 7), (5, 11)):
        group = FiniteAbelianGroup((e,))
        s = (1,)
        a = tame_generator(group, s, q)
        model = a.algebra
        rows = list(resolvent_table(a, s))
        assert [row[0] for row in rows] == list(group.elements())
        for chi, pairing, value, match in rows:
            assert pairing == stickelberger_pairing(group, chi, s)
            assert value == resolvent(a, chi) == model.pi_power(pairing)
            assert match


def test_generator_certificate_passes():
    for e, q in ((3, 7), (5, 11), (9, 19)):
        a = tame_generator(FiniteAbelianGroup((e,)), (1,), q)
        report = generator_certificate(a, (1 - e) // 2)
        assert report.ok, report.witnesses


def test_inversion_identity():
    for e, q in ((3, 7), (5, 11), (9, 19)):
        assert inversion_identity_check(tame_generator(FiniteAbelianGroup((e,)), (1,), q), (1,))
    with faults.inject(faults.ALPHA_UNNORMALIZED):
        assert not inversion_identity_check(tame_generator(C3, (1,), 7), (1,))
    a = tame_generator(C3, (1,), 7)
    assert inversion_identity_check(a, (1,))
    # the check reads the generator it is given: swapping two conjugates
    # inverts the twist
    values = dict(a.values)
    values[(1,)], values[(2,)] = values[(2,)], values[(1,)]
    assert not inversion_identity_check(Resolvend(C3, a.algebra, values), (1,))
    # an s whose order is not the model's e is refused, not read short
    a9 = tame_generator(FiniteAbelianGroup((9,)), (1,), 19)
    for check in (inversion_identity_check, basis_change_determinant):
        with pytest.raises(PreconditionError, match="order 3, not the model's e = 9"):
            check(a9, (3,))


def test_basis_change_determinant_is_a_unit():
    """Every suite determinant, and the composite's at conductor 57, is a unit
    at each prime above q.  Content order 0 is necessary, not sufficient:
    3 + zeta_3 has content order 0 at 7, yet its norm is 7.  Scaling the
    value at s by pi moves its row out of the power basis: determinant 0."""
    cases = [(FiniteAbelianGroup((e,)), (1,), q, None) for e, q in sorted(TAME_Q.items())]
    cases.append((FiniteAbelianGroup((3, 3)), (1, 0), 7, 57))
    for group, s, q, conductor in cases:
        a = tame_generator(group, s, q, conductor)
        assert a.algebra.ctx.n == (conductor or group.exponent)
        assert basis_change_is_unit(a, s)
        d = basis_change_determinant(a, s)
        alg = CycAlgebra(d.ctx, prime_power_base(q))
        assert alg.val(d) == 0  # the content order is a lower bound only
    ctx = CycContext(3)
    fake = ctx.zeta_power(1) + 3
    assert content_ord(fake, 7) == 0
    assert not _unit_above_p([fake], ctx, 7)
    a = tame_generator(C3, (1,), 7)
    values = dict(a.values)
    values[(1,)] = values[(1,)] * a.algebra.pi_power(1)
    planted = Resolvend(C3, a.algebra, values)
    assert basis_change_determinant(planted, (1,)).is_zero()
    assert not basis_change_is_unit(planted, (1,))


def test_decompose_recompose_roundtrip():
    h = TameHom(C3, (0,), (1,), 7)
    a = tame_generator(C3, (1,), 7)
    basis = DetKernelBasis(C3)
    u = decompose_tame_resolvend(h, a, basis)
    model = a.algebra
    for c in u.coeffs.values():
        assert model.val(c) >= 0
    assert reduced_equal(a, recompose(u, h.s_sigma), basis)


def test_decompose_rejects_non_generators():
    h = TameHom(C3, (0,), (1,), 7)
    a = tame_generator(C3, (1,), 7)
    model = a.algebra
    # scaling by pi keeps the floor but destroys the unit property
    shifted = a.into(model, lambda v: v * model.pi_power(1))
    basis = DetKernelBasis(C3)
    with pytest.raises(NotAGeneratorError):
        decompose_tame_resolvend(h, shifted, basis)
    # dropping a value makes the resolvend singular
    broken = Resolvend(C3, model, {(0,): a.value((0,))})
    with pytest.raises(NotAGeneratorError):
        decompose_tame_resolvend(h, broken, basis)


def test_prime_element_map():
    model = build_model(3, 7)
    g = prime_element_map(C3, model, (1,))
    assert g.value((1,)) == model.pi_power(1)
    assert g.value((0,)) == model.one()
    assert g.value((2,)) == model.one()
    lifted = from_character_space(C3, model, transpose_lift(g))
    # the lift of the trivial prime element is the identity
    triv = prime_element_map(C3, model, (0,))
    assert triv == Resolvend(C3, model, {s: model.one() for s in C3.elements()})
    assert from_character_space(C3, model, transpose_lift(triv)).coeffs == {(0,): model.one()}
    assert lifted.coeffs != {}
    with pytest.raises(InvalidElementError):
        prime_element_map(C3, model, (3,))


def test_transpose_lift_on_kernel_basis():
    """On a determinant-kernel vector psi the lift multiplies out to
    prod_s g(s)^<psi, s>, whose exponents are integral."""
    model = build_model(3, 7)
    lift = transpose_lift(prime_element_map(C3, model, (1,)))
    for combo in DetKernelBasis(C3).combos():
        acc = model.one()
        for chi, mult in combo.items():
            acc = acc * lift[chi] ** mult
        exp = sum(mult * stickelberger_pairing(C3, chi, (1,)) for chi, mult in combo.items())
        assert exp.denominator == 1
        assert acc == model.pi_power(exp)
    # off the kernel the exponent is fractional, so the value leaves F
    assert not model.in_base_field(lift[(1,)])
    ones = transpose_lift(prime_element_map(C3, model, C3.identity))
    assert all(v == model.one() for v in ones.values())


def test_unramified_search_small():
    a = unramified_generator_search(C3, 7, (1,), 9)
    assert unit_certificate(a).ok
    assert set(a.values) <= set(C3.elements())
    # Frobenius acts on the values through translation by t
    hom = associated_hom(a, [("phi", lambda v: galois_apply(v, 7))])
    assert hom["phi"] == (1,)


def test_unramified_search_even_residue():
    # q = 2 with ord_7(2) = 3 exercises the even residue branch
    a = unramified_generator_search(C3, 2, (1,), 7)
    assert unit_certificate(a).ok


def test_search_preconditions():
    with pytest.raises(PreconditionError):
        unramified_generator_search(C3, 7, (1,), 5)  # ord_5(7) = 4 != 3
    with pytest.raises(ConductorError):
        unramified_generator_search(C3, 3, (1,), 9)  # residue char inside N


@pytest.mark.parametrize("r", [1, -5])
def test_search_rejects_a_modulus_below_2(r):
    with pytest.raises(PreconditionError, match=f"modulus {r} is below 2"):
        unramified_generator_search(C3, 7, (1,), r)


def _compositions(total: int, parts: int, bound: int):
    """Compositions of total into parts in [1, bound], lexicographically: the
    recursive generator the candidate search used, kept as an oracle."""
    if parts == 1:
        if 1 <= total <= bound:
            yield (total,)
        return
    for first in range(1, min(bound, total - parts + 1) + 1):
        for rest in _compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def _candidates_by_compositions(r: int, bound: int, max_support: int):
    for weight in range(1, bound * max_support + 1):
        for size in range(1, max_support + 1):
            for positions in combinations(range(r), size):
                for mags in _compositions(weight, size, bound):
                    for signs in product((1, -1), repeat=size):
                        yield tuple(zip(positions, (m * s for m, s in zip(mags, signs))))


@pytest.mark.parametrize("r", [7, 19])
def test_search_candidates_keep_the_composition_order(r):
    assert list(_search_candidates(r, SEARCH_BOUND, SEARCH_SUPPORT)) == list(
        _candidates_by_compositions(r, SEARCH_BOUND, SEARCH_SUPPORT))


def test_search_identity_component():
    a = unramified_generator_search(C3, 7, (0,), 9)
    assert a.values == {(0,): a.algebra.one()}


def test_unit_filter_matches_exact_inversion():
    """The mod-p pre-filter agrees with exact unit testing above p."""
    ctx = CycContext(9)
    p = 7
    rng = random.Random("unit-filter")
    checked_units = 0
    for _ in range(120):
        v = sum((ctx.zeta_power(k) * Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 7)))
                 for k in range(6)), ctx.zero())
        if v.is_zero():
            assert not _unit_above_p([v], ctx, p)
            continue
        exact = content_ord(v, p) == 0 and content_ord(cyc_inverse(v), p) == 0
        assert _unit_above_p([v], ctx, p) == exact
        checked_units += exact
    assert checked_units > 10  # the sweep saw both outcomes


def test_search_exhaustion(monkeypatch):
    monkeypatch.setattr(tame, "SEARCH_BOUND", 1)
    monkeypatch.setattr(tame, "SEARCH_SUPPORT", 1)
    with pytest.raises(SearchFailureError, match=r"support <= 1, coefficients in \[-1,1\]"):
        unramified_generator_search(C3, 7, (1,), 9)
