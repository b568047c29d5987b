"""One route to character space and one integrality test.

Resolvents outside ``groupring`` come from ``to_character_space``, and
integrality is decided by ``groupring.nonintegral_coefficients``.  The
per-character and per-coefficient loops they replaced are kept here
verbatim as oracles: the certificates must give the same JSON, and the
tables, identities and searches the same rows, booleans and maps, with and
without each fault switched on.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvend import faults, tame
from resolvend.cyclotomic import CycAlgebra, CycContext, CycNumber, galois_apply, root_of_unity
from resolvend.errors import (
    NotAGeneratorError,
    NotInvertibleError,
    ResolvendError,
    SingularResolvendError,
)
from resolvend.groups import FiniteAbelianGroup, element_order
from resolvend.groupring import (
    Resolvend,
    delta_resolvend,
    from_character_space,
    generator_certificate,
    involution,
    reduced_equal,
    resolvent,
    to_character_space,
    transpose_lift,
    unit_certificate,
)
from resolvend.localfield import LocalModel, prime_power_base
from resolvend.stickelberger import CharacterTable, DetKernelBasis, pairing_sign
from resolvend.suite import TAME_Q, SuiteConfig, _composite
from resolvend.tame import (
    TameHom,
    _search_candidates,
    _unit_above_p,
    decompose_tame_resolvend,
    prime_element_map,
    resolvent_table,
    tame_generator,
    unramified_generator_search,
)
from resolvend.wild import (
    WildAlgebra,
    elementary_product_check,
    pth_power_map,
    wild_generator,
    wild_resolvent_identity,
    wild_unit_resolvents,
)

C3 = FiniteAbelianGroup((3,))
C33 = FiniteAbelianGroup((3, 3))
MODEL = LocalModel(3, 7, 3)
CYC = CycAlgebra(CycContext(3), 7)


# -- the replaced loops, as oracles ---------------------------------------------


def _invert_by_loop(r: Resolvend) -> Resolvend:
    inv_values = {}
    for chi, val in to_character_space(r).items():
        if r.algebra.is_zero(val):
            raise SingularResolvendError(f"resolvent vanishes at character {chi}")
        inv_values[chi] = r.algebra.inv(val)
    return from_character_space(r.group, r.algebra, inv_values)


def _generator_certificate_by_loops(a: Resolvend, v_floor: int) -> dict:
    """The certificate with its own integrality loops; its JSON keeps every
    witness, where the report keeps the first 8."""
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
        u_inv = _invert_by_loop(u)
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
    return {"ok": membership_ok and unit_ok, "membership_ok": membership_ok,
            "unit_ok": unit_ok, "witnesses": witnesses}


def _unit_certificate_by_loops(a: Resolvend) -> dict:
    """As ``_generator_certificate_by_loops``, for the unit certificate."""
    alg = a.algebra
    witnesses: list[str] = []
    ok = True
    for s, v in a.values.items():
        if alg.val(v) < 0:
            ok = False
            witnesses.append(f"v(a({s})) = {alg.val(v)} < 0")
    try:
        r_inv = _invert_by_loop(a)
        for g, c in r_inv.coeffs.items():
            if alg.val(c) < 0:
                ok = False
                witnesses.append(f"v(r^-1 at {g}) = {alg.val(c)} < 0")
    except (SingularResolvendError, NotInvertibleError) as exc:
        ok = False
        witnesses.append(f"not invertible: {exc}")
    return {"ok": ok, "membership_ok": ok, "unit_ok": ok, "witnesses": witnesses}


def _decompose_by_loops(h: TameHom, a: Resolvend, basis: DetKernelBasis):
    model = a.algebra
    group = a.group
    e = element_order(group, h.s_sigma)
    cert = _generator_certificate_by_loops(a, (1 - e) // 2)
    if not cert["ok"]:
        raise NotAGeneratorError("; ".join(cert["witnesses"][:8]) or "certificate failed")
    vf = transpose_lift(prime_element_map(group, model, h.s_sigma))
    va = to_character_space(a)
    u = from_character_space(group, model,
                             {chi: va[chi] * model.inv(vf[chi]) for chi in va})
    for g, c in u.coeffs.items():
        if model.val(c) < 0:
            raise NotAGeneratorError(f"unit part not integral at {g}")
    for g, c in _invert_by_loop(u).coeffs.items():
        if model.val(c) < 0:
            raise NotAGeneratorError(f"inverse of unit part not integral at {g}")
    if not reduced_equal(a, u * from_character_space(group, model, vf), basis):
        raise NotAGeneratorError("factorization fails reduced equality")
    return u, h.s_sigma


def _decompose_unit_by_loops(h: TameHom, a: Resolvend, basis: DetKernelBasis) -> Resolvend:
    u, _ = _decompose_by_loops(h, a, basis)
    return u


def _resolvent_table_by_characters(a: Resolvend, s) -> list:
    model = a.algebra
    table = CharacterTable(a.group)
    col = table.position(s)
    sign, m = pairing_sign(), a.group.exponent
    rows = []
    for chi, row in zip(a.group.elements(), table.rows):
        pairing = Fraction(sign * row[col], m)
        value = resolvent(a, chi)
        rows.append((chi, pairing, value, value == model.pi_power(pairing)))
    return rows


def _wild_resolvent_identity_by_characters(a: Resolvend, t) -> bool:
    group, alg = a.group, a.algebra
    t = group.element(t)
    lift = transpose_lift(pth_power_map(group, t, alg))
    table = CharacterTable(group)
    step = group.exponent // alg.p
    for chi in group.elements():
        mono = alg.standard_monomial(table.value(chi, t) // step)
        if resolvent(a, chi) != mono or lift[chi] != mono:
            return False
    return True


def _wild_unit_resolvents_by_characters(a: Resolvend) -> bool:
    group, alg = a.group, a.algebra
    for chi in group.elements():
        r1 = resolvent(a, chi)
        if not alg.is_unit_monomial(r1):
            return False
        if r1 * resolvent(a, group.neg(chi)) != alg.one():
            return False
    return a * involution(a) == delta_resolvend(group, alg, group.identity)


def _elementary_product_check_by_characters(p: int, r: int) -> bool:
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
    for chi in group.elements():
        res = resolvent(a, chi)
        if not alg.is_unit_monomial(res):
            return False
        prod = alg.one()
        for g in gens:
            prod = prod * resolvent(g, chi)
        if res != prod:
            return False
    return True


def _search_with_prefilter(group, q, t, r):
    """The search with its valuation prefilter; returns the map, the index
    of the accepted candidate and how many candidates the prefilter
    rejected.  Only nontrivial t with valid (q, r) is needed here."""
    t = group.element(t)
    m = element_order(group, t)
    ctx = CycContext(math.lcm(group.exponent, r))
    p = prime_power_base(q)
    alg = CycAlgebra(ctx, p=p)
    habs = FiniteAbelianGroup((m,))
    rejected = 0
    for index, cand in enumerate(_search_candidates(r, tame.SEARCH_BOUND, tame.SEARCH_SUPPORT)):
        theta = alg.dot([(root_of_unity(ctx, r, j), ctx.from_rational(coeff)) for j, coeff in cand])
        values = {}
        current = theta
        for i in range(m):
            values[(i,)] = current
            current = galois_apply(current, q)
        a = Resolvend(habs, alg, values)
        vec = to_character_space(a)
        if any(alg.val(v) != 0 for v in vec.values()):
            rejected += 1
            continue
        if not _unit_above_p(vec.values(), ctx, p):
            continue
        if unit_certificate(a).ok:
            found = Resolvend(group, alg, {group.scale(t, i): values[(i,)] for i in range(m)})
            return found, index, rejected
    raise AssertionError("the bounded search space is exhausted")


def _outcome(fn, *args):
    """fn(*args), or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except ResolvendError as exc:
        return type(exc).__name__, str(exc)


# -- certificates ---------------------------------------------------------------


def _cyc(num, den=1) -> CycNumber:
    return CycNumber(CycContext(3), list(num), den)


def _puiseux(*terms) -> object:
    """sum of c pi^(k/3) over the (k, c) pairs in the model with e = 3, q = 7."""
    return MODEL.dot([(MODEL.pi_power(Fraction(k, 3)), c) for k, c in terms])


# each has a witness of its kind in at least one of the two certificates
CERTIFICATE_CASES = {
    # every value below the floor, every unit coefficient non-integral
    "more-than-8": Resolvend(C33, MODEL, {
        s: _puiseux((-2, _cyc((1, i), 7))) for i, s in enumerate(C33.elements())}),
    "vanishing": Resolvend(C3, MODEL, {s: MODEL.one() for s in C3.elements()}),
    # the trivial character's resolvent is a sum, which fails to invert first
    "sum-then-vanishing": Resolvend(C3, MODEL, {
        s: _puiseux((0, _cyc((1, 0))), (1, _cyc((1, 0)))) for s in C3.elements()}),
    "outside-base-field": Resolvend(C3, MODEL, {(0,): _puiseux((1, _cyc((1, 0))))}),
    "negative-inverse": Resolvend(C3, MODEL, {(0,): MODEL.from_rational(7)}),
    "two-terms": Resolvend(C3, MODEL, {(0,): _puiseux((0, _cyc((1, 0))), (1, _cyc((0, 1))))}),
    "cyclotomic-denominator": Resolvend(C3, CYC, {(1,): _cyc((1, 2), 7)}),
    "generator": tame_generator(C3, (1,), 7),
}


def _certificates(a: Resolvend, v_floor: int) -> list[tuple[dict, dict]]:
    """(report JSON, oracle JSON cut at 8 witnesses) for each certificate
    that applies to a's algebra."""
    pairs = [(unit_certificate(a).to_json(), _unit_certificate_by_loops(a))]
    if isinstance(a.algebra, LocalModel):
        pairs.append((generator_certificate(a, v_floor).to_json(),
                      _generator_certificate_by_loops(a, v_floor)))
    return [(new, _cut(old)) for new, old in pairs]


def _cut(report: dict) -> dict:
    """An oracle's JSON with its first 8 witnesses, as the reports keep them."""
    return dict(report, witnesses=report["witnesses"][:8])


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
def test_certificates_match_their_loops_on_each_kind_of_failure(name):
    a = CERTIFICATE_CASES[name]
    for new, old in _certificates(a, -1):
        assert new == old


def test_certificate_cases_cover_every_kind_of_witness():
    """The cases above reach each branch of the loops: a negative valuation
    of u, u^-1 and r^-1, a coefficient outside the base field, a vanishing
    resolvent, an inversion that fails on a sum, more than 8 witnesses, and
    a pass."""
    full = {name: [_unit_certificate_by_loops(a)["witnesses"]]
            + ([_generator_certificate_by_loops(a, -1)["witnesses"]]
               if isinstance(a.algebra, LocalModel) else [])
            for name, a in CERTIFICATE_CASES.items()}
    seen = " | ".join(w for lists in full.values() for ws in lists for w in ws)
    for fragment in ("v(u at", "v(u^-1 at", "v(r^-1 at", "v(a((", "leaves the base field",
                     "resolvent vanishes at character", "only monomials invert"):
        assert fragment in seen
    assert max(len(ws) for ws in full["more-than-8"]) > 8
    assert full["generator"][1] == []


def _coefficients():
    return st.builds(_cyc, st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                     st.sampled_from((1, 1, 2, 7, 49)))


@st.composite
def certificate_inputs(draw):
    """A resolvend on C3 or C3 x C3 over the Puiseux model (e = 3, q = 7) or
    over Q(zeta_3) at 7, whose values carry 7 in denominators, fractional
    pi-exponents, one to three terms, or are one value repeated (then every
    nontrivial resolvent vanishes); and a valuation floor."""
    group = draw(st.sampled_from((C3, C33)))
    alg = draw(st.sampled_from((MODEL, CYC)))
    most = draw(st.integers(1, 3))

    def value():
        if alg is CYC:
            return draw(_coefficients())
        terms = draw(st.lists(st.tuples(st.integers(-4, 4), _coefficients()),
                              min_size=1, max_size=most))
        return _puiseux(*terms)

    if draw(st.booleans()):
        v = value()
        values = {s: v for s in group.elements()}
    else:
        values = {s: value() for s in group.elements() if draw(st.integers(0, 3))}
    return Resolvend(group, alg, values), draw(st.integers(-3, 1))


@settings(max_examples=120, deadline=None)
@given(certificate_inputs())
def test_certificates_match_their_loops(data):
    a, v_floor = data
    for new, old in _certificates(a, v_floor):
        assert new == old


# -- tables, identities and the decomposition, under each fault -------------------


@pytest.mark.parametrize("fault", (None,) + faults.ALL_FAULTS)
def test_tame_routes_match_their_loops_under_each_fault(fault):
    with faults.inject(fault) if fault else nullcontext():
        for e, q in sorted(TAME_Q.items()):
            group = FiniteAbelianGroup((e,))
            a = tame_generator(group, (1,), q)
            assert list(resolvent_table(a, (1,))) == _resolvent_table_by_characters(a, (1,))
            floor = (1 - e) // 2
            assert generator_certificate(a, floor).to_json() == _cut(
                _generator_certificate_by_loops(a, floor))
            h = TameHom(group, group.identity, (1,), q)
            basis = DetKernelBasis(group)
            assert _outcome(decompose_tame_resolvend, h, a, basis) == _outcome(
                _decompose_unit_by_loops, h, a, basis)
        c = _composite(SuiteConfig())
        new = _outcome(decompose_tame_resolvend, c["h"], c["a"], c["basis"])
        assert new == _outcome(_decompose_unit_by_loops, c["h"], c["a"], c["basis"])
        if fault == faults.PAIRING_SIGN_FLIP:
            assert new == ("NotAGeneratorError", "unit part not integral at (0, 0)")
        elif fault is None:
            assert isinstance(new, Resolvend)


@pytest.mark.parametrize("fault", (None,) + faults.ALL_FAULTS)
def test_wild_routes_match_their_loops_under_each_fault(fault):
    with faults.inject(fault) if fault else nullcontext():
        for p in (3, 5, 7):
            group = FiniteAbelianGroup((p,))
            a = wild_generator(group, (1,))
            assert wild_resolvent_identity(a, (1,)) is _wild_resolvent_identity_by_characters(
                a, (1,))
            assert wild_unit_resolvents(a) is _wild_unit_resolvents_by_characters(a)
        for p, r in ((3, 1), (3, 2), (3, 3), (5, 2)):
            assert elementary_product_check(p, r) is _elementary_product_check_by_characters(p, r)


def test_the_oracles_see_a_broken_wild_generator():
    """A generator with one value dropped fails both identities by both
    routes, so the equalities above compare verdicts that can differ."""
    group = FiniteAbelianGroup((3,))
    a = wild_generator(group, (1,))
    broken = Resolvend(group, a.algebra, {s: v for s, v in a.values.items() if s != (1,)})
    assert not wild_resolvent_identity(broken, (1,))
    assert not _wild_resolvent_identity_by_characters(broken, (1,))
    assert not wild_unit_resolvents(broken)
    assert not _wild_unit_resolvents_by_characters(broken)


# -- the unramified search --------------------------------------------------------


@pytest.mark.parametrize("spec,q,t,r,index,rejected", [
    ((3, 3), 7, (0, 1), 19, 173, 6),  # the composite of check 05
    ((3,), 7, (1,), 9, 468, 468),
    ((3,), 2, (1,), 7, 68, 24),
    ((5,), 3, (1,), 11, 44, 4),
])
def test_search_without_the_prefilter_finds_the_same_map(spec, q, t, r, index, rejected):
    """``_unit_above_p`` rejects every candidate the valuation prefilter
    rejected, so the search accepts the same candidate without it."""
    group = FiniteAbelianGroup(spec)
    found, at, dropped = _search_with_prefilter(group, q, t, r)
    assert (at, dropped) == (index, rejected)
    a = unramified_generator_search(group, q, t, r)
    assert a == found and a.algebra.ctx is found.algebra.ctx
