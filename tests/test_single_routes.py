"""One route to character space, one integrality test and one transpose lift.

Resolvents outside ``groupring`` come from ``to_character_space``, and
integrality is decided by ``groupring.nonintegral_coefficients``.  The
per-character and per-coefficient loops they replaced are kept here
verbatim as oracles: the certificates must give the same JSON, and the
tables, identities and searches the same rows, booleans and maps, with and
without each fault switched on.  ``transpose_lift`` works in exponent space;
its product of fractional powers is kept here too, and the two must give
the same lift, or raise the same error.  Check 03 verifies each distinct
map once; its per-trial loop is kept here, and the two must give the same
entries.  The wild actions and the weight build their integer tables once
per call; their per-term loops, the Pascal-row expansion and the
``Fraction`` ceiling are kept here, and must give the same elements,
weights and bounds, with and without each fault.  Group arithmetic reads
tables built on first use, and ``cyc_dot`` runs a loop of its own at
conductor 3; the coordinate formulas and the loop through ``reduce`` are
kept here, and must give the same elements, numbers and errors.
"""
from __future__ import annotations

import functools
import inspect
import math
import random
import textwrap
from contextlib import nullcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvend import faults, groupring, suite, tame, wild
from resolvend.cyclotomic import (
    CycAlgebra,
    CycContext,
    CycNumber,
    cyc_dot,
    galois_apply,
    root_of_unity,
)
from resolvend.errors import (
    ConductorError,
    InvalidElementError,
    NotAGeneratorError,
    NotInvertibleError,
    PreconditionError,
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
from resolvend.suite import (
    SELF_DUALITY_GROUPS,
    TAME_Q,
    SuiteConfig,
    _below,
    _composite,
    _entry,
    run_suite,
)
from resolvend.tame import (
    TameHom,
    _search_candidates,
    _unit_above_p,
    build_model,
    decompose_tame_resolvend,
    prime_element_map,
    resolvent_table,
    tame_generator,
    unramified_generator_search,
)
from resolvend.wild import (
    WildAlgebra,
    WildElement,
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


@pytest.mark.parametrize("spec,q,t,r", [
    ((3, 3), 7, (0, 1), 19), ((3,), 7, (1,), 9), ((3,), 2, (1,), 7), ((5,), 3, (1,), 11),
])
def test_clean_searches_run_the_certificate_once(monkeypatch, spec, q, t, r):
    """Each search accepts the first candidate whose resolvents are units
    above p, so ``tame.SEARCH_CERTIFICATES`` leaves room to spare."""
    calls = []
    certify = tame.unit_certificate
    monkeypatch.setattr(tame, "unit_certificate", lambda a: calls.append(a) or certify(a))
    unramified_generator_search(FiniteAbelianGroup(spec), q, t, r)
    assert len(calls) == 1 < tame.SEARCH_CERTIFICATES


# -- the transpose lift ------------------------------------------------------------


def _transpose_lift_by_powers(g: Resolvend) -> dict:
    """The lift as a product of fractional powers g(s)^(c/exp(G)), one per
    character and support element, each power shared by the characters
    with that c."""
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


@functools.cache
def _check_03_maps() -> tuple:
    """The distinct maps that check 03 lifts at seeds 0-3, recorded from the
    suite; they do not depend on a fault."""
    seen: dict = {}

    def record(g):
        seen.setdefault((g.group, frozenset(g.values.items())), g)
        return transpose_lift(g)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suite, "transpose_lift", record)
        for seed in range(4):
            run_suite(checks=["03"], seed=seed)
    return tuple(seen.values())


def _prime_element_maps() -> list:
    """f_s for every s of each tame group of checks 04 and 06, and of the
    composite of check 05."""
    groups = [(FiniteAbelianGroup((e,)), build_model(e, q)) for e, q in sorted(TAME_Q.items())]
    groups.append((C33, LocalModel(3, 7, 57)))
    return [prime_element_map(group, model, s)
            for group, model in groups for s in group.elements()]


def _pth_power_maps() -> list:
    """g(t^c(i)) = y_i^p on Z/p, for p = 3, 5 and 7, as check 08 lifts it."""
    return [pth_power_map(FiniteAbelianGroup((p,)), (1,), WildAlgebra(p)) for p in (3, 5, 7)]


@pytest.mark.parametrize("fault", (None,) + faults.ALL_FAULTS)
def test_transpose_lift_matches_its_powers_under_each_fault(fault):
    maps = _check_03_maps() + tuple(_prime_element_maps()) + tuple(_pth_power_maps())
    assert len(_check_03_maps()) > 300
    with faults.inject(fault) if fault else nullcontext():
        for g in maps:
            assert transpose_lift(g) == _transpose_lift_by_powers(g)


# the wild algebras' keys are vectors, the Puiseux keys integers; a
# conductor above exp(G) has roots of roots of unity other than 1
LIFT_ALGEBRAS = (
    (C3, MODEL), (C33, MODEL), (C3, LocalModel(3, 7, 15)), (C33, LocalModel(3, 7, 57)),
    (FiniteAbelianGroup((5,)), LocalModel(5, 11, 15)),
    (FiniteAbelianGroup((9,)), LocalModel(9, 19, 27)),
    (FiniteAbelianGroup((15,)), LocalModel(15, 31, 15)),
    (C3, WildAlgebra(3)), (C33, WildAlgebra(3, copies=2)),
    (FiniteAbelianGroup((5,)), WildAlgebra(5)),
)


@st.composite
def monomial_maps(draw):
    """A map of zeta_N^j X^k values, with X = pi^(1/e) or a y-variable.
    For about half the maps, j and each coordinate of k are multiples of
    exp(G), so that every root the lift takes exists; for the rest they are
    anything, so that some roots do not."""
    group, alg = draw(st.sampled_from(LIFT_ALGEBRAS))
    m, n = group.exponent, alg.ctx.n
    wide = isinstance(alg.unit_key, tuple)
    offsets = (0,) if draw(st.booleans()) else (0, 0, 0, 1, -1, 2)

    def coordinate():
        return m * draw(st.integers(-2, 2)) + draw(st.sampled_from(offsets))

    values = {}
    for s in group.elements():
        if draw(st.integers(0, 4)):
            key = tuple(coordinate() for _ in alg.unit_key) if wide else coordinate()
            values[s] = alg.zeta_monomial(key, (m * draw(st.integers(0, n)) + draw(
                st.sampled_from(offsets))) % n)
        else:
            values[s] = alg.one()
    return Resolvend(group, alg, values), draw(st.sampled_from((None,) + faults.ALL_FAULTS))


@settings(max_examples=150, deadline=None)
@given(monomial_maps())
def test_transpose_lift_matches_its_powers_on_monomial_maps(data):
    g, fault = data
    with faults.inject(fault) if fault else nullcontext():
        assert _outcome(transpose_lift, g) == _outcome(_transpose_lift_by_powers, g)


def _with_ones(group, alg, values: dict) -> Resolvend:
    return Resolvend(group, alg, {s: alg.one() for s in group.elements()} | values)


LIFT_ERRORS = {
    "not-a-monomial": (_with_ones(C3, MODEL, {(1,): MODEL.one() + MODEL.pi_power(1)}),
                       "FractionalPowerError", "fractional powers need a monomial"),
    "zero": (Resolvend(C3, MODEL, {(0,): MODEL.one()}),
             "FractionalPowerError", "fractional powers need a monomial"),
    "not-a-root": (_with_ones(C3, MODEL, {(1,): MODEL.from_rational(2)}),
                   "NotARootError", "value is not in mu_3"),
    "no-root-at-this-conductor": (
        _with_ones(C3, MODEL, {(1,): MODEL.monomial(0, MODEL.ctx.zeta_power(1))}),
        "FractionalPowerError", "no 3-th root of zeta^1 at conductor 3"),
    "off-the-lattice": (_with_ones(C3, MODEL, {(2,): MODEL.pi_power(Fraction(1, 3))}),
                        "FractionalPowerError", "exponent -1/9 leaves (1/3)Z"),
    "off-the-wild-lattice": (_with_ones(C3, WildAlgebra(3), {(1,): WildAlgebra(3).y(1)}),
                             "FractionalPowerError", "exponent 1/3 is not integral"),
    # character (0, 1) reaches (1, 1) and skips (1, 0), whose position is lower
    "character-before-element": (
        _with_ones(C33, MODEL, {(1, 0): MODEL.one() + MODEL.pi_power(1),
                                (1, 1): MODEL.monomial(0, MODEL.ctx.zeta_power(1))}),
        "FractionalPowerError", "no 3-th root of zeta^1 at conductor 3"),
}


@pytest.mark.parametrize("name", sorted(LIFT_ERRORS))
def test_transpose_lift_raises_the_first_error_of_its_powers(name):
    g, kind, message = LIFT_ERRORS[name]
    assert _outcome(transpose_lift, g) == _outcome(_transpose_lift_by_powers, g) == (
        kind, message)


def _faulty(monkeypatch, home, name: str, exact: str, faulty: str, modules: tuple):
    """Compile ``home.<name>`` from its own source with ``exact`` replaced
    by ``faulty`` and patch it into ``modules``, every module that calls it."""
    source = inspect.getsource(getattr(home, name))
    assert source.count(exact) == 1
    namespace: dict = {}
    exec(compile(textwrap.dedent(source.replace(exact, faulty)), home.__file__, "exec"),
         vars(home), namespace)
    for module in modules:
        monkeypatch.setattr(module, name, namespace[name])
    return namespace[name]


def _faulty_lift(monkeypatch, exact: str, faulty: str):
    return _faulty(monkeypatch, groupring, "transpose_lift", exact, faulty,
                   (groupring, suite, tame, wild))


def test_checks_05_and_08_fail_when_the_lift_drops_the_key_rescale(monkeypatch):
    """Keys k_s of the roots b_s summed without the factor n = |s| give a
    wrong exponent wherever the lift is not 1: the composite's unit part
    is not integral, and the wild resolvent identity fails at every p.
    Check 03 passes: each map it draws is constant on the power-twist
    orbits, over which the centered pairing sums to 0, so every lift it
    takes is 1, by either formula."""
    _faulty_lift(monkeypatch, "col[pos] = n * x", "col[pos] = x")
    failed = [(e.check_id, e.params.get("aspect"), e.params.get("p"))
              for e in run_suite(checks=["03", "05", "08"]).entries if not e.ok]
    assert failed == [("05-decompose-roundtrip", "decompose", None),
                      ("05-decompose-roundtrip", "recompose", None)] + [
        ("08-wild-verification", "resolvent-identity", p) for p in (3, 5, 7)]


def test_only_the_oracle_sees_the_lift_drop_the_root_of_unity(monkeypatch):
    """No suite input lifts a value whose coefficient is not 1, so a lift
    that drops the zeta exponent still passes the suite (check 03 is shown
    here); the oracle above is what catches it."""
    model = LocalModel(3, 7, 57)
    g = _with_ones(C3, model, {(1,): model.monomial(1, model.ctx.zeta_power(3))})
    clean = transpose_lift(g)
    assert clean == _transpose_lift_by_powers(g)
    faulty = _faulty_lift(monkeypatch, "sum(map(mul, row, logs)) // m", "0")
    assert faulty(g) != _transpose_lift_by_powers(g)
    assert all(e.ok for e in run_suite(checks=["03"]).entries)


# -- check 03, one verification per distinct map -----------------------------------


def _check_03_by_trials(cfg: SuiteConfig):
    """Check 03 with every trial verified, repeated maps included; it lifts
    through ``suite.transpose_lift``, so a patched lift reaches it too."""
    identity = ("the lift of a unit-valued class map satisfies "
                "r * involution(r) = 1 under exact convolution")
    trials = 100
    for spec in SELF_DUALITY_GROUPS:
        group = FiniteAbelianGroup(spec)
        e = group.exponent
        model = build_model(e, TAME_Q[e])
        rng = random.Random(f"{cfg.seed}:self-duality:{group.spec}")
        units = [k for k in range(1, e + 1) if math.gcd(k, e) == 1]
        orbit_of: dict = {}
        reps = []
        for s in group.elements():
            if s in orbit_of:
                continue
            for k in units:
                orbit_of[group.scale(s, k)] = len(reps)
            reps.append(s)
        one = delta_resolvend(group, model, group.identity)
        witness = None
        for trial in range(trials):
            exps = [_below(rng.getrandbits, 5) - 2 for _ in reps]
            values = {s: model.pi_power(exps[orbit_of[s]]) for s in group.elements()}
            values[group.identity] = model.one()
            g = Resolvend(group, model, values)
            r = from_character_space(group, model, suite.transpose_lift(g))
            if r * involution(r) != one:
                witness = f"trial {trial} exponents {exps}"
                break
        yield _entry("03-self-duality", identity,
                     {"group": group.spec, "trials": trials, "seed": cfg.seed},
                     witness is None, witness)


def _check_03_against_its_trials() -> list:
    """Check 03's entries at seeds 0-3, each required equal to the
    per-trial loop's; returns them."""
    entries = []
    for seed in range(4):
        cfg = SuiteConfig(seed=seed)
        got = [e.to_json() for e in suite.check_03_self_duality(cfg)]
        assert got == [e.to_json() for e in _check_03_by_trials(cfg)]
        entries += got
    return entries


@pytest.mark.parametrize("fault", (None,) + faults.ALL_FAULTS)
def test_check_03_matches_its_per_trial_loop_under_each_fault(fault):
    with faults.inject(fault) if fault else nullcontext():
        assert all(e["status"] == "pass" for e in _check_03_against_its_trials())


# lifts that break r * r^[-1] = 1 on some of check 03's maps and not on others
CHECK_03_LIFT_MUTANTS = {
    "position-for-order": ("col[pos] = n * x", "col[pos] = pos * x"),
    "shifted-above-key-1": ("col[pos] = n * x", "col[pos] = n * x + (x > 1) * pos"),
}


@pytest.mark.parametrize("name", sorted(CHECK_03_LIFT_MUTANTS))
def test_check_03_matches_its_per_trial_loop_under_a_faulty_lift(monkeypatch, name):
    """Each mutant passes the map of trial 0 in some entry and fails a later
    one, so the witness's trial index and exponents are compared too."""
    _faulty_lift(monkeypatch, *CHECK_03_LIFT_MUTANTS[name])
    witnesses = [e["witness"] for e in _check_03_against_its_trials() if "witness" in e]
    assert any(not w.startswith("trial 0 ") for w in witnesses)


def test_check_03_verifies_each_distinct_map_once(monkeypatch):
    """Check 03 draws 500 maps per seed, 100 per group, and lifts only the
    distinct ones."""
    lifted = []

    def record(g):
        lifted.append((g.group, frozenset(g.values.items())))
        return transpose_lift(g)

    monkeypatch.setattr(suite, "transpose_lift", record)
    counts = []
    for seed in range(4):
        lifted.clear()
        assert run_suite(checks=["03"], seed=seed).ok
        assert len(set(lifted)) == len(lifted)
        counts.append(len(lifted))
    assert counts == [129, 133, 128, 135]


# -- the wild actions and the weight, tables built once per call ------------------


def _omega_action_by_terms(x: WildElement, j: int) -> WildElement:
    """omega_j with two ``var_index`` look-ups per variable of every term."""
    alg = x.algebra
    p = alg.p
    k = wild.omega_exponent(p, j) % p
    terms = {}
    for exps, c in x.terms.items():
        new = [0] * alg.nvars
        for copy in range(alg.copies):
            for i in range(1, p):
                new[alg.var_index(j * i % p, copy)] = exps[alg.var_index(i, copy)]
        terms[tuple(new)] = galois_apply(c, k)
    return WildElement(alg, terms)


def _tau_action_by_terms(x: WildElement, j: int, copy: int = 0) -> WildElement:
    """tau~^{c(j)} with p - 1 calls of ``omega_exponent`` per term."""
    alg = x.algebra
    p = alg.p
    cj = wild.centered(p, j)
    cm1 = wild.centered(p, -1)
    terms = {}
    for exps, c in x.terms.items():
        phase = 0
        for i in range(1, p):
            phase += wild.omega_exponent(p, i) * cm1 * cj * exps[alg.var_index(i, copy)]
        terms[exps] = c * alg.ctx.zeta_power(phase % p)
    return WildElement(alg, terms)


def _weight_by_pascal_rows(x: WildElement):
    """The weight with each shifted monomial expanded one variable at a
    time, through a Pascal row built by additions."""
    alg = x.algebra
    p = alg.p
    if not x.terms:
        return wild.INF
    shift = [0] * alg.nvars
    for exps in x.terms:
        for k, e in enumerate(exps):
            shift[k] = max(shift[k], -e)
    zterms: dict = {}
    for exps, c in x.terms.items():
        expansion = {(0,) * alg.nvars: c}
        for k, e in enumerate(exps):
            n = e + shift[k]
            if n == 0:
                continue
            row = [1]
            for _ in range(n):
                row = [a + b for a, b in zip(row + [0], [0] + row)]
            new: dict = {}
            for zexp, zc in expansion.items():
                for m, binom in enumerate(row):
                    if binom == 0:
                        continue
                    key = zexp[:k] + (zexp[k] + m,) + zexp[k + 1:]
                    new[key] = zc * binom
            expansion = new
        for zexp, zc in expansion.items():
            zterms[zexp] = zterms[zexp] + zc if zexp in zterms else zc
    best = wild.INF
    for zexp, zc in zterms.items():
        if zc.is_zero():
            continue
        w = sum(zexp) + p * wild._zeta_minus_one_ord(zc)
        best = min(best, w)
    return best


def _ceiling_by_fraction(w: int, p: int) -> int:
    scaled = min(w, p * (p - 1)) - p * (p - 1)
    num = Fraction(scaled, p - 1)
    return -((-num.numerator) // num.denominator)


def _alpha_valuation_bound_by_fraction(alpha: WildElement) -> tuple:
    p = alpha.algebra.p
    if not all(_omega_action_by_terms(alpha, j) == alpha for j in range(1, p)):
        raise PreconditionError("alpha is not omega-invariant; no descent to L")
    w = _weight_by_pascal_rows(alpha * p - p)
    if w == wild.INF:
        return w, wild.INF
    return w, _ceiling_by_fraction(w, p)


WILD_ALGEBRAS = [WildAlgebra(p, copies) for p in (3, 5, 7) for copies in (1, 2)]


def _random_wild_element(rng: random.Random, alg: WildAlgebra) -> WildElement:
    """One to four monomials in at most four of the variables, exponents in
    [-2, 2], each coefficient scaled by p^k for k in [-2, 2] or by 1/3; at
    most four shifted columns keep the weight's expansion small."""
    p = alg.p
    active = rng.sample(range(alg.nvars), min(alg.nvars, 4))
    scales = [Fraction(p) ** k for k in range(-2, 3)] + [Fraction(1, 3)]
    x = alg.zero()
    for _ in range(rng.randint(1, 4)):
        exps = [0] * alg.nvars
        for v in active:
            exps[v] = rng.randint(-2, 2)
        coeff = CycNumber(alg.ctx, [rng.randint(-2, 2) for _ in range(alg.ctx.phi)])
        x = x + alg.monomial(exps, coeff * rng.choice(scales))
    return x


def _wild_inputs(alg: WildAlgebra) -> tuple[list, list]:
    """Seeded elements of two shapes: check 08's dense ones, and sparse ones
    with negative exponents and p or p^2 in the denominators.  The weight
    takes the dense ones only up to eight variables, where their expansion
    stays small."""
    rng = random.Random(f"wild-tables:{alg.p}:{alg.copies}")
    dense = [suite._random_wild(rng, alg) for _ in range(4)]
    sparse = [_random_wild_element(rng, alg) for _ in range(8)]
    return dense + sparse, sparse + dense * (alg.nvars <= 8)


@pytest.mark.parametrize("fault", (None,) + faults.ALL_FAULTS)
def test_wild_actions_and_weight_match_their_loops_under_each_fault(fault):
    seen_p_denominator = False
    with faults.inject(fault) if fault else nullcontext():
        for alg in WILD_ALGEBRAS:
            p = alg.p
            acted, weighed = _wild_inputs(alg)
            for x in acted:
                for j in range(1, p):
                    assert wild.omega_action(x, j) == _omega_action_by_terms(x, j)
                for copy in range(alg.copies):
                    for j in range(p):
                        assert wild.tau_action(x, j, copy) == _tau_action_by_terms(x, j, copy)
            for x in weighed:
                assert wild.weight_lower_bound(x) == _weight_by_pascal_rows(x)
                seen_p_denominator |= any(c.den % (p * p) == 0 for c in x.terms.values())
            # alpha on the last block, in and out of L, and an element that
            # is not omega-invariant, so both raise
            alpha = wild.build_alpha(alg, alg.copies - 1)
            for x in (alpha, alpha * Fraction(1, p), acted[0]):
                assert _outcome(wild.alpha_valuation_bound, x) == _outcome(
                    _alpha_valuation_bound_by_fraction, x)
    assert seen_p_denominator


@pytest.mark.parametrize("p", (3, 5, 7))
def test_alpha_bound_takes_the_integer_ceiling(monkeypatch, p):
    alpha = wild.build_alpha(WildAlgebra(p))
    for w in range(-60, 61):
        monkeypatch.setattr(wild, "weight_lower_bound", lambda x, w=w: w)
        assert wild.alpha_valuation_bound(alpha) == (w, _ceiling_by_fraction(w, p))


def _faulty_wild(monkeypatch, name: str, exact: str, faulty: str):
    return _faulty(monkeypatch, wild, name, exact, faulty, (wild, suite))


def _failing_entries() -> list:
    """(check, aspect or mutation, p, witness) of each failing entry of the
    default suite."""
    return [(e.check_id, e.params.get("aspect") or e.params.get("mutation"), e.params.get("p"),
             e.witness) for e in run_suite(seed=0).entries if not e.ok]


def test_only_action_relations_see_omega_permute_by_j(monkeypatch):
    """y_i -> y_{i/j} in place of y_{ji}: omega stays a group action of
    the units, so only the composition and commutation relations of check
    08 break, and only at p = 5 and 7 (at p = 3 every unit is its own
    inverse)."""
    _faulty_wild(monkeypatch, "omega_action", "i * j_inv % p", "i * j % p")
    assert [entry[:3] for entry in _failing_entries()] == [
        ("08-wild-verification", "action-relations", 5),
        ("08-wild-verification", "action-relations", 7)]


def test_tau_with_c_of_1_for_c_of_minus_1_fails_the_twist_identities(monkeypatch):
    """tau~ scaling by c(1) in place of c(-1) inverts every phase: the
    twist scaling and the resolvent identity fail at every p, and check
    11 finds the omega-uninverted detector already failing."""
    _faulty_wild(monkeypatch, "tau_action", "centered(p, -1)", "centered(p, 1)")
    assert _failing_entries() == [
        ("08-wild-verification", aspect, p, None)
        for p in (3, 5, 7) for aspect in ("tau-scaling", "resolvent-identity")
    ] + [("11-mutation-sensitivity", faults.OMEGA_UNINVERTED, None,
          "detector already failing without the mutation")]


def test_weight_bounds_fail_when_the_weight_drops_the_top_binomial(monkeypatch):
    """The expansion of y^b without its z^b term undercounts y - 1 and
    p * alpha - p, at every p."""
    _faulty_wild(monkeypatch, "weight_lower_bound", "range(n + 1)", "range(n)")
    assert [entry[:3] for entry in _failing_entries()] == [
        ("08-wild-verification", "weight-bounds", p) for p in (3, 5, 7)]


# -- group arithmetic by table --------------------------------------------------


def _add_by_coordinates(group: FiniteAbelianGroup, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, group.factors))


def _neg_by_coordinates(group: FiniteAbelianGroup, a):
    return tuple((-x) % d for x, d in zip(a, group.factors))


def _sub_by_coordinates(group: FiniteAbelianGroup, a, b):
    return tuple((x - y) % d for x, y, d in zip(a, b, group.factors))


TABLE_GROUPS = suite.odd_abelian_groups(27) + [FiniteAbelianGroup((243,)),
                                               FiniteAbelianGroup((3, 81))]


@pytest.mark.parametrize("group", TABLE_GROUPS, ids=lambda g: g.spec)
def test_group_tables_match_the_coordinate_formulas(group):
    elems = list(group.elements())
    for a in elems:
        assert group.neg(a) == _neg_by_coordinates(group, a)
        for b in elems:
            assert group.add(a, b) == _add_by_coordinates(group, a, b)
            assert group.sub(a, b) == _sub_by_coordinates(group, a, b)


NON_ELEMENTS = [(3, 0), (0, 9), (-1, 0), (0,), (0, 0, 0), [0, 0], (0, "1"), None, 0]


@pytest.mark.parametrize("bad", NON_ELEMENTS, ids=repr)
def test_group_arithmetic_rejects_non_elements(bad):
    group = FiniteAbelianGroup((3, 9))
    s = (1, 2)
    for _ in range(2):  # before and after the row of s and the negation table exist
        for call in (lambda: group.add(bad, s), lambda: group.add(s, bad),
                     lambda: group.neg(bad), lambda: group.sub(bad, s), lambda: group.sub(s, bad)):
            with pytest.raises(InvalidElementError):
                call()
        group.sub(s, s)


def test_a_group_builds_its_tables_once_and_only_when_used(monkeypatch):
    """A character table builds no table.  The first sum with a builds the
    row of a, the first negation the negation table, both from one walk of
    ``elements``, and later calls reuse them."""
    walks = []
    walk = FiniteAbelianGroup.elements
    monkeypatch.setattr(FiniteAbelianGroup, "elements",
                        lambda self: walks.append(self.spec) or walk(self))
    group = FiniteAbelianGroup((3, 9))
    CharacterTable(group)
    assert group._sums == {} and "_negs" not in vars(group)
    del walks[:]
    group.add((1, 2), (2, 8))
    row = group._sums[(1, 2)]
    assert list(group._sums) == [(1, 2)] and "_negs" not in vars(group)
    elems = list(walk(group))
    for a in elems:
        for b in elems:
            group.add(a, b), group.neg(a), group.sub(a, b)
    assert walks == ["3,9"] and group._sums[(1, 2)] is row
    assert list(group._sums) == [(1, 2)] + [a for a in elems if a != (1, 2)]


# -- the conductor-3 sum of products --------------------------------------------


def _cyc_dot_through_reduce(ctx: CycContext, pairs) -> CycNumber:
    n = ctx.n
    closed = ctx.phi == 2
    acc = [0, 0] if closed else [0] * (2 * ctx.phi - 1)
    den = 1
    for x, y in pairs:
        if x.ctx.n != n or y.ctx.n != n:
            raise ConductorError(f"conductor mismatch {x.ctx.n}, {y.ctx.n} vs {n}")
        d = x.den * y.den
        f = 1
        if d != den:
            g = den // gcd(den, d) * d
            if g != den:
                acc = [c * (g // den) for c in acc]
                den = g
            f = g // d
        if closed:
            (a0, a1), (b0, b1) = x.num, y.num
            t = a1 * b1
            acc[0] += (a0 * b0 - t) * f
            acc[1] += (a0 * b1 + a1 * b0 - t) * f
            continue
        nz = [(j, b * f) for j, b in enumerate(y.num) if b]
        for i, a in enumerate(x.num):
            if a:
                for j, b in nz:
                    acc[i + j] += a * b
    return CycNumber(ctx, ctx.reduce(acc), den)


def _conductor_3_pairs(rng: random.Random, dens: tuple) -> list:
    ctx = CycContext(3)

    def operand():
        return CycNumber(ctx, (rng.randint(-6, 6), rng.randint(-6, 6)), rng.choice(dens))

    return [(operand(), operand()) for _ in range(rng.randint(0, 8))]


@pytest.mark.parametrize("dens", [(1,), (2,), (3,), (6,), (1, 2, 3, 6)], ids=str)
def test_conductor_3_dot_matches_its_loop_through_reduce(dens):
    ctx = CycContext(3)
    rng = random.Random(f"cyc-dot:{dens}")
    lowered = 0
    for _ in range(300):
        pairs = _conductor_3_pairs(rng, dens)
        for case in (pairs, pairs + [(-x, y) for x, y in pairs], pairs + [(y, -x) for x, y in pairs]):
            got, want = cyc_dot(ctx, case), _cyc_dot_through_reduce(ctx, case)
            assert (got.num, got.den) == (want.num, want.den)
            if case is not pairs:
                assert (got.num, got.den) == ((0, 0), 1)
        lowered += got.den != math.lcm(1, *(x.den * y.den for x, y in pairs))
    # some sums leave their common denominator: the final gcd divides it
    assert lowered if dens != (1,) else not lowered


def test_conductor_3_dot_raises_the_error_of_its_loop_on_a_foreign_operand():
    ctx = CycContext(3)
    rng = random.Random("cyc-dot:foreign")
    for n in (1, 9, 21):
        foreign = CycContext(n).zeta_power(1)
        for _ in range(20):
            pairs = _conductor_3_pairs(rng, (1, 2, 3, 6))
            at = rng.randint(0, len(pairs))
            for pair in ((foreign, ctx.one()), (ctx.one(), foreign), (foreign, foreign)):
                case = pairs[:at] + [pair] + pairs[at:]
                got = _outcome(cyc_dot, ctx, case)
                assert got == _outcome(_cyc_dot_through_reduce, ctx, case)
                assert got[0] == "ConductorError"
