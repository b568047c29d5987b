"""Pairing table, determinant kernel, and equivariance."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from resolvend import faults
from resolvend.cyclotomic import CycContext, discrete_log_in_mu
from resolvend.errors import InvalidElementError
from resolvend.groups import FiniteAbelianGroup, element_order
from resolvend.stickelberger import (
    CharacterTable,
    DetKernelBasis,
    char_exponent,
    char_inv,
    char_pow,
    characters,
    det_map,
    equivariance_check,
    integrality_check,
    stickelberger_map,
    stickelberger_pairing,
)
from resolvend.suite import _integrality_columns


def test_character_group_arithmetic():
    group = FiniteAbelianGroup((3, 9))
    chars = list(characters(group))
    assert len(chars) == 27
    assert chars[0] == (0, 0)
    a, b = (1, 4), (2, 7)
    assert det_map(group, {a: 1, b: 1}) == (0, 2)
    assert det_map(group, {a: 1, char_inv(group, a): 1}) == (0, 0)
    assert det_map(group, {a: 2}) == char_pow(group, a, 2)
    assert char_pow(group, a, 5) == (2, 2)
    assert char_pow(group, a, -1) == char_inv(group, a)


def test_char_exponent_is_bilinear():
    group = FiniteAbelianGroup((3, 9))
    m = group.exponent
    rng = random.Random("char-bilinear")
    chars = list(characters(group))
    elems = list(group.elements())
    for _ in range(80):
        chi, psi = rng.choice(chars), rng.choice(chars)
        s, t = rng.choice(elems), rng.choice(elems)
        # {chi: 1, psi: 1} would collapse to {chi: 1} when chi == psi
        product = det_map(group, {chi: 2} if chi == psi else {chi: 1, psi: 1})
        assert (char_exponent(group, product, s)
                == (char_exponent(group, chi, s) + char_exponent(group, psi, s)) % m)
        assert (char_exponent(group, chi, group.add(s, t))
                == (char_exponent(group, chi, s) + char_exponent(group, chi, t)) % m)


def _char_value(group, chi, s, ctx):
    """Reference chi(s) at the session conductor, computed per call from the
    coordinate sum: the formula the character transforms used before they
    read table rows."""
    m = group.exponent
    if ctx.n % m != 0:
        raise InvalidElementError(f"conductor {ctx.n} lacks order-{m} roots")
    return ctx.zeta_power((ctx.n // m) * _char_exponent_by_loop(group, chi, s))


def test_char_value_needs_enough_roots():
    group = FiniteAbelianGroup((9,))
    table = CharacterTable(group)
    for n in (9, 45):
        ctx = CycContext(n)
        assert table.roots((1,), ctx)[table.position((1,))] == ctx.zeta_power(n // 9)
        assert table.roots((2,), ctx)[table.position((4,))] == ctx.zeta_power(8 * n // 9)
    with pytest.raises(InvalidElementError):
        table.roots((1,), CycContext(3))


def test_root_rows_match_the_per_call_formula():
    """Each row of roots is chi(s) for every s in index order, at the
    exponent and at a multiple of it."""
    for group in _odd_groups(27):
        table = CharacterTable(group)
        for ctx in (CycContext(group.exponent), CycContext(3 * group.exponent)):
            for chi in characters(group):
                assert table.roots(chi, ctx) == [_char_value(group, chi, s, ctx)
                                                 for s in table.index]


def test_pairing_table_on_c3():
    group = FiniteAbelianGroup((3,))
    table = {
        ((0,), (0,)): Fraction(0), ((0,), (1,)): Fraction(0), ((0,), (2,)): Fraction(0),
        ((1,), (0,)): Fraction(0), ((1,), (1,)): Fraction(1, 3), ((1,), (2,)): Fraction(-1, 3),
        ((2,), (0,)): Fraction(0), ((2,), (1,)): Fraction(-1, 3), ((2,), (2,)): Fraction(1, 3),
    }
    for (chi, s), want in table.items():
        assert stickelberger_pairing(group, chi, s) == want


def test_pairing_is_centered_and_antisymmetric():
    group = FiniteAbelianGroup((3, 9))
    for chi in characters(group):
        for s in group.elements():
            v = stickelberger_pairing(group, chi, s)
            n = element_order(group, s)
            assert abs(v) <= Fraction(n - 1, 2 * n)
            assert v * n == int(v * n)
            # conjugate character negates the centered pairing (odd order)
            assert stickelberger_pairing(group, char_inv(group, chi), s) == -v


def _pairing_by_dlog(group, chi, s, ctx):
    """Reference pairing: upsilon by a linear discrete-log scan of chi(s)
    over mu_|s| in Q(zeta_N), then centered."""
    n = element_order(group, s)
    if n == 1:
        return Fraction(0)
    upsilon = discrete_log_in_mu(_char_value(group, chi, s, ctx), n)
    if upsilon > (n - 1) // 2:
        upsilon -= n
    return Fraction(upsilon, n)


def _odd_groups(max_order):
    """Invariant-factor chains d_1 | d_2 | ... of odd d_i > 1, order <= max_order."""
    def chains(step, room):
        yield ()
        for d in range(step, room + 1, step):
            if d > 1 and d % 2:
                for rest in chains(d, room // d):
                    yield (d,) + rest
    return [FiniteAbelianGroup(c) for c in chains(1, max_order) if c]


def test_pairing_matches_dlog_reference():
    groups = _odd_groups(27)
    assert {g.spec for g in groups} >= {"27", "3,9", "3,3,3", "5,5", "21"}
    pairs = 0
    for group in groups:
        ctx = CycContext(group.exponent)
        for chi in characters(group):
            for s in group.elements():
                assert (stickelberger_pairing(group, chi, s)
                        == _pairing_by_dlog(group, chi, s, ctx))
                pairs += 1
    assert pairs == 5817


def _char_exponent_by_loop(group, chi, s):
    """Reference chi(s) = zeta_m^k, k in [0, m): the per-call coordinate sum."""
    m = group.exponent
    total = 0
    for img, c, d in zip(chi, s, group.factors):
        total += img * c * (m // d)
    return total % m


def _pairing_by_formula(group, chi, s):
    """Reference pairing, computed per call: upsilon = k |s| / m, centered."""
    group.validate(s)
    n = element_order(group, s)
    if n == 1:
        return Fraction(0)
    m = group.exponent
    upsilon = _char_exponent_by_loop(group, chi, s) * n // m
    if upsilon > (n - 1) // 2:
        upsilon -= n
    return Fraction(upsilon, n)


def test_character_table_matches_per_call_formula():
    """Every table entry, and every read of it, agrees with the per-call
    formula on all 5,817 pairs of the odd groups of order <= 27."""
    pairs = 0
    for group in _odd_groups(27):
        table = CharacterTable(group)
        assert table is CharacterTable(FiniteAbelianGroup(group.factors))
        m = group.exponent
        for chi, row in zip(characters(group), table.rows):
            for s, c in zip(group.elements(), row):
                assert 2 * abs(c) < m
                want = _pairing_by_formula(group, chi, s)
                assert Fraction(c, m) == want == stickelberger_pairing(group, chi, s)
                assert char_exponent(group, chi, s) == _char_exponent_by_loop(group, chi, s)
                pairs += 1
    assert pairs == 5817


def test_centered_exponent_identity_on_larger_groups():
    """c = k mod m with |c| < m/2, and <chi, s> = c/m, beyond order 27."""
    for spec in ((81,), (3, 27), (9, 9), (5, 25), (3, 3, 9)):
        group = FiniteAbelianGroup(spec)
        table = CharacterTable(group)
        m = group.exponent
        for chi, row in zip(characters(group), table.rows):
            for s, c in zip(group.elements(), row):
                assert 2 * abs(c) < m
                assert c % m == _char_exponent_by_loop(group, chi, s)
                assert Fraction(c, m) == _pairing_by_formula(group, chi, s)


def test_sign_fault_is_read_from_the_table_never_stored():
    group = FiniteAbelianGroup((3, 9))
    table = CharacterTable(group)
    rows = list(table.rows)
    psi = {(1, 1): 2, (0, 4): -1}

    def reads():
        pairings = [stickelberger_pairing(group, chi, s)
                    for chi in characters(group) for s in group.elements()]
        return pairings, stickelberger_map(group, psi), _integrality_columns(group)[1]

    pairings, theta, columns = reads()
    assert any(pairings)
    with faults.inject(faults.PAIRING_SIGN_FLIP):
        flipped = reads()
        assert table.rows == rows
    assert flipped[0] == [-v for v in pairings]
    assert flipped[1] == {s: -v for s, v in theta.items()}
    assert flipped[2] == [[-c % group.exponent for c in col] for col in columns]
    after = reads()
    assert after == (pairings, theta, columns)
    assert CharacterTable(group) is table and table.rows == rows


def test_table_reads_reject_what_is_outside_the_group():
    group = FiniteAbelianGroup((3, 9))
    ctx = CycContext(9)
    for bad in ((0, 9), (3, 0), (-1, 0), (1,), (0, 0, 0), [1, 1], ("1", 1), None):
        with pytest.raises(InvalidElementError):
            stickelberger_pairing(group, (1, 1), bad)
        with pytest.raises(InvalidElementError):
            stickelberger_pairing(group, bad, (1, 1))
        with pytest.raises(InvalidElementError):
            CharacterTable(group).roots(bad, ctx)
    with pytest.raises(InvalidElementError):
        stickelberger_map(group, {(0, 9): 1})


def test_pairing_sign_fault():
    # on (3, 9) the element has order 3 < exponent 9, so the fault meets
    # the |s| / exp(G) scaling
    for spec, chi, s in (((3,), (1,), (1,)), ((3, 9), (1, 1), (1, 3))):
        group = FiniteAbelianGroup(spec)
        clean = stickelberger_pairing(group, chi, s)
        assert clean != 0
        with faults.inject(faults.PAIRING_SIGN_FLIP):
            assert stickelberger_pairing(group, chi, s) == -clean
        assert stickelberger_pairing(group, chi, s) == clean


def test_det_map():
    group = FiniteAbelianGroup((3, 3))
    assert det_map(group, {(1, 2): 1}) == (1, 2)
    assert det_map(group, {(1, 2): 1, (2, 1): 1}) == (0, 0)
    assert det_map(group, {(1, 0): 2, (0, 1): 3}) == (2, 0)
    assert det_map(group, {}) == (0, 0)


def test_theta_shape():
    group = FiniteAbelianGroup((5,))
    theta = stickelberger_map(group, {(1,): 1})
    assert set(theta) == set(group.elements())
    assert theta[group.identity] == 0
    assert theta[(1,)] == Fraction(1, 5)


def test_integrality_matches_trivial_det_exhaustively():
    """The theorem, checked directly on every psi with small coefficients."""
    group = FiniteAbelianGroup((3,))
    chars = list(characters(group))
    for coeffs in itertools.product(range(-2, 3), repeat=len(chars)):
        psi = {chi: c for chi, c in zip(chars, coeffs) if c}
        trivial = det_map(group, psi) == group.identity
        assert integrality_check(group, psi) == trivial


def test_integrality_matches_trivial_det_sampled():
    group = FiniteAbelianGroup((5,))
    chars = list(characters(group))
    rng = random.Random("stickelberger-c5")
    for _ in range(200):
        psi = {chi: rng.randrange(-2, 3) for chi in chars}
        trivial = det_map(group, psi) == group.identity
        assert integrality_check(group, psi) == trivial


def test_kernel_basis_structure():
    for spec in ((3,), (5,), (3, 3)):
        group = FiniteAbelianGroup(spec)
        basis = DetKernelBasis(group)
        assert len(basis.vectors) == len(basis.characters) == group.order
        assert basis.lattice_index() == group.order
        for combo in basis.combos():
            assert det_map(group, combo) == group.identity
            assert integrality_check(group, combo)


def test_kernel_membership():
    group = FiniteAbelianGroup((3,))
    basis = DetKernelBasis(group)
    assert not basis.contains({(1,): 1})
    assert basis.contains({(1,): 3})
    assert basis.contains({(1,): 1, (2,): 1})  # det = 3 = 0 mod 3
    assert basis.contains({})
    for combo in basis.combos():
        assert basis.contains(combo)
    # membership agrees with the determinant over a sampled set
    rng = random.Random("kernel-members")
    chars = list(characters(group))
    for _ in range(100):
        psi = {chi: rng.randrange(-3, 4) for chi in chars}
        assert basis.contains(psi) == (det_map(group, psi) == group.identity)


def _contains_by_gauss_jordan(basis, psi):
    """Reference membership: solve over Q against the basis vectors by
    Gauss-Jordan elimination, then demand an integral solution that
    reproduces psi."""
    target = [psi.get(chi, 0) for chi in basis.characters]
    n, k = len(basis.characters), len(basis.vectors)
    rows = [[Fraction(basis.vectors[i][j]) for i in range(k)] + [Fraction(target[j])]
            for j in range(n)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    sol = [Fraction(0)] * k
    r = 0
    for c in range(k):
        if r < n and rows[r][c] != 0:
            sol[c] = rows[r][-1] / rows[r][c]
            r += 1
    for j in range(n):
        if sum(sol[i] * basis.vectors[i][j] for i in range(k)) != target[j]:
            return False
    return all(x.denominator == 1 for x in sol)


def test_kernel_membership_matches_gauss_jordan():
    """The integer pivot walk agrees with the rational solve on random
    combinations, on lattice members and on members plus one character,
    for every odd group of order <= 27."""
    rng = random.Random("kernel-gauss-jordan")
    verdicts = set()
    for group in _odd_groups(27):
        basis = DetKernelBasis(group)
        chars = basis.characters
        samples = [{chi: rng.randrange(-3, 4) for chi in chars} for _ in range(4)]
        for _ in range(4):
            member = {chi: 0 for chi in chars}
            for vec in basis.vectors:
                mult = rng.randrange(-2, 3)
                for chi, c in zip(chars, vec):
                    member[chi] += mult * c
            samples.append(member)
            shifted = dict(member)
            shifted[rng.choice(chars)] += 1
            samples.append(shifted)
        for psi in samples:
            fast = basis.contains(psi)
            assert fast == _contains_by_gauss_jordan(basis, psi), (group.spec, psi)
            assert fast == (det_map(group, psi) == group.identity)
            verdicts.add(fast)
    assert verdicts == {True, False}


def test_equivariance():
    group = FiniteAbelianGroup((3, 9))
    assert equivariance_check(group, 2)
    assert equivariance_check(group, 7)
    with pytest.raises(InvalidElementError):
        equivariance_check(group, 3)

