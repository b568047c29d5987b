"""Characters of odd abelian groups and the centered Stickelberger pairing.

Odd order makes the centering canonical: for each character chi and group
element s there is exactly one integer upsilon in [(1-|s|)/2, (|s|-1)/2]
with chi(s) = zeta_{|s|}^upsilon, and the pairing is <chi, s> = upsilon/|s|.
The determinant map sends a formal Z-combination of characters to their
product; its kernel is a full-rank sublattice of index |G| whose basis is
computed by exact integer elimination and canonicalized by row HNF.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import faults
from .cyclotomic import CycContext, CycNumber
from .errors import InvalidElementError
from .groups import FiniteAbelianGroup, GroupElement, element_order
from .intlinalg import det, hnf_rows, kernel_basis

Character = tuple[int, ...]


def characters(group: FiniteAbelianGroup):
    """All characters, as image tuples, in lexicographic order."""
    return itertools.product(*(range(d) for d in group.factors))


def char_inv(group: FiniteAbelianGroup, a: Character) -> Character:
    return tuple((-x) % d for x, d in zip(a, group.factors))


def char_pow(group: FiniteAbelianGroup, a: Character, k: int) -> Character:
    return tuple((x * k) % d for x, d in zip(a, group.factors))


def char_exponent(group: FiniteAbelianGroup, chi: Character, s: GroupElement) -> int:
    """chi(s) = zeta_m^k for the group exponent m; returns k."""
    m = group.exponent
    total = 0
    for img, c, d in zip(chi, s, group.factors):
        total += img * c * (m // d)
    return total % m


def char_value(group: FiniteAbelianGroup, chi: Character, s: GroupElement, ctx: CycContext) -> CycNumber:
    """chi(s) as an exact root of unity at the session conductor."""
    m = group.exponent
    if ctx.n % m != 0:
        raise InvalidElementError(f"conductor {ctx.n} lacks order-{m} roots")
    return ctx.zeta_power((ctx.n // m) * char_exponent(group, chi, s))


def stickelberger_pairing(group: FiniteAbelianGroup, chi: Character, s: GroupElement) -> Fraction:
    """<chi, s> = upsilon/|s| with upsilon centered in [(1-|s|)/2, (|s|-1)/2].

    It is a rational number and needs no conductor; ``char_value`` checks the
    conductor wherever a root of unity is built."""
    group.validate(s)
    n = element_order(group, s)
    if n == 1:
        return Fraction(0)
    m = group.exponent
    upsilon = char_exponent(group, chi, s) * n // m  # zeta_m^k = zeta_n^(k n/m), (m/n) | k
    if upsilon > (n - 1) // 2:
        upsilon -= n
    if faults.is_active(faults.PAIRING_SIGN_FLIP):
        upsilon = -upsilon
    return Fraction(upsilon, n)


def det_map(group: FiniteAbelianGroup, psi: dict) -> Character:
    """Determinant of a Z-combination of characters: the product character."""
    out = [0] * group.rank
    for chi, mult in psi.items():
        for i, (img, d) in enumerate(zip(chi, group.factors)):
            out[i] = (out[i] + mult * img) % group.factors[i]
    return tuple(out)


def stickelberger_map(group: FiniteAbelianGroup, psi: dict) -> dict[GroupElement, Fraction]:
    """Theta(psi): group-ring element with coefficient <psi, s> at each s."""
    out: dict[GroupElement, Fraction] = {}
    for s in group.elements():
        total = Fraction(0)
        for chi, mult in psi.items():
            if mult:
                total += mult * stickelberger_pairing(group, chi, s)
        out[s] = total
    return out


def integrality_check(group: FiniteAbelianGroup, psi: dict) -> bool:
    """All coefficients of Theta(psi) integral?"""
    return all(v.denominator == 1 for v in stickelberger_map(group, psi).values())


class DetKernelBasis:
    """Canonical basis of the determinant kernel inside the character lattice."""

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        self.characters: list[Character] = list(characters(group))
        n = len(self.characters)
        k = group.rank
        # lattice {x : M x = 0 mod (d_i)} via kernel of [M | diag(d)], projected
        rows = []
        for i in range(k):
            row = [chi[i] for chi in self.characters] + [0] * k
            row[n + i] = group.factors[i]
            rows.append(row)
        raw = [v[:n] for v in kernel_basis(rows)]
        self.vectors: list[tuple[int, ...]] = [tuple(r) for r in hnf_rows(raw)]

    def combos(self) -> list[dict[Character, int]]:
        out = []
        for vec in self.vectors:
            out.append({chi: c for chi, c in zip(self.characters, vec) if c})
        return out

    def lattice_index(self) -> int:
        return abs(det([list(v) for v in self.vectors]))

    def contains(self, psi: dict) -> bool:
        """Exact membership in integers: walk down the echelon rows, subtract
        the multiple of each row that clears its pivot column (the pivot must
        divide the entry there), and demand that nothing is left."""
        rest = [psi.get(chi, 0) for chi in self.characters]
        for row in self.vectors:
            col = next(j for j, c in enumerate(row) if c)
            mult, left = divmod(rest[col], row[col])
            if left:
                return False
            rest = [x - mult * y for x, y in zip(rest, row)]
        return not any(rest)


def equivariance_check(group: FiniteAbelianGroup, k: int) -> bool:
    """Galois equivariance of the pairing: <chi^k, s> = <chi, s^k> for all chi, s.

    The action twists characters by k and group elements by the inverse
    twist, so Theta commutes with it exactly when this identity holds.
    """
    if gcd(k, group.exponent) != 1:
        raise InvalidElementError(f"twist {k} not coprime to exponent {group.exponent}")
    for chi in characters(group):
        for s in group.elements():
            lhs = stickelberger_pairing(group, char_pow(group, chi, k), s)
            rhs = stickelberger_pairing(group, chi, group.scale(s, k))
            if lhs != rhs:
                return False
    return True
