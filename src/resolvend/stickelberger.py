"""Characters of odd abelian groups and the centered Stickelberger pairing.

In invariant-factor coordinates the dual group is the group itself: the
character chi = (chi_1, ..., chi_k) sends s to zeta_m^c with
c = sum_i chi_i s_i m/d_i, m = exp(G), and that exponent is symmetric in chi
and s.  So characters are the group's own element tuples, and the group's
``neg``, ``scale`` and ``elements`` serve them too.

Odd order makes the centering canonical: for each character chi and group
element s there is exactly one integer upsilon in [(1-|s|)/2, (|s|-1)/2]
with chi(s) = zeta_{|s|}^upsilon, and the pairing is <chi, s> = upsilon/|s|.
One ``CharacterTable`` per group holds every chi(s) as a centered integer,
and the pairing, Theta and the rows of character values all read it.
The determinant map sends a formal Z-combination of characters to their
product; its kernel is a full-rank sublattice of index |G| whose basis is
computed by exact integer elimination and canonicalized by row HNF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import faults
from .cyclotomic import CycContext, CycNumber
from .errors import InvalidElementError
from .groups import FiniteAbelianGroup, GroupElement
from .intlinalg import det, hnf_rows, kernel_basis

Character = tuple[int, ...]


class CharacterTable:
    """chi(s) = zeta_m^c for every character chi and element s, m = exp(G),
    with c the centered integer, |c| < m/2; one table per group.

    Characters and elements are both coordinate tuples in lexicographic
    order, so one index serves both, and ``rows[i][j]`` is c for character i
    at element j.  The pairing is <chi, s> = c/m: for n = |s|, (m/n) | c and
    c n/m is upsilon, centered because |c| < m/2 exactly when |upsilon| < n/2.
    The table holds the fault-free values; readers of the pairing apply
    ``pairing_sign``."""

    _cache: dict[tuple[int, ...], "CharacterTable"] = {}

    def __new__(cls, group: FiniteAbelianGroup):
        self = cls._cache.get(group.factors)
        if self is not None:
            return self
        self = super().__new__(cls)
        self.group = group
        self.index = {x: j for j, x in enumerate(group.elements())}
        m = group.exponent
        centered = [k if 2 * k < m else k - m for k in range(m)]
        self.rows = []
        for chi in group.elements():
            # k(chi, s) = sum_i chi_i s_i (m/d_i) mod m, last coordinate fastest
            ks = [0]
            for img, d in zip(chi, group.factors):
                step = img * (m // d)
                ks = [(k + step * c) % m for k in ks for c in range(d)]
            self.rows.append(tuple(centered[k] for k in ks))
        cls._cache[group.factors] = self
        return self

    def position(self, x) -> int:
        """Index of a character or an element; raises InvalidElementError
        for anything outside the group."""
        try:
            return self.index[x]
        except (KeyError, TypeError):
            self.group.validate(x)
            raise InvalidElementError(f"{x!r} is not in {self.group.spec}")

    def row(self, chi: Character) -> tuple[int, ...]:
        return self.rows[self.position(chi)]

    def value(self, chi: Character, s: GroupElement) -> int:
        return self.rows[self.position(chi)][self.position(s)]

    def roots(self, chi: Character, ctx: CycContext) -> list[CycNumber]:
        """chi(s) for every s in ``index`` order, as exact roots of unity at
        the session conductor, which must hold the order-exp(G) roots.  The
        roots are the context's shared ``zetas``; |step c| < N/2, so a
        negative index reads zeta^(N + step c)."""
        m = self.group.exponent
        if ctx.n % m != 0:
            raise InvalidElementError(f"conductor {ctx.n} lacks order-{m} roots")
        step, zetas = ctx.n // m, ctx.zetas
        return [zetas[step * c] for c in self.row(chi)]


def pairing_sign() -> int:
    """-1 while the pairing-sign fault is injected, else 1; every reader of
    the pairing multiplies the table's numerators by it."""
    return -1 if faults.is_active(faults.PAIRING_SIGN_FLIP) else 1


def stickelberger_pairing(group: FiniteAbelianGroup, chi: Character, s: GroupElement) -> Fraction:
    """<chi, s> = upsilon/|s| with upsilon centered in [(1-|s|)/2, (|s|-1)/2],
    read from the character table as c/exp(G).

    It is a rational number and needs no conductor; ``CharacterTable.roots``
    checks the conductor wherever roots of unity are built."""
    return Fraction(pairing_sign() * CharacterTable(group).value(chi, s), group.exponent)


def det_map(group: FiniteAbelianGroup, psi: dict) -> Character:
    """Determinant of a Z-combination of characters: the product character."""
    out = [0] * group.rank
    for chi, mult in psi.items():
        for i, (img, d) in enumerate(zip(chi, group.factors)):
            out[i] = (out[i] + mult * img) % group.factors[i]
    return tuple(out)


def stickelberger_map(group: FiniteAbelianGroup, psi: dict) -> dict[GroupElement, Fraction]:
    """Theta(psi): group-ring element with coefficient <psi, s> at each s,
    summed as integer numerators over exp(G)."""
    table = CharacterTable(group)
    scaled = [[mult * c for c in table.row(chi)] for chi, mult in psi.items() if mult]
    totals = [sum(col) for col in zip(*scaled)] if scaled else [0] * group.order
    sign, m = pairing_sign(), group.exponent
    return {s: Fraction(sign * total, m) for s, total in zip(group.elements(), totals)}


def integrality_check(group: FiniteAbelianGroup, psi: dict) -> bool:
    """All coefficients of Theta(psi) integral?"""
    return all(v.denominator == 1 for v in stickelberger_map(group, psi).values())


class DetKernelBasis:
    """Canonical basis of the determinant kernel inside the character lattice."""

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        self.characters: list[Character] = list(group.elements())
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
    # both sides are table reads, so the pairing-sign fault negates them alike
    table = CharacterTable(group)
    twist = [table.position(group.scale(s, k)) for s in group.elements()]
    for chi in group.elements():
        row = table.row(chi)
        if table.row(group.scale(chi, k)) != tuple(row[j] for j in twist):
            return False
    return True
