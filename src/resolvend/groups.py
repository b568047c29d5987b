"""Finite abelian groups of odd order, presented by invariant factors.

A group is a chain d_1 | d_2 | ... | d_k of odd integers > 1; elements are
coordinate tuples with coords[i] in [0, d_i).  Arbitrary factor lists are
accepted and put into invariant-factor form at construction, so ``(3, 5)``
and ``(15,)`` build the same group.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .errors import InvalidElementError, InvalidGroupError

GroupElement = tuple[int, ...]

# The verification suite's bounds: largest group order, the primes of the
# wild checks and the ramification degrees of the tame ones.  The CLI parser
# reads them too, so they live here rather than in ``suite``.
MAX_ORDER = 27
ALLOWED_P = (3, 5, 7)
ALLOWED_E = (3, 5, 7, 9)


def prime_factors(n: int) -> dict[int, int]:
    """{p: exponent} by trial division; empty for n < 2."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(factors) -> tuple[int, ...]:
    """Canonical chain d_1 | d_2 | ... | d_k for a product of cyclic groups."""
    factors = tuple(int(d) for d in factors)
    if not factors:
        raise InvalidGroupError("empty factor list")
    for d in factors:
        if d < 2:
            raise InvalidGroupError(f"cyclic factor {d} is below 2")
        if d % 2 == 0:
            raise InvalidGroupError(f"cyclic factor {d} is even")
    # collect prime power columns, largest into the last invariant factor
    powers: dict[int, list[int]] = {}
    for d in factors:
        for p, e in prime_factors(d).items():
            powers.setdefault(p, []).append(e)
    depth = max(len(v) for v in powers.values())
    chain = []
    for slot in range(depth):
        d = 1
        for p, exps in powers.items():
            exps = sorted(exps, reverse=True)
            if slot < len(exps):
                d *= p ** exps[slot]
        chain.append(d)
    chain.reverse()  # ascending divisibility
    return tuple(chain)


class FiniteAbelianGroup:
    """Abelian group of odd order with elements as coordinate tuples."""

    def __init__(self, factors):
        self.factors = invariant_factors(factors)
        self.rank = len(self.factors)
        self.exponent = self.factors[-1]
        self.order = 1
        for d in self.factors:
            self.order *= d
        self.identity: GroupElement = (0,) * self.rank

    @property
    def spec(self) -> str:
        return ",".join(str(d) for d in self.factors)

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"FiniteAbelianGroup({self.spec})"

    def validate(self, s: GroupElement) -> GroupElement:
        if not isinstance(s, tuple) or len(s) != self.rank:
            raise InvalidElementError(f"{s!r} has wrong shape for {self.spec}")
        for c, d in zip(s, self.factors):
            if not isinstance(c, int) or not 0 <= c < d:
                raise InvalidElementError(f"coordinate {c!r} out of range for {self.spec}")
        return s

    def element(self, coords) -> GroupElement:
        """Reduce arbitrary integer coordinates into the group."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InvalidElementError(f"{coords!r} has wrong shape for {self.spec}")
        return tuple(c % d for c, d in zip(coords, self.factors))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def neg(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x - y) % d for x, y, d in zip(a, b, self.factors))

    def scale(self, a: GroupElement, k: int) -> GroupElement:
        return tuple((x * k) % d for x, d in zip(a, self.factors))

    def elements(self):
        """All elements in lexicographic order on coordinates."""
        return itertools.product(*(range(d) for d in self.factors))

    def cyclic_span(self, s: GroupElement) -> list[GroupElement]:
        n = element_order(self, s)
        return [self.scale(s, i) for i in range(n)]


def element_order(group: FiniteAbelianGroup, s: GroupElement) -> int:
    """Order of s: lcm over coordinates of d_i / gcd(coords[i], d_i)."""
    group.validate(s)
    n = 1
    for c, d in zip(s, group.factors):
        n = lcm(n, d // gcd(c, d))
    return n
