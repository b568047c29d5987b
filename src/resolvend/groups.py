"""Finite abelian groups of odd order, presented by invariant factors.

A group is a chain d_1 | d_2 | ... | d_k of odd integers > 1; elements are
coordinate tuples with coords[i] in [0, d_i).  Arbitrary factor lists are
accepted and put into invariant-factor form at construction, so ``(3, 5)``
and ``(15,)`` build the same group.

Only this module reduces coordinates modulo the invariant factors: other
modules build elements through ``element`` and combine them through
``add``, ``neg``, ``sub`` and ``scale``.  ``add``, ``neg`` and ``sub`` read
a sum table and a negation table kept on the group object: the negation
table is built on first use, and each row {b: a + b} of the sum table on
the first sum with a, so a group that only serves a character table builds
neither.  The sum table has at most |G|^2 entries, so at most MAX_SIZE^2
under the CLI's bound ``cli.MAX_SIZE``.  An argument that is not an element
raises InvalidElementError.
"""

from __future__ import annotations

import itertools
from functools import cached_property
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
        self._sums: dict[GroupElement, dict[GroupElement, GroupElement]] = {}

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

    @cached_property
    def _elements(self) -> list[GroupElement]:
        return list(self.elements())

    @cached_property
    def _negs(self) -> dict[GroupElement, GroupElement]:
        """{a: -a}, built on first use."""
        return {a: tuple((-x) % d for x, d in zip(a, self.factors)) for a in self._elements}

    def _row(self, a, *others) -> dict[GroupElement, GroupElement]:
        """The row {b: a + b} of the sum table, built on its first use, its
        values the tuples of ``_elements``; InvalidElementError unless a and
        ``others`` are elements.  The row lists a + b for b in lexicographic
        order, so its positions are a mixed-radix count shifted by a,
        coordinate by coordinate."""
        for x in (a, *others):
            self.validate(x)
        row = self._sums.get(a)
        if row is None:
            elems, stride, positions = self._elements, self.order, [0]
            for x, d in zip(a, self.factors):
                stride //= d
                positions = [k + (x + c) % d * stride for k in positions for c in range(d)]
            row = self._sums[a] = dict(zip(elems, map(elems.__getitem__, positions)))
        return row

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        try:
            return self._sums[a][b]
        except (KeyError, TypeError):
            return self._row(a, b)[b]

    def neg(self, a: GroupElement) -> GroupElement:
        try:
            return self._negs[a]
        except (KeyError, TypeError):
            return self._negs[self.validate(a)]

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        try:
            return self._sums[a][self._negs[b]]
        except (KeyError, TypeError):
            return self._row(a, b)[self.neg(b)]

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
