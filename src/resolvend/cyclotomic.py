"""Exact arithmetic in Q(zeta_N) in the power basis mod the N-th cyclotomic
polynomial.

One conductor N serves a whole computation session; every root of unity of
order n | N is the coherent power zeta_N^(N/n).  A CycNumber stores an integer
coefficient vector over a single positive denominator, so products and
inverses (by fraction-free elimination) stay in integer arithmetic; Fractions
appear only at the API boundary.  Every CycNumber is kept in lowest terms
(den > 0, gcd(den, *num) = 1), so equal values have equal fields; a result
known to be in lowest terms already (integral sums, products and scalings,
Galois images, roots of unity) is built by ``_lowest`` without the gcd pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, neg

from .errors import (
    ConductorError,
    FractionalPowerError,
    InvalidAutomorphismError,
    NotARootError,
    NotInvertibleError,
    PreconditionError,
)
from .groups import prime_factors


def _poly_mul(a, b) -> list[int]:
    """Product of two coefficient vectors, over the nonzero terms only."""
    out = [0] * (len(a) + len(b) - 1)
    nz = [j for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j in nz:
                out[i + j] += x * b[j]
    return out


def _poly_divexact(a: list[int], b: list[int]) -> list[int]:
    # b monic up to sign, division known exact
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] // lb
        q[i - db] = c
        if c:
            for j, y in enumerate(b):
                a[i - db + j] -= c * y
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return q


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, via the Moebius product."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    def mu(m: int) -> int:
        exps = prime_factors(m).values()
        return 0 if any(k > 1 for k in exps) else (-1) ** len(exps)

    num = [1]
    dens = []
    for d in divisors:
        m = mu(n // d)
        if m == 1:
            num = _poly_mul(num, [-1] + [0] * (d - 1) + [1])
        elif m == -1:
            dens.append([-1] + [0] * (d - 1) + [1])
    for b in dens:
        num = _poly_divexact(num, b)
    return tuple(num)


class CycContext:
    """Cached data for one conductor: Phi_N, reduced powers of x and the
    inverses computed so far.

    ``xpow_terms[k]`` lists the nonzero entries of x^k mod Phi_N as
    ``(i, c)`` pairs, for 0 <= k < max(N, 2 phi - 1): every power that a
    product of two reduced vectors or a Galois image reaches.  Reduction and
    the Galois action read only these, so their cost follows the nonzeros
    of each row (about 4 of 36 for the rows x^k, k >= phi, of Phi_57)
    rather than phi.  ``zetas[k]`` is the root of unity zeta^k for
    0 <= k < N, built once per conductor and shared by every reader.

    ``inverses`` maps the fields ``(num, den)`` of each non-rational number
    that ``cyc_inverse`` has inverted to its inverse.  Every CycNumber is in
    lowest terms, so equal values have equal fields and the key is sound;
    the table lives on the interned context, so two conductors with the same
    phi never share an entry.  It has no size cap: it gains at most one entry
    per elimination performed, each the size of a result the caller holds.
    """

    _cache: dict[int, "CycContext"] = {}

    def __new__(cls, n: int):
        if n in cls._cache:
            return cls._cache[n]
        if n < 1 or n % 2 == 0:
            raise ConductorError(f"conductor {n} must be odd and positive")
        self = super().__new__(cls)
        self.n = n
        self.poly = cyclotomic_polynomial(n)
        self.phi = len(self.poly) - 1
        # x^phi = -(low part of Phi), then iterate x^k = x * x^(k-1)
        top = tuple(-c for c in self.poly[:-1])
        rows: list[tuple[int, ...]] = [
            tuple(1 if i == k else 0 for i in range(self.phi)) for k in range(self.phi)
        ]
        upto = max(n, 2 * self.phi - 1)
        for _ in range(self.phi, upto):
            prev = rows[-1]
            row = [0] * self.phi
            for i in range(self.phi - 1):
                row[i + 1] = prev[i]
            lead = prev[self.phi - 1]
            if lead:
                for i in range(self.phi):
                    row[i] += lead * top[i]
            rows.append(tuple(row))
        self.xpow_terms = [tuple((i, c) for i, c in enumerate(row) if c) for row in rows]
        self.zetas = [_lowest(self, row, 1) for row in rows[:n]]
        self.inverses: dict[tuple[tuple[int, ...], int], CycNumber] = {}
        self._zero = None
        self._one = None
        cls._cache[n] = self
        return self

    def __repr__(self):
        return f"CycContext({self.n})"

    def reduce(self, vec: list[int]) -> tuple[int, ...]:
        """Reduce an integer coefficient vector of degree below
        max(N, 2 phi - 1) mod Phi_N."""
        phi = self.phi
        out = list(vec[:phi]) + [0] * max(0, phi - len(vec))
        terms = self.xpow_terms
        for k in range(phi, len(vec)):
            c = vec[k]
            if c:
                for i, r in terms[k]:
                    out[i] += c * r
        return tuple(out)

    def zero(self) -> "CycNumber":
        if self._zero is None:
            self._zero = _lowest(self, (0,) * self.phi, 1)
        return self._zero

    def one(self) -> "CycNumber":
        if self._one is None:
            self._one = _lowest(self, (1,) + (0,) * (self.phi - 1), 1)
        return self._one

    def zeta_power(self, k: int) -> "CycNumber":
        return self.zetas[k % self.n]

    def from_rational(self, r) -> "CycNumber":
        r = Fraction(r)
        return _lowest(self, (r.numerator,) + (0,) * (self.phi - 1), r.denominator)


class CycNumber:
    """Element of Q(zeta_N): integer vector / common positive denominator."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycContext, num, den: int = 1):
        if len(num) != ctx.phi:
            raise PreconditionError(f"{len(num)} coefficients given, conductor {ctx.n} "
                                    f"needs phi = {ctx.phi}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, num = -den, tuple(-c for c in num)
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.ctx = ctx
        self.num = tuple(num)
        self.den = den

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.ctx.n != self.ctx.n:
                raise ConductorError(f"conductor mismatch {self.ctx.n} vs {other.ctx.n}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.den == 1 and b.den == 1:
            return _lowest(a.ctx, tuple(map(add, a.num, b.num)), 1)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return CycNumber(a.ctx, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return _lowest(self.ctx, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scaled(self, num: int, den: int) -> "CycNumber":
        """self * num/den for a rational num/den in lowest terms."""
        if den == 1:
            if num == 1:
                return self
            if self.den == 1:
                return _lowest(self.ctx, tuple(c * num for c in self.num), 1)
        return CycNumber(self.ctx, tuple(c * num for c in self.num), self.den * den)

    def __mul__(self, other):
        # a rational operand scales the vector; only general products need
        # the polynomial product and the reduction mod Phi_N, which at
        # phi = 2 (conductor 3, zeta^2 = -1 - zeta) has a closed form
        if isinstance(other, CycNumber):
            if other.ctx.n != self.ctx.n:
                raise ConductorError(f"conductor mismatch {self.ctx.n} vs {other.ctx.n}")
            if not any(other.num[1:]):
                return self._scaled(other.num[0], other.den)
            if not any(self.num[1:]):
                return other._scaled(self.num[0], self.den)
            if self.ctx.phi == 2:
                (a0, a1), (b0, b1) = self.num, other.num
                t = a1 * b1
                num = (a0 * b0 - t, a0 * b1 + a1 * b0 - t)
            else:
                num = self.ctx.reduce(_poly_mul(self.num, other.num))
            if self.den == 1 and other.den == 1:
                return _lowest(self.ctx, num, 1)
            return CycNumber(self.ctx, num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return cyc_inverse(self) ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.ctx.n, self.num, self.den))

    def __repr__(self):
        return f"CycNumber(N={self.ctx.n}, {'/'.join([str(list(self.num)), str(self.den)])})"


_new_number = object.__new__


def _lowest(ctx: CycContext, num: tuple[int, ...], den: int) -> CycNumber:
    """The CycNumber num/den for a tuple num and den > 0 already in lowest
    terms, built without the gcd pass of ``CycNumber()``.  Only this module
    may call it: a number not in lowest terms breaks ``==`` and ``hash``."""
    x = _new_number(CycNumber)
    x.ctx = ctx
    x.num = num
    x.den = den
    return x


def root_of_unity(ctx: CycContext, n: int, power: int = 1) -> CycNumber:
    """zeta_n^power as zeta_N^(N/n * power); n must divide the conductor."""
    if n < 1 or ctx.n % n != 0:
        raise ConductorError(f"root order {n} does not divide conductor {ctx.n}")
    return ctx.zeta_power((ctx.n // n) * power)


def galois_apply(x: CycNumber, k: int) -> CycNumber:
    """Field automorphism zeta_N -> zeta_N^k, gcd(k, N) = 1."""
    n = x.ctx.n
    if gcd(k, n) != 1:
        raise InvalidAutomorphismError(f"exponent {k} shares a factor with {n}")
    k %= n
    terms = x.ctx.xpow_terms
    out = [0] * x.ctx.phi
    for j, c in enumerate(x.num):
        if c:
            for i, r in terms[(j * k) % n]:
                out[i] += c * r
    # the automorphism is invertible on the lattice Z[zeta_N], so it keeps
    # the gcd of the coefficients and the result stays in lowest terms
    return _lowest(x.ctx, tuple(out), x.den)


def discrete_log_in_mu(x: CycNumber, n: int) -> int:
    """The j in [0, n) with x = zeta_n^j, by linear scan."""
    if n < 1 or x.ctx.n % n != 0:
        raise ConductorError(f"root order {n} does not divide conductor {x.ctx.n}")
    if x.den == 1:
        step = x.ctx.n // n
        for j in range(n):
            if x.num == x.ctx.zetas[(step * j) % x.ctx.n].num:
                return j
    raise NotARootError(f"value is not in mu_{n}")


def cyc_root(x: CycNumber, e: Fraction) -> CycNumber:
    """x^e for a root of unity x and a fractional e, when Q(zeta_N) holds it."""
    if x.is_one():
        return x.ctx.one()
    n = x.ctx.n
    j = discrete_log_in_mu(x, n)  # NotARootError if x is not a root of unity
    je = j * e
    if je.denominator != 1:
        raise FractionalPowerError(f"no {e.denominator}-th root of zeta^{j} at conductor {n}")
    return x.ctx.zeta_power(je.numerator % n)


def cyc_inverse(x: CycNumber) -> CycNumber:
    """Exact inverse in integer arithmetic.  A rational x inverts directly;
    any other x is looked up in ``x.ctx.inverses`` and, on a miss, inverted
    by ``_bareiss_inverse`` and stored there."""
    if x.is_zero():
        raise NotInvertibleError("zero is not invertible")
    if x.is_rational():
        return CycNumber(x.ctx, (x.den,) + (0,) * (x.ctx.phi - 1), x.num[0])
    table = x.ctx.inverses
    key = (x.num, x.den)
    inv = table.get(key)
    if inv is None:
        inv = table[key] = _bareiss_inverse(x)
    return inv


def _bareiss_inverse(x: CycNumber) -> CycNumber:
    """Solve num(x) * y = 1 as the phi x phi system whose columns are
    num(x) * zeta^j, by fraction-free (Bareiss) elimination and exact
    back-substitution."""
    ctx = x.ctx
    phi = ctx.phi
    top = [-c for c in ctx.poly[:-1]]  # zeta^phi in the power basis
    cols = [list(x.num)]
    for _ in range(1, phi):
        lead = cols[-1][-1]
        cols.append([c + lead * t for c, t in zip([0] + cols[-1][:-1], top)])
    # augmented rows [A | e_0]; after elimination each entry is a minor of A
    rows = [list(r) + [int(i == 0)] for i, r in enumerate(zip(*cols))]
    prev = 1
    for k in range(phi):
        piv = next((r for r in range(k, phi) if rows[r][k]), None)
        if piv is None:
            raise NotInvertibleError("value shares a factor with the modulus")
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k]
        akk = pk[k]
        for row in rows[k + 1:]:
            ark = row[k]
            row[k + 1:] = [(akk * a - ark * b) // prev for a, b in zip(row[k + 1:], pk[k + 1:])]
        prev = akk
    # prev = +-det A, so sol = prev * A^-1 e_0 is integral (Cramer) and
    # every division below is exact
    sol = [0] * phi
    for i in range(phi - 1, -1, -1):
        row = rows[i]
        acc = prev * row[phi] - sum(row[j] * sol[j] for j in range(i + 1, phi))
        sol[i] = acc // row[i]
    return CycNumber(ctx, tuple(x.den * c for c in sol), prev)


def content_ord(x: CycNumber, p: int):
    """ord_p of the rational content of x; +infinity for zero."""
    if x.is_zero():
        return float("inf")

    def vp(m: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    num_v = min(vp(abs(c)) for c in x.num if c)
    return num_v - vp(x.den)


def cyc_det(rows) -> CycNumber:
    """Determinant of a square CycNumber matrix (Gaussian elimination)."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise PreconditionError(f"determinant needs a non-empty square matrix, "
                                f"got row lengths {[len(row) for row in rows]}")
    ctx = rows[0][0].ctx
    m = [list(row) for row in rows]
    det = ctx.one()
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return ctx.zero()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        det = det * m[col][col]
        inv = cyc_inverse(m[col][col])
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det if sign == 1 else -det


def cyc_to_json(x: CycNumber) -> dict:
    return {"N": x.ctx.n, "coeffs": [f"{c.numerator}/{c.denominator}" for c in x.coefficients()]}


class CycAlgebra:
    """Adapter giving Q(zeta_N) the common coefficient-algebra surface.

    ``p`` is the residue characteristic used for integrality questions;
    it must not divide the conductor.  Then p is unramified in Q(zeta_N)
    and ``val`` (the content order) is the minimum of v_P over the primes P
    above p: a lower bound for v_P at each P, exact on p^m zeta^j, and
    strict where p splits, e.g. (3 + zeta_3)(3 + zeta_3^2) = 7.
    """

    def __init__(self, ctx: CycContext, p: int | None = None):
        if p is not None and ctx.n % p == 0:
            raise ConductorError(f"residue characteristic {p} divides conductor {ctx.n}")
        self.ctx = ctx
        self.p = p

    def zero(self) -> CycNumber:
        return self.ctx.zero()

    def one(self) -> CycNumber:
        return self.ctx.one()

    def is_zero(self, x: CycNumber) -> bool:
        return x.is_zero()

    def inv(self, x: CycNumber) -> CycNumber:
        return cyc_inverse(x)

    def frac_power(self, x: CycNumber, e: Fraction) -> CycNumber:
        e = Fraction(e)
        if e.denominator == 1:
            return x ** e.numerator
        return cyc_root(x, e)

    def val(self, x: CycNumber):
        """Lower bound min over P | p of v_P(x): the content order."""
        if self.p is None:
            raise PreconditionError("no residue characteristic attached")
        return content_ord(x, self.p)
