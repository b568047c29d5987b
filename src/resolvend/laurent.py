"""Sparse Laurent algebras over Q(zeta_N), the core of both coefficient models.

The tame Puiseux model (``localfield``) and the wild formal algebra
(``wild``) hold finite sums

    x = sum over k of c_k * X^k,   c_k in Q(zeta_N) nonzero,

as a dict ``terms`` from an integer exponent key k to its coefficient.
They differ only in the exponent lattice and how a key names a point of
it: the Puiseux key k in Z stands for pi^(k/e), so the lattice (1/e)Z is
held scaled by e, and the wild key is a vector in Z^n.  Products add keys
in integer arithmetic.  This module holds everything else: coercion of
scalars, sums, scalar and term-by-term products, negation, subtraction,
powers, equality, the inverse and fractional powers of monomials, and
the monomials zeta_N^j X^k that the transpose lift builds.

A product with a scalar (CycNumber, int or Fraction) scales each
coefficient; it never builds a one-term element for the scalar.  Results
whose coefficients are nonzero by construction skip the filter of
``__init__`` through ``_trusted``: a sum drops a key only where two
coefficients cancel, and a product with a one-term factor (or a nonzero
scalar) has neither key collisions nor zero coefficients, because
Q(zeta_N) is a field.  Only ``dot`` filters: a sum of products, such as
the product of two multi-term factors, buckets its coefficient products by
the key of each product and sums each bucket with one ``cyc_dot``, so each
coefficient is reduced mod Phi_N and normalised once, and a key whose sum
cancels is dropped.

An algebra subclass supplies ``element`` (its element class), ``ctx``,
``key_type`` (turns a caller's exponent into a key), ``key_sum`` (adds two
keys), ``unit_key`` (the key of the constants), ``name`` (for error
messages) and ``scale_key`` (the key of the e-th power of a monomial, with
FractionalPowerError when it leaves the lattice).  An element subclass
drops zero terms in ``__init__`` (the wild element also checks the key's
arity) and defines ``__add__`` and ``__mul__`` on itself, so that each
stays a function of its own.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNumber, cyc_dot, cyc_inverse, cyc_root
from .errors import ConductorError, FractionalPowerError, NotInvertibleError, PreconditionError


class LaurentElement:
    """Finite Laurent sum; ``terms`` maps an exponent key to a nonzero coefficient."""

    __slots__ = ("algebra", "terms")

    def _coerce(self, other):
        if isinstance(other, LaurentElement):
            if other.algebra is not self.algebra:
                raise PreconditionError("mixed local models")
            return other
        if isinstance(other, CycNumber):
            return self.algebra.from_cyc(other)
        if isinstance(other, (int, Fraction)):
            return self.algebra.from_rational(other)
        return None

    def _merged(self, other: "LaurentElement") -> "LaurentElement":
        """self + other, dropping each key whose two coefficients cancel."""
        terms = dict(self.terms)
        for k, c in other.terms.items():
            if k in terms:
                c = terms[k] + c
                if c.is_zero():
                    del terms[k]
                    continue
            terms[k] = c
        return _trusted(self.algebra, terms)

    def __neg__(self):
        return _trusted(self.algebra, {k: -c for k, c in self.terms.items()})

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

    def __pow__(self, n: int):
        if n < 0:
            return self.algebra.inv(self) ** (-n)
        out = self.algebra.one()
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
        return self.terms == o.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))


_new_element = object.__new__
SCALARS = (CycNumber, int, Fraction)


def _trusted(algebra: "LaurentAlgebra", terms: dict) -> LaurentElement:
    """The element of ``algebra`` with ``terms``, built without the filter of
    ``__init__``.  Only for keys made inside the algebra and coefficients
    known to be nonzero: a zero coefficient would break ``==`` and
    ``is_zero``.  Only ``laurent``, ``localfield`` and ``wild`` may call it."""
    x = _new_element(algebra.element)
    x.algebra = algebra
    x.terms = terms
    return x


def _scaled(x: LaurentElement, c) -> LaurentElement:
    """x * c for a scalar c in SCALARS, coefficient by coefficient."""
    alg = x.algebra
    if isinstance(c, CycNumber):
        if c.ctx.n != alg.ctx.n:
            raise ConductorError(f"conductor mismatch {c.ctx.n} vs {alg.ctx.n}")
        if c.is_zero():
            return alg.zero()
    elif not c:
        return alg.zero()
    return _trusted(alg, {k: a * c for k, a in x.terms.items()})


def _product(x: LaurentElement, y: LaurentElement) -> LaurentElement:
    """x * y term by term."""
    alg = x.algebra
    key_sum = alg.key_sum
    if len(y.terms) == 1:
        (k2, c2), = y.terms.items()
        return _trusted(alg, {key_sum(k1, k2): c1 * c2 for k1, c1 in x.terms.items()})
    if len(x.terms) == 1:
        (k1, c1), = x.terms.items()
        return _trusted(alg, {key_sum(k1, k2): c1 * c2 for k2, c2 in y.terms.items()})
    return alg.dot([(x, y)])


class LaurentAlgebra:
    """Constructors and monomial inverses shared by the Laurent algebras."""

    def zero(self):
        return self.element(self, {})

    def one(self):
        return self.element(self, {self.unit_key: self.ctx.one()})

    def from_cyc(self, c: CycNumber):
        if c.ctx.n != self.ctx.n:
            raise ConductorError(f"conductor mismatch {c.ctx.n} vs {self.ctx.n}")
        return self.element(self, {self.unit_key: c})

    def from_rational(self, r):
        return self.element(self, {self.unit_key: self.ctx.from_rational(r)})

    def monomial(self, exponent, coeff: CycNumber):
        return self.element(self, {self.key_type(exponent): coeff})

    def zeta_monomial(self, key, j: int):
        """zeta_N^j X^key for a key of this algebra's own type; a root of
        unity is never zero, so nothing is filtered."""
        return _trusted(self, {key: self.ctx.zeta_power(j)})

    def is_zero(self, x) -> bool:
        return not x.terms

    def dot(self, pairs):
        """sum of x * y over the pairs (x, y), y an element or a CycNumber
        constant: one ``cyc_dot`` per key of the product, a lone product where
        only one pair of coefficients meets at a key."""
        key_sum, unit = self.key_sum, self.unit_key
        buckets: dict = {}
        for x, y in pairs:
            ys = y.terms.items() if isinstance(y, LaurentElement) else ((unit, y),)
            if x.algebra is not self or getattr(y, "algebra", self) is not self:
                raise PreconditionError("mixed local models")
            for k1, c1 in x.terms.items():
                for k2, c2 in ys:
                    buckets.setdefault(key_sum(k1, k2), []).append((c1, c2))
        terms = {}
        for k, cs in buckets.items():
            c = cs[0][0] * cs[0][1] if len(cs) == 1 else cyc_dot(self.ctx, cs)
            if not c.is_zero():
                terms[k] = c
        return _trusted(self, terms)

    def inv(self, x):
        if len(x.terms) != 1:
            raise NotInvertibleError(f"only monomials invert in the {self.name}")
        (k, c), = x.terms.items()
        return self.element(self, {self.scale_key(k, -1): cyc_inverse(c)})

    def frac_power(self, x, e):
        e = Fraction(e)
        if e.denominator == 1:
            return x ** e.numerator
        if len(x.terms) != 1:
            raise FractionalPowerError("fractional powers need a monomial")
        (k, c), = x.terms.items()
        root = cyc_root(c, e)  # a missing root is reported before a lattice error
        return self.element(self, {self.scale_key(k, e): root})
