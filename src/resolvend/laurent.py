"""Sparse Laurent algebras over Q(zeta_N), the core of both coefficient models.

The tame Puiseux model (``localfield``) and the wild formal algebra
(``wild``) hold finite sums

    x = sum over k of c_k * X^k,   c_k in Q(zeta_N) nonzero,

as a dict ``terms`` from an integer exponent key k to its coefficient.
They differ only in the exponent lattice and how a key names a point of
it: the Puiseux key k in Z stands for pi^(k/e), so the lattice (1/e)Z is
held scaled by e, and the wild key is a vector in Z^n.  Products add keys
in integer arithmetic.  This module holds everything else: coercion of
scalars, negation, subtraction, powers, equality, and the inverse and
fractional powers of monomials.

An algebra subclass supplies ``element`` (its element class), ``ctx``,
``key_type`` (turns a caller's exponent into a key), ``unit_key`` (the key
of the constants), ``name`` (for error messages) and ``scale_key`` (the key
of the e-th power of a monomial, with FractionalPowerError when it leaves
the lattice).  An element subclass drops zero terms in ``__init__`` (the
wild element also checks the key's arity) and defines ``__add__`` and
``__mul__``.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNumber, cyc_inverse, cyc_root
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

    def _merged(self, other: "LaurentElement") -> dict:
        """The term dict of self + other, before zero terms are dropped."""
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return terms

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.terms.items()})

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

    def is_zero(self, x) -> bool:
        return not x.terms

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
