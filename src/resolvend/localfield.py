"""Symbolic model of a tamely ramified local extension.

The base field F has residue order q (a power of the odd prime p) and an
abstract uniformizer pi; the modeled extension L = F(pi^(1/e)) is totally
tamely ramified of odd degree e.  Elements are finite Puiseux sums

    x = sum over k in Z of c_k * pi^(k/e),   c_k in Q(zeta_N),

with one session conductor N coprime to p, built on the Laurent core of
``laurent``.  The exponent lattice (1/e)Z is stored through the integer
key k of pi^(k/e), so products add small integers and hashing never
builds a Fraction; Fractions appear only at the API boundary
(``monomial``/``pi_power`` take an exponent r and turn it into k = r*e,
``to_json`` and ``repr`` print k/e).  The valuation is normalized so
v_L(pi^(1/e)) = 1, so a term's pi-part contributes its key k; rational
content contributes through ord_p, which reads the residue characteristic
as the F-level uniformizer scale.

Two modeled automorphisms generate everything we need:
  sigma: pi^(k/e) -> zeta_e^k pi^(k/e), coefficients fixed   (inertia)
  phi:   coefficients under zeta_N -> zeta_N^q, radicals fixed (Frobenius)
They satisfy phi sigma phi^-1 sigma^-1 = sigma^(q-1) exactly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .cyclotomic import CycContext, content_ord, cyc_to_json, galois_apply, root_of_unity
from .errors import (
    ConductorError,
    FractionalPowerError,
    ParityError,
    PreconditionError,
    TamenessError,
)
from .groups import prime_factors
from .laurent import SCALARS, LaurentAlgebra, LaurentElement, _product, _scaled

INF = float("inf")


# ---------------------------------------------------------------------------
# ramification filtrations


class RamFiltration:
    """Orders of the ramification groups G_0, G_1, ... in lower numbering."""

    def __init__(self, orders):
        orders = tuple(int(x) for x in orders)
        if not orders or any(o < 1 for o in orders):
            raise PreconditionError("orders must be positive")
        for a, b in zip(orders, orders[1:]):
            if b > a or a % b != 0:
                raise PreconditionError(f"orders {a} -> {b} break the subgroup chain")
        self.orders = orders

    @classmethod
    def from_spec(cls, spec: str) -> "RamFiltration":
        try:
            orders = [int(x) for x in spec.split(",")]
        except ValueError:
            raise PreconditionError(f"filtration {spec!r} is not a comma list of integers")
        return cls(orders)

    def order_at(self, n: int) -> int:
        return self.orders[n] if n < len(self.orders) else 1

    def __eq__(self, other):
        return isinstance(other, RamFiltration) and self._key() == other._key()

    def _key(self):
        orders = list(self.orders)
        while orders and orders[-1] == 1:
            orders.pop()
        return tuple(orders)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RamFiltration({','.join(map(str, self.orders))})"


def different_valuation(filt: RamFiltration) -> int:
    """v_L of the different: sum of (|G_n| - 1)."""
    return sum(o - 1 for o in filt.orders)


def sqrt_inverse_different_valuation(filt: RamFiltration) -> int:
    """v_L of the square root of the inverse different, -v_D/2."""
    v = different_valuation(filt)
    if v % 2 != 0:
        raise ParityError(f"different valuation {v} is odd")
    return -(v // 2)


def is_weakly_ramified(filt: RamFiltration) -> bool:
    """True when the second ramification group is already trivial."""
    return filt.order_at(2) == 1


def validate_abelian_filtration(filt: RamFiltration) -> bool:
    """Congruence constraint satisfied by abelian extensions: with
    e_0 = |G_0|/|G_1|, the chain is constant at every n >= 1 that e_0
    does not divide."""
    e0 = filt.order_at(0) // filt.order_at(1)
    if e0 == 0:
        return False
    for n in range(1, len(filt.orders) + 1):
        if n % e0 != 0 and filt.order_at(n) != filt.order_at(n + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# the coefficient model


def prime_power_base(q: int) -> int:
    """The prime p with q = p^f."""
    primes = list(prime_factors(q))
    if len(primes) != 1:
        raise PreconditionError(f"residue order {q} is not a prime power")
    return primes[0]


class PuiseuxElement(LaurentElement):
    """Finite Puiseux sum over the model's conductor; the key k stands for pi^(k/e)."""

    __slots__ = ()

    def __init__(self, algebra: "LocalModel", terms: dict):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._merged(o)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return _scaled(self, other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self, o, add)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "Puiseux(0)"
        e = self.algebra.e
        bits = [f"pi^{Fraction(k, e)}*{c!r}" for k, c in sorted(self.terms.items())]
        return "Puiseux(" + " + ".join(bits) + ")"


class LocalModel(LaurentAlgebra):
    """Shared context: ramification degree e, residue order q, conductor N.

    Instances are interned by (e, q, conductor) so that elements built by
    independent callers with the same parameters live in the same algebra.
    """

    element = PuiseuxElement
    unit_key = 0
    name = "finite model"
    _cache: dict = {}

    def __new__(cls, e: int, q: int, conductor: int):
        key = (e, q, conductor)
        if key in cls._cache:
            return cls._cache[key]
        p = prime_power_base(q)
        if p == 2:
            raise PreconditionError("residue characteristic must be odd")
        if e < 1 or e % 2 == 0:
            raise PreconditionError(f"ramification degree {e} must be odd and positive")
        if (q - 1) % e != 0:
            raise TamenessError(f"degree {e} does not divide q-1 = {q - 1}")
        if conductor % p == 0:
            raise ConductorError(f"residue characteristic {p} divides conductor {conductor}")
        if e > 1 and conductor % e != 0:
            raise ConductorError(f"conductor {conductor} lacks the order-{e} roots")
        self = super().__new__(cls)
        self.e = e
        self.q = q
        self.p = p
        self.ctx = CycContext(conductor)
        cls._cache[key] = self
        return self

    def __repr__(self):
        return f"LocalModel(e={self.e}, q={self.q}, N={self.ctx.n})"

    def key_type(self, exponent) -> int:
        """The key k = exponent * e of pi^exponent."""
        r = Fraction(exponent)
        if self.e % r.denominator:
            raise FractionalPowerError(f"exponent {r} leaves (1/{self.e})Z")
        return r.numerator * (self.e // r.denominator)

    def scale_key(self, k: int, e) -> int:
        """The key of (pi^(k/e_model))^e for a rational e."""
        ke = k * e
        if ke.denominator != 1:
            raise FractionalPowerError(f"exponent {Fraction(k, self.e) * e} leaves (1/{self.e})Z")
        return ke.numerator

    def pi_power(self, exponent) -> PuiseuxElement:
        """pi^exponent; the exponent denominator must divide e."""
        return self.monomial(exponent, self.ctx.one())

    # -- Galois action -------------------------------------------------------

    def sigma(self, x: PuiseuxElement) -> PuiseuxElement:
        """Inertia generator: pi^(k/e) picks up zeta_e^k."""
        e = self.e
        return PuiseuxElement(self, {k: c * root_of_unity(self.ctx, e, k) if k % e else c
                                     for k, c in x.terms.items()})

    def phi(self, x: PuiseuxElement) -> PuiseuxElement:
        """Frobenius lift: coefficients through zeta_N -> zeta_N^q."""
        return PuiseuxElement(self, {r: galois_apply(c, self.q) for r, c in x.terms.items()})

    def galois_twists(self):
        """(name, character twist, automorphism) for equivariance checks."""
        return [("sigma", 1, self.sigma), ("phi", self.q, self.phi)]

    # -- valuation and membership --------------------------------------------

    def val(self, x: PuiseuxElement):
        """Lower bound for v_L: the min over terms of k + e * content order,
        exact on monomials p^m zeta^j pi^(k/e)."""
        if not x.terms:
            return INF
        return min(k + self.e * content_ord(c, self.p) for k, c in x.terms.items())

    def in_base_field(self, x: PuiseuxElement) -> bool:
        """Integral pi-exponents (keys divisible by e) and Frobenius-fixed
        coefficients."""
        if any(k % self.e for k in x.terms):
            return False
        return self.phi(x) == x

    def to_json(self, x: PuiseuxElement) -> list:
        return [{"exponent": str(Fraction(k, self.e)), "coeff": cyc_to_json(x.terms[k])}
                for k in sorted(x.terms)]
