"""Closed-form prime densities as exact rational-linear expressions in the
Artin constant, plus the sqrt(e)-adjusted conjectured ratios and the
unconditional lower-bound ratios.

Every density here is the relative density (inside the primes p = a mod d) of
a set cut out by a multiplicative-order condition on a prime base ell:

  alpha_primroot     ord_p(ell)    = p - 1          (primitive roots)
  alpha_minus        ord_p(ell)    = (p - 1) / 2    (half-order)
  delta_minus_total  ord_p(ell)    in {p-1, (p-1)/2}
  delta_g            ord_p(ell**2) = (p - 1) / 2    (the G-regular candidates)

Each coefficient table holds only its 4 | d rows, where a is odd. Any other
class (d = 1 included) is the disjoint union of its odd lifts a + k*d mod 4d,
split evenly between p = 1 and p = 3 mod 4, so its coefficient is their mean;
every lift b has r_factor(4d, b) = r_factor(d, a), so one factor serves all.
For odd ell, delta_g has no table of its own: ord_p(ell**2) = (p-1)/2 exactly
when ord_p(ell) = p-1, or ord_p(ell) = (p-1)/2 and p = 3 mod 4, so its
coefficient is alpha_primroot's plus, on a = 3 mod 4, alpha_minus's.

Base ell = 2 keeps its own delta_g rows, but alpha_primroot and alpha_minus
have closed forms only over all primes (A and 3/4 * A) and reject ell = 2 in a
progression. Every entry point takes a prime base ell and raises ValueError
for any other; this module alone decides which (kind, ell, d, a) has a closed
form, and every ratio goes through it: `ratios` gives a row's conjectured
and lower-bound ratios from one evaluation of its delta, and
`conjectured_ratio` and `lower_bound_ratio` are its two halves.

All coefficients are exact Fractions; floats appear only when a value is
rendered against the reference Artin constant. The full tables these rows
replace, the tables that cross-check them and the Euler product for the
constant live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .modarith import factorize, is_prime, jacobi

__all__ = [
    "ARTIN_REFERENCE_DIGITS",
    "ARTIN",
    "LinearInA",
    "r_factor",
    "alpha_primroot",
    "delta_g",
    "alpha_minus",
    "delta_minus_total",
    "rho_plus_one",
    "ratios",
    "conjectured_ratio",
    "lower_bound_ratio",
    "RATIO_KINDS",
]

#: reference value of prod_p (1 - 1/(p(p-1))), 31 digits
ARTIN_REFERENCE_DIGITS = "0.3739558136192022880547280543464"
ARTIN = float(ARTIN_REFERENCE_DIGITS)

SQRT_E = math.exp(0.5)

RATIO_KINDS = ("G", "Hminus", "Hplus")


@dataclass(frozen=True)
class LinearInA:
    """Exact value r0 + r1 * A with A the Artin constant; float() takes A = ARTIN."""

    r0: Fraction
    r1: Fraction

    @staticmethod
    def of(r0=0, r1=0) -> "LinearInA":
        return LinearInA(Fraction(r0), Fraction(r1))

    def __add__(self, other: "LinearInA") -> "LinearInA":
        return LinearInA(self.r0 + other.r0, self.r1 + other.r1)

    def __float__(self) -> float:
        return float(self.r0) + float(self.r1) * ARTIN

    def __str__(self) -> str:
        if self.r1 == 0:
            return str(self.r0)
        if self.r0 == 0:
            return f"{self.r1} * A"
        return f"{self.r0} + {self.r1} * A"


def _require_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"ell must be a prime, got {ell}")


def _canonical(ell: int, d: int, a: int) -> tuple[int, int, int]:
    _require_prime(ell)
    if d < 1:
        raise ValueError(f"modulus d must be >= 1, got {d}")
    if math.gcd(a, d) != 1:  # on the given a, so the error names it; gcd(a, d) = gcd(a mod d, d)
        raise ValueError(f"a={a} and d={d} must be coprime")
    a %= d
    if d == 1:
        a = 1
    return ell, d, a


def r_factor(d: int, a: int) -> Fraction:
    """Shared Euler factor: prod_{p | (a-1,d)} (1-1/p) * prod_{p | d} (1 + 1/(p^2-p-1)).

    Empty products are 1; for a = 1 the first product runs over all primes
    dividing d (gcd(0, d) = d).
    """
    _, d, a = _canonical(3, d, a)
    out = Fraction(1)
    for q, _ in factorize(math.gcd(a - 1, d)):
        out *= 1 - Fraction(1, q)
    for q, _ in factorize(d):
        out *= 1 + Fraction(1, q * q - q - 1)
    return out


def _require_odd_prime_in_progression(ell: int, d: int) -> None:
    if ell == 2 and d != 1:
        raise ValueError("closed form in a progression only covers odd prime bases")


def _sym_minus_one(a: int) -> int:
    """(-1/a) for odd a."""
    return 1 if a % 4 == 1 else -1


def _lifted(rows, ell: int, d: int, a: int) -> LinearInA:
    """The density A * c * r_factor(d, a), with c from the 4 | d `rows` by the lift rule."""
    if d % 4 == 0:
        c = rows(ell, d, a)
    else:
        lifts = [b for b in range(a, a + 4 * d, d) if b % 2]
        c = sum(rows(ell, 4 * d, b) for b in lifts) / len(lifts)
    return LinearInA(Fraction(0), c * r_factor(d, a))


def _c_primroot(ell: int, d: int, a: int) -> Fraction:
    """Coefficient for alpha_primroot at 4 | d, split by ell | d and ell mod 4."""
    if d % ell == 0:
        return 1 - Fraction(jacobi(ell, a))
    eps = 1 if ell % 4 == 1 else _sym_minus_one(a)
    return 1 + Fraction(eps, ell * ell - ell - 1)


def alpha_primroot(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ell a primitive root mod p."""
    ell, d, a = _canonical(ell, d, a)
    _require_odd_prime_in_progression(ell, d)
    if ell == 2:
        return LinearInA.of(0, 1)
    return _lifted(_c_primroot, ell, d, a)


def _c_minus(ell: int, d: int, a: int) -> Fraction:
    """Coefficient for the half-order density alpha_minus at 4 | d."""
    L = ell * ell - ell - 1
    if d % ell != 0:
        if a % 4 == 1:
            return (1 - Fraction(1, L)) / 2
        return 1 - Fraction(_sym_minus_one(ell), L)
    if jacobi(ell, a) == -1:
        return Fraction(0)
    return Fraction(3 - _sym_minus_one(a), 2)


def alpha_minus(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ord_p(ell) = (p-1)/2."""
    ell, d, a = _canonical(ell, d, a)
    _require_odd_prime_in_progression(ell, d)
    if ell == 2:
        return LinearInA.of(0, Fraction(3, 4))
    return _lifted(_c_minus, ell, d, a)


def _c_g(ell: int, d: int, a: int) -> Fraction:
    """Coefficient for delta_g at 4 | d.

    For odd ell, ord_p(ell**2) = (p-1)/2 exactly when ell is a primitive root
    mod p, or ord_p(ell) = (p-1)/2 and p = 3 mod 4; the two sets are disjoint.
    Base 2 has its own rows, split by 8 | d and a mod 8.
    """
    if ell != 2:
        c = _c_primroot(ell, d, a)
        return c + _c_minus(ell, d, a) if a % 4 == 3 else c
    if a % 4 == 3:
        return Fraction(2)
    if d % 8 != 0:
        return Fraction(1)
    return Fraction(0) if a % 8 == 1 else Fraction(2)  # 4 is never of order (p-1)/2 if p = 1 mod 8


def delta_g(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ord_p(ell**2) = (p-1)/2.

    These are exactly the candidates for G-regularity; the G-survey lower
    bounds and conjectured ratios are built from 1 - delta_g.
    """
    return _lifted(_c_g, *_canonical(ell, d, a))


def delta_minus_total(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ord_p(ell) in {p-1, (p-1)/2}.

    Computed as alpha_minus + alpha_primroot.
    """
    return alpha_minus(ell, d, a) + alpha_primroot(ell, d, a)


def rho_plus_one(ell: int, d: int = 1, a: int = 1) -> Fraction:
    """Density of prime divisors of the sequence ell**n + 1, over all primes only.

    It is the progression-dependent term of the Hplus density, so d != 1
    raises the Hplus message, before (d, a) is checked for coprimality.
    """
    if d != 1:  # every a is the full prime set at d = 1
        raise ValueError("Hplus requires d = a = 1 (general progressions unsupported)")
    _canonical(ell, d, a)
    return Fraction(17, 24) if ell == 2 else Fraction(2, 3)


def _delta_for_kind(kind: str, ell: int, d: int, a: int) -> LinearInA:
    if kind == "G":
        return delta_g(ell, d, a)
    if kind == "Hminus":
        return delta_minus_total(ell, d, a)
    if kind == "Hplus":
        rho = rho_plus_one(ell, d, a)  # before alpha_primroot: d != 1 gets the Hplus message
        return alpha_primroot(ell, d, a) + LinearInA.of(1 - rho)
    raise ValueError(f"kind must be one of {RATIO_KINDS}, got {kind!r}")


def ratios(kind: str, ell: int, d: int = 1, a: int = 1) -> tuple[float, float]:
    """(conjectured, lower bound) share of irregular primes, from one delta:
    (1 - delta / sqrt(e), max(0, 1 - delta))."""
    delta = float(_delta_for_kind(kind, ell, d, a))
    return 1.0 - delta / SQRT_E, max(0.0, 1.0 - delta)


def conjectured_ratio(kind: str, ell: int, d: int = 1, a: int = 1) -> float:
    """Conjectured share of irregular primes: 1 - delta / sqrt(e)."""
    return ratios(kind, ell, d, a)[0]


def lower_bound_ratio(kind: str, ell: int, d: int = 1, a: int = 1) -> float:
    """Unconditional lower bound on the share of irregular primes: 1 - delta."""
    return ratios(kind, ell, d, a)[1]
