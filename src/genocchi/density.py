"""Closed-form prime densities as exact rational-linear expressions in the
Artin constant, plus the sqrt(e)-adjusted conjectured ratios and the
unconditional lower-bound ratios.

Every density here is the relative density (inside the primes p = a mod d) of
a set cut out by a multiplicative-order condition on a prime base ell:

  alpha_primroot     ord_p(ell)    = p - 1          (primitive roots)
  alpha_minus        ord_p(ell)    = (p - 1) / 2    (half-order)
  delta_minus_total  ord_p(ell)    in {p-1, (p-1)/2}
  delta_g            ord_p(ell**2) = (p - 1) / 2    (the G-regular candidates)

Each density is one function of (ell, d, a) with one coefficient table; the
all-primes value is its (ell, 1, 1) case, and every ratio goes through it.
Base ell = 2 has a closed form for delta_g in every class (its own table,
split on 4 | d, 8 | d and a mod 8), but alpha_primroot and alpha_minus only
over all primes (d = 1); they reject ell = 2 in a progression. Every entry
point takes a prime base ell and raises ValueError for any other; this module
alone decides which (kind, ell, d, a) has a closed form.

All case tables are evaluated in exact Fractions; floats appear only when a
value is rendered against the reference Artin constant. The independent
tables that cross-check these (and the Euler product for the constant) live
in the test suite.
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
    """Exact value r0 + r1 * A with A the Artin constant."""

    r0: Fraction
    r1: Fraction

    @staticmethod
    def of(r0=0, r1=0) -> "LinearInA":
        return LinearInA(Fraction(r0), Fraction(r1))

    def __add__(self, other: "LinearInA") -> "LinearInA":
        return LinearInA(self.r0 + other.r0, self.r1 + other.r1)

    def scale(self, c) -> "LinearInA":
        c = Fraction(c)
        return LinearInA(self.r0 * c, self.r1 * c)

    def value(self, artin: float = ARTIN) -> float:
        return float(self.r0) + float(self.r1) * artin

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
    a %= d
    if d == 1:
        a = 1
    if math.gcd(a, d) != 1:
        raise ValueError(f"a={a} and d={d} must be coprime")
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


def _sym_a_over_ell(a: int, ell: int) -> int:
    return jacobi(a % ell, ell)


def _sym_ell_over_a(ell: int, a: int) -> int:
    """(ell / a) for the arguments the case tables produce.

    When ell = 1 mod 4 reciprocity gives (ell/a) = (a/ell), which also covers
    even a. Otherwise the tables only ask for odd a (4 | d forces a odd).
    """
    if ell % 4 == 1:
        return jacobi(a % ell, ell)
    if a % 2 == 0:
        raise ValueError(f"(ell/a) with even a={a} only arises for ell = 1 mod 4")
    return jacobi(ell % a, a) if a > 1 else 1


def _sym_minus_one(a: int) -> int:
    if a % 2 == 0:
        raise ValueError(f"(-1/a) needs odd a, got {a}")
    return 1 if a % 4 == 1 else -1


def alpha_primroot(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ell a primitive root mod p."""
    ell, d, a = _canonical(ell, d, a)
    _require_odd_prime_in_progression(ell, d)
    L = ell * ell - ell - 1
    ell_div = d % ell == 0
    four_div = d % 4 == 0
    if ell % 4 == 1:
        if ell_div:
            c1 = 1 - Fraction(_sym_ell_over_a(ell, a))
        else:
            c1 = 1 + Fraction(1, L)
    else:
        if four_div and ell_div:
            c1 = 1 - Fraction(_sym_ell_over_a(ell, a))
        elif four_div:
            c1 = 1 + _sym_minus_one(a) * Fraction(1, L)
        else:
            c1 = Fraction(1)
    return LinearInA(Fraction(0), c1 * r_factor(d, a))


def _c_g(ell: int, d: int, a: int) -> Fraction:
    """Coefficient for delta_g, split by ell | d, 4 | d, a mod 4 and (a/ell)."""
    L = ell * ell - ell - 1
    ell_div = d % ell == 0
    four_div = d % 4 == 0
    if not ell_div and not four_div:
        return Fraction(3 + Fraction(1, L), 2)
    if not ell_div:  # 4 | d
        return 1 + Fraction(1, L) if a % 4 == 1 else Fraction(2)
    s = _sym_a_over_ell(a, ell)
    if not four_div:
        return Fraction(1) if s == 1 else Fraction(2)
    if a % 4 == 3 or s == -1:
        return Fraction(2)
    return Fraction(0)  # 4*ell | d, a square mod ell, a = 1 mod 4


def _c_g_two(d: int, a: int) -> Fraction:
    """Coefficient for delta_g at ell = 2, split by 4 | d, 8 | d and a mod 8."""
    if d % 4 != 0:
        return Fraction(3, 2)
    if d % 8 != 0:
        return Fraction(1) if a % 4 == 1 else Fraction(2)
    return Fraction(0) if a % 8 == 1 else Fraction(2)  # 4 is never of order (p-1)/2 if p = 1 mod 8


def delta_g(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ord_p(ell**2) = (p-1)/2.

    These are exactly the candidates for G-regularity; the G-survey lower
    bounds and conjectured ratios are built from 1 - delta_g.
    """
    ell, d, a = _canonical(ell, d, a)
    c = _c_g_two(d, a) if ell == 2 else _c_g(ell, d, a)
    return LinearInA(Fraction(0), c * r_factor(d, a))


def _c_minus(ell: int, d: int, a: int) -> Fraction:
    """Coefficient for the half-order density alpha_minus.

    The 4 | d half of the table is the proof-backed one; the 4-does-not-divide
    half follows by averaging the two mod-4 lifts, which fixes the published
    (ell | d, ell = 3 mod 4) row to (3 - (a/ell))/4. Base 2 has only its
    all-primes value 3/4.
    """
    if ell == 2:
        return Fraction(3, 4)
    L = ell * ell - ell - 1
    ell_div = d % ell == 0
    eps_ell = 1 if ell % 4 == 1 else -1  # (-1/ell)
    if d % 4 == 0:
        if not ell_div:
            if a % 4 == 1:
                return Fraction(1 - Fraction(1, L), 2)
            return 1 - eps_ell * Fraction(1, L)
        if _sym_ell_over_a(ell, a) == -1:
            return Fraction(0)
        return Fraction(3 - _sym_minus_one(a), 2)
    if not ell_div:
        if ell % 4 == 1:
            return Fraction(3, 4) * (1 - Fraction(1, L))
        return Fraction(3 + Fraction(1, L), 4)
    s = _sym_a_over_ell(a, ell)
    if ell % 4 == 1:
        return Fraction(3, 4) * (1 + s)
    return Fraction(3 - s, 4)


def alpha_minus(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ord_p(ell) = (p-1)/2."""
    ell, d, a = _canonical(ell, d, a)
    _require_odd_prime_in_progression(ell, d)
    return LinearInA(Fraction(0), _c_minus(ell, d, a) * r_factor(d, a))


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


def conjectured_ratio(kind: str, ell: int, d: int = 1, a: int = 1) -> float:
    """Conjectured share of irregular primes: 1 - delta / sqrt(e)."""
    return 1.0 - _delta_for_kind(kind, ell, d, a).value() / SQRT_E


def lower_bound_ratio(kind: str, ell: int, d: int = 1, a: int = 1) -> float:
    """Unconditional lower bound on the share of irregular primes: 1 - delta."""
    return max(0.0, 1.0 - _delta_for_kind(kind, ell, d, a).value())
