"""Independent density tables that exist only to cross-check genocchi.density.

Each one reaches a value of the package by another route: an alternative
coefficient table for delta_g, a direct table for delta_minus_total (which the
package computes as a sum of two components), the all-primes densities as
closed forms of ell alone, and the Euler product for the Artin constant.
"""

from fractions import Fraction

import numpy as np

from genocchi.density import (
    LinearInA,
    _canonical,
    _require_prime,
    _sym_a_over_ell,
    r_factor,
)
from genocchi.modarith import jacobi, sieve_primes


def artin_euler_product(limit: int = 10**7) -> float:
    """Direct Euler product over primes <= limit; validates ARTIN to ~1e-8.

    The truncation tail is O(1/(limit * log limit)), so the default limit
    leaves the reference digits authoritative.
    """
    p = sieve_primes(limit).astype(np.float64)
    return float(np.exp(np.log1p(-1.0 / (p * (p - 1.0))).sum()))


def _c_g_alt(ell: int, d: int, a: int) -> Fraction:
    """Equivalent coefficient table for delta_g in its Jacobi-symbol form."""
    L = ell * ell - ell - 1
    ell_div = d % ell == 0
    if d % 4 != 0:
        if not ell_div:
            return Fraction(3 + Fraction(1, L), 2)
        return Fraction(3 - _sym_a_over_ell(a, ell), 2)
    if a % 4 == 3:
        return Fraction(2)
    if not ell_div:
        return 1 + Fraction(1, L)
    return 1 - Fraction(_sym_a_over_ell(a, ell))


def _c_g_two_alt(d: int, a: int) -> Fraction:
    """Equivalent ell = 2 table in symbol form: 8 | d plays the part of ell | d."""
    if d % 4 != 0:
        return Fraction(3, 2)
    if a % 4 == 3:
        return Fraction(2)
    if d % 8 != 0:
        return Fraction(1)
    return 1 - Fraction(jacobi(2, a))


def delta_g_alt(ell: int, d: int, a: int) -> LinearInA:
    """delta_g evaluated through the alternative coefficient tables."""
    ell, d, a = _canonical(ell, d, a)
    c = _c_g_two_alt(d, a) if ell == 2 else _c_g_alt(ell, d, a)
    return LinearInA(Fraction(0), c * r_factor(d, a))


def _c2_direct(ell: int, d: int, a: int) -> Fraction:
    """Direct coefficient table for ord in {p-1, (p-1)/2}; equals c1 + c_minus.

    Independent of ell mod 4 once expressed through (a/ell) and a mod 4. Base 2
    has only its all-primes row, 1 + 3/4: no closed form in a progression.
    """
    if ell == 2:
        if d != 1:
            raise ValueError("no ell = 2 closed form in a progression")
        return Fraction(7, 4)
    L = ell * ell - ell - 1
    ell_div = d % ell == 0
    four_div = d % 4 == 0
    if four_div and a % 4 == 3:
        return Fraction(2)
    if ell_div and _sym_a_over_ell(a, ell) == -1:
        return Fraction(2)
    if not ell_div:
        if four_div:  # a = 1 mod 4 here
            return Fraction(3 + Fraction(1, L), 2)
        return Fraction(7, 4) + Fraction(1, 4 * L)
    # ell | d and a is a square mod ell
    return Fraction(1) if four_div else Fraction(3, 2)


def delta_minus_total_direct(ell: int, d: int, a: int) -> LinearInA:
    """delta_minus_total evaluated through the direct coefficient table."""
    ell, d, a = _canonical(ell, d, a)
    return LinearInA(Fraction(0), _c2_direct(ell, d, a) * r_factor(d, a))


def delta_near_primroot(ell: int, t: int) -> LinearInA:
    """Density of primes with ord_p(ell) = (p-1)/t for t in {1, 2}."""
    _require_prime(ell)
    if t not in (1, 2):
        raise ValueError(f"t must be 1 or 2, got {t}")
    L = ell * ell - ell - 1
    if t == 1:
        if ell == 2 or ell % 4 == 3:
            return LinearInA.of(0, 1)
        return LinearInA.of(0, 1 + Fraction(1, L))
    if ell == 2:
        return LinearInA.of(0, Fraction(3, 4))
    if ell % 4 == 1:
        return LinearInA.of(0, Fraction(3, 4) * (1 - Fraction(1, L)))
    return LinearInA.of(0, Fraction(3, 4) * (1 + Fraction(1, 3 * L)))


def delta_ell_sq_2(ell: int) -> LinearInA:
    """Density of primes with ord_p(ell**2) = (p-1)/2, over all primes."""
    _require_prime(ell)
    if ell == 2:
        return LinearInA.of(0, Fraction(3, 2))
    L = ell * ell - ell - 1
    return LinearInA.of(0, Fraction(3, 2) * (1 + Fraction(1, 3 * L)))
