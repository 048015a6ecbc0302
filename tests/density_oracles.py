"""Independent density tables that exist only to cross-check genocchi.density.

Each one reaches a value of the package by another route:
  alpha_primroot_full, alpha_minus_full
                     the full coefficient tables of alpha_primroot and
                     alpha_minus, every class written out, including the
                     4-does-not-divide-d rows the package derives from its
                     4 | d rows by the lift rule
  delta_g_alt        an alternative coefficient table for delta_g in
                     Jacobi-symbol form, ell = 2 included
  delta_minus_total_direct
                     a direct table for delta_minus_total, which the package
                     computes as a sum of two components
  delta_near_primroot, delta_ell_sq_2
                     the all-primes densities as closed forms of ell alone
  artin_euler_product
                     the Euler product for the Artin constant
  delta_g_case_bound the strict upper bound on delta_g in each case of the
                     (ell | d, 4 | d) split, or None where it is exactly 0
and the instance stream the property checks draw from:
  random_triples     a seeded stream of valid (ell, d, a)
`random_triples` and `delta_g_case_bound` (once `_case_bound`) moved here from
test_density, so that no test module imports another.
The symbols (a/ell) and (ell/a) are computed here with modarith.jacobi, and
the arguments are checked here too: no oracle borrows a private helper of
genocchi.density.
"""

import math
import random
from fractions import Fraction

import numpy as np

from genocchi.density import LinearInA, r_factor
from genocchi.modarith import is_prime, jacobi, sieve_primes

ODD_ELLS = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def random_triples(count, seed, ells=ODD_ELLS, dmax=600):
    """Deterministic stream of valid (ell, d, a) with gcd(a, d) = 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.choice(ells)
        d = rng.randint(1, dmax)
        a = rng.randint(1, d)
        if math.gcd(a, d) == 1:
            out.append((ell, d, a))
    return out


def delta_g_case_bound(ell: int, d: int, a: int) -> Fraction | None:
    """Strict upper bound on delta_g(ell, d, a) in its case, None if it is exactly 0."""
    ell_div = d % ell == 0
    four_div = d % 4 == 0
    s = jacobi(a % ell, ell) if ell_div else None
    if (four_div and a % 4 == 3) or (ell_div and s == -1):
        return Fraction(1)
    if not ell_div and not four_div:
        return Fraction(3 - Fraction(2, ell * (ell - 1)), 4)
    if not ell_div:
        return Fraction(1, 2)
    if not four_div:
        return Fraction(1, 3) if ell == 3 else Fraction(1, 2)
    return None  # remaining case: density is exactly zero


def artin_euler_product(limit: int = 10**7) -> float:
    """Direct Euler product over primes <= limit; validates ARTIN to ~1e-8.

    The truncation tail is O(1/(limit * log limit)), so the default limit
    leaves the reference digits authoritative.
    """
    p = sieve_primes(limit).astype(np.float64)
    return float(np.exp(np.log1p(-1.0 / (p * (p - 1.0))).sum()))


def _require_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"ell must be a prime, got {ell}")


def _canonical(ell: int, d: int, a: int, odd_base: bool = False) -> tuple[int, int, int]:
    """(ell, d, a mod d) for a prime ell and a class a prime to d >= 1; a = 1 when d = 1.

    With odd_base, ell = 2 is accepted over all primes (d = 1) only.
    """
    _require_prime(ell)
    if d < 1 or math.gcd(a, d) != 1:
        raise ValueError(f"need d >= 1 and a prime to d, got d={d}, a={a}")
    if odd_base and ell == 2 and d != 1:
        raise ValueError("closed form in a progression only covers odd prime bases")
    return ell, d, a % d if d > 1 else 1


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


def alpha_primroot_full(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ell a primitive root mod p."""
    ell, d, a = _canonical(ell, d, a, odd_base=True)
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


def _c_minus_full(ell: int, d: int, a: int) -> Fraction:
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


def alpha_minus_full(ell: int, d: int, a: int) -> LinearInA:
    """Relative density of primes p = a mod d with ord_p(ell) = (p-1)/2."""
    ell, d, a = _canonical(ell, d, a, odd_base=True)
    return LinearInA(Fraction(0), _c_minus_full(ell, d, a) * r_factor(d, a))


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
