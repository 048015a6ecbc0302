"""Per-prime irregularity classification.

A prime is classified from multiplicative orders plus a B-irregularity flag.
`b_irregular_pairs` finds the flag with the power-sum kernel. The rules
(order thresholds and the p = 3 and p = ell edge cases) live in one function,
`classify_from_orders`. `prime_orders` checks its inputs and computes the
orders for it, `classify_prime` joins the two, and the survey feeds it orders
read from its cache. `wieferich_search` lists a base's Wieferich primes, the
other way a prime divides the H-sequences.

The congruence oracles that check this path (Voronoi, Kummer, Lehmer, exact
p-adic valuations and brute-force divisor scans) live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import half_coefficients, power_sums
from .modarith import is_prime, mult_order, primitive_root, sieve_primes

__all__ = [
    "IrregularPair",
    "PrimeClassification",
    "b_irregular_pairs",
    "classify_prime",
    "classify_from_orders",
    "prime_orders",
    "wieferich_search",
]


class IrregularPair(NamedTuple):
    p: int
    index: int  # even subscript 2n with p dividing the Bernoulli numerator


@dataclass(frozen=True)
class PrimeClassification:
    """Orders, quadratic character, and the five irregularity flags of a prime.

    When p == ell the order fields and jacobi_ell_p are 0 (undefined case,
    handled by the edge rules in `classify_from_orders`).
    """

    p: int
    ell: int
    ord_ell: int
    ord_ell_sq: int
    jacobi_ell_p: int
    b_irregular: bool
    g_irregular: bool
    h_irregular: bool
    h_minus_irregular: bool
    h_plus_irregular: bool


def b_irregular_pairs(p: int) -> list[IrregularPair]:
    """All even 2n in [2, p-3] whose Bernoulli numerator is divisible by p.

    Uses the Voronoi congruence with a primitive root g in place of the
    multiplier, so the (1 - g**2n) factor is a unit for every index in range
    and p | B_2n collapses to a vanishing power sum mod p.
    """
    if p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = primitive_root(p)
    sums = power_sums(p, half_coefficients(p, g))
    return [IrregularPair(p, 2 * (int(i) + 1)) for i in np.flatnonzero(sums == 0)]


def prime_orders(ell: int, p: int) -> tuple[int, int, int]:
    """(ord_p(ell), ord_p(ell**2), (ell/p)) for a prime ell and an odd prime p.

    One order computation gives all three: with o = ord_p(ell),
    ord_p(ell**2) = o / gcd(o, 2), and by Euler's criterion (ell/p) = 1
    exactly when o divides (p-1)/2. All three are 0 when p = ell.
    """
    if p == 2:
        raise ValueError("2 is never classified; the definitions cover odd primes")
    if not is_prime(p) or not is_prime(ell):
        raise ValueError(f"both ell={ell} and p={p} must be prime")
    if p == ell:
        return (0, 0, 0)
    o = mult_order(ell, p)
    return o, o // math.gcd(o, 2), 1 if (p - 1) // 2 % o == 0 else -1


def classify_prime(ell: int, p: int, b_irregular: bool) -> PrimeClassification:
    """Classify an odd prime p for base ell from its orders and the supplied B-flag."""
    return classify_from_orders(ell, p, prime_orders(ell, p), b_irregular)


def classify_from_orders(
    ell: int, p: int, orders: tuple[int, int, int], b_irregular: bool
) -> PrimeClassification:
    """The classification rules, applied to (ord_p(ell), ord_p(ell**2), (ell/p)).

    Criteria for p distinct from ell and p > 3:
      G, H:  B-irregular or ord_p(ell**2) < (p-1)/2
      H-:    B-irregular or ord_p(ell)    < (p-1)/2
      H+:    B-irregular or ord_p(ell) even and not p-1
    Edge rules: p = 3 is regular for every variant; p = ell > 3 is
    G-irregular while its H flags reduce to the B-flag, and its orders are
    recorded as 0. Inputs are not validated (see `classify_prime`).
    """
    if p == ell:
        b = b_irregular and p > 3
        return PrimeClassification(p, ell, 0, 0, 0, b, p > 3, b, b, b)
    ord_ell, ord_sq, jac = orders
    if p == 3:
        return PrimeClassification(p, ell, ord_ell, ord_sq, jac, False, False, False, False, False)
    b = b_irregular
    half = (p - 1) // 2
    g = b or ord_sq < half
    hm = b or ord_ell < half
    hp = b or (ord_ell % 2 == 0 and ord_ell != p - 1)
    return PrimeClassification(p, ell, ord_ell, ord_sq, jac, b, g, g, hm, hp)


def wieferich_search(ell: int, limit: int, variant: str = "base") -> list[int]:
    """Odd primes p <= limit (p not dividing ell) in the requested Wieferich set.

    base:  ell**(p-1)     = 1 mod p**2
    minus: ell**((p-1)/2) = 1 mod p**2
    plus:  ell**((p-1)/2) = -1 mod p**2
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if variant not in ("base", "plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    hits: list[int] = []
    for p in sieve_primes(limit)[1:]:  # skip 2
        p = int(p)
        if ell % p == 0:
            continue
        psq = p * p
        if variant == "base":
            ok = pow(ell, p - 1, psq) == 1
        elif variant == "minus":
            ok = pow(ell, (p - 1) // 2, psq) == 1
        else:
            ok = pow(ell, (p - 1) // 2, psq) == psq - 1
        if ok:
            hits.append(p)
    return hits
