"""Per-prime irregularity classification.

A prime is classified from multiplicative orders plus a B-irregularity flag.
`b_irregular_pairs` finds the flag with the power-sum kernel, one prime at a
time. The orders and the rules work on whole arrays of primes: `prime_orders`
gives every prime's (ord_p(ell), ord_p(ell**2), (ell/p)) row from one
`modarith.mult_orders` pass, for one base or for many at once, and
`irregular_flags` applies the rules (order thresholds and the p = 3 and
p = ell edge cases) to those rows. A survey calls `irregular_flags` once per
base for the whole sieve and `prime_orders` once for the primes missing from
the orders caches of all its bases, and `classify_prime(ell, p)` is
their one-row case, with the one-prime checks and the flag from the kernel.
`wieferich_search` lists a base's Wieferich primes, the other H-sequence divisors.

The congruence oracles that check this path (Voronoi, Kummer, Lehmer, exact
p-adic valuations and brute-force divisor scans) live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import MAX_KERNEL_PRIME, power_sums
from .modarith import is_prime, mult_orders, sieve_primes

__all__ = [
    "PrimeClassification",
    "b_irregular_pairs",
    "classify_prime",
    "irregular_flags",
    "prime_orders",
    "wieferich_search",
]


@dataclass(frozen=True)
class PrimeClassification:
    """Orders, quadratic character, and the five irregularity flags of a prime.

    When p == ell the order fields and jacobi_ell_p are 0 (undefined case,
    handled by the edge rules in `irregular_flags`).
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


def b_irregular_pairs(p: int) -> tuple[int, ...]:
    """All even 2n in [2, p-3] whose Bernoulli numerator is divisible by p, ascending.

    Uses the Voronoi congruence at the multiplier `power_sums(p)` chooses, a
    primitive root g, so the (1 - g**2n) factor is a unit for every index in
    range and p | B_2n collapses to a vanishing power sum mod p.
    """
    if p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    sums = power_sums(p)  # raises for a composite p
    return tuple(2 * (int(i) + 1) for i in np.flatnonzero(sums == 0))


def prime_orders(ell, primes) -> np.ndarray:
    """The (n, 3) int64 rows (ord_p(ell), ord_p(ell**2), (ell/p)) for odd primes p.

    ell is one prime base for every p, or an array of prime bases aligned with
    `primes`, so that one call, and one `mult_orders` pass with one factor
    sieve, serves the rows of many bases. `_order_rows` derives all three
    columns from o = ord_p(ell). The row of p = ell is zeros. Every p goes to
    `mult_orders` (with the base 1 where p = ell), which checks that it is odd
    and below 2**31 but not that it is prime. Every base must be prime.
    """
    p = np.asarray(primes, dtype=np.int64).ravel()
    ells = np.asarray(ell, dtype=np.int64).ravel()  # one base, or one per prime
    for base in dict.fromkeys(ells[np.diff(ells, prepend=ells[:1] - 1) != 0].tolist()):
        if not is_prime(base):  # each run of equal bases is checked once
            raise ValueError(f"ell must be prime, got {base}")
    own = p == ells
    o = mult_orders(np.where(own, 1, ells), p)  # 1 is a harmless base where p = ell
    o[own] = 0
    return _order_rows(p, o)


def _order_rows(p: np.ndarray, o: np.ndarray) -> np.ndarray:
    """The rows (o, ord_p(ell**2), (ell/p)) for odd primes p and o = ord_p(ell).

    ord_p(ell**2) = o / gcd(o, 2) (o halved when even), and by Euler's criterion
    (ell/p) = 1 exactly when o divides (p-1)/2. o = 0 stands for p = ell, and
    gives a row of zeros.
    """
    jacobi = np.where((p - 1) // 2 % np.maximum(o, 1) == 0, 1, -1)
    jacobi[o == 0] = 0
    return np.column_stack([o, np.where(o & 1, o, o >> 1), jacobi])


def classify_prime(ell: int, p: int) -> PrimeClassification:
    """Classify an odd prime p for base ell: `irregular_flags` for one prime.

    The checks run cheapest first, so a bad ell or p fails before the kernel
    runs: p != 2, then the kernel bound (before primality, whose trial division
    grows as sqrt(p); the bound also keeps the orders' factor sieve small),
    then p's primality, then ell's, inside `prime_orders`. The B flag is
    `b_irregular_pairs(p)` for p > 3 (2 and 3 have none).
    """
    if p == 2:
        raise ValueError("2 is never classified; the definitions cover odd primes")
    if p > MAX_KERNEL_PRIME:
        raise ValueError(f"p={p} exceeds the kernel exactness bound {MAX_KERNEL_PRIME}")
    if not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    orders = prime_orders(ell, [p])
    b = p > 3 and bool(b_irregular_pairs(p))
    g, h, hm, hp = (bool(mask[0]) for mask in irregular_flags(ell, [p], orders, [b]))
    return PrimeClassification(p, ell, *orders[0].tolist(), b, g, h, hm, hp)


def irregular_flags(
    ell: int, p: np.ndarray, orders: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The classification rules: (G, H, H-, H+) masks aligned with the primes p.

    Row i of the (n, 3) array `orders` is (ord_p(ell), ord_p(ell**2), (ell/p))
    for p[i], and b[i] is p[i]'s B-irregularity flag.
    Criteria for p distinct from ell and p > 3:
      G, H:  B-irregular or ord_p(ell**2) < (p-1)/2
      H-:    B-irregular or ord_p(ell)    < (p-1)/2
      H+:    B-irregular or ord_p(ell) even and not p-1
    Edge rules: 2 and 3 are regular for every variant, whatever their B flag
    and orders say. p = ell > 3 is G-irregular, since ell divides every G_n;
    its orders are undefined (recorded as 0) and its H, H- and H+ flags are
    its B flag, so there H is not G. Inputs are not validated (see `prime_orders`).
    """
    p = np.asarray(p, dtype=np.int64)
    ord_ell, ord_sq, _ = np.asarray(orders, dtype=np.int64).T
    half = (p - 1) // 2
    live = p > 3
    b = np.asarray(b, dtype=bool) & live
    by_order = live & (p != ell)  # where the order criteria apply
    h = b | by_order & (ord_sq < half)
    g = h | live & (p == ell)
    hm = b | by_order & (ord_ell < half)
    hp = b | by_order & (ord_ell % 2 == 0) & (ord_ell != p - 1)
    return g, h, hm, hp


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
        r = pow(ell, (p - 1) // 2, psq)  # ell**(p-1) = r**2
        if variant == "base":
            ok = r * r % psq == 1
        elif variant == "minus":
            ok = r == 1
        else:
            ok = r == psq - 1
        if ok:
            hits.append(p)
    return hits
