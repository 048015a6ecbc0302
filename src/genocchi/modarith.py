"""Integer number-theory primitives: sieving, factoring, orders, Jacobi symbols.

All functions are pure; prime arrays are frozen after construction and safe to
share across workers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "sieve_primes",
    "is_prime",
    "factorize",
    "mult_order",
    "jacobi",
    "primitive_root",
]


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    primes = np.flatnonzero(mask).astype(np.int64)
    primes.flags.writeable = False
    return primes


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as ascending (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        if e:
            out.append((p, e))
    f = 5
    # wheel over 6k +- 1
    while f * f <= n:
        for p in (f, f + 2):
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            if e:
                out.append((p, e))
        f += 6
    if n > 1:
        out.append((n, 1))
    return out


def mult_order(g: int, p: int) -> int:
    """Least t >= 1 with g**t = 1 mod p, for an odd prime p not dividing g.

    Computed by factoring p - 1 and stripping prime factors from the
    candidate exponent.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if g % p == 0:
        raise ValueError(f"{p} divides {g}; order undefined")
    t = p - 1
    for q, _ in factorize(p - 1):
        while t % q == 0 and pow(g, t // q, p) == 1:
            t //= q
    return t


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by binary reciprocity.

    Returns 0 iff gcd(a, n) > 1. (a/1) = 1 for every a.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"lower argument must be odd and positive, got {n}")
    a %= n
    acc = 1
    while True:
        if n == 1:
            return acc
        if a == 0:
            return 0
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                acc = -acc
        if a == 1:
            return acc
        if a % 4 == 3 and n % 4 == 3:
            acc = -acc
        a, n = n % a, a


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    if p == 2:
        return 1
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    qs = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError(f"no primitive root found for prime {p}")
