"""Integer number-theory primitives: sieving, factoring, orders, Jacobi symbols.

Two sieves: `sieve_primes` lists the primes up to a limit, and a
smallest-prime-factor sieve factors every p - 1 of a prime array at once.
`mult_orders` builds on the second one: it finds ord_p(g) for a whole array of
primes, each with its own base g or all with one, from one factor sieve and in
chunks of _ORDER_CHUNK primes, with every modular product taken in int64, so
each modulus must stay below MAX_ORDER_MODULUS = 2**31. `mult_order` is its
one-prime counterpart, by trial division of p - 1 and Python integers.

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
    "mult_orders",
    "MAX_ORDER_MODULUS",
    "jacobi",
    "primitive_root",
]

#: `mult_orders` multiplies two residues mod p in int64, and p**2 < 2**62 needs p < 2**31
MAX_ORDER_MODULUS = 2**31
#: primes per chunk of `mult_orders`: each chunk's factor layers and powers stay
#: cache-sized, and the call's memory bounded, however many primes it takes. At
#: 2**13 the 5,344 rows of Table 1's bases at x = 5000 were one chunk, and the
#: call peaked 1.3 MiB above eight one-base calls; 2**10 matches them
_ORDER_CHUNK = 1 << 10


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


def mult_orders(g, primes) -> np.ndarray:
    """ord_p(g) for every p in `primes`, odd primes not dividing g, as an int64 array.

    g is one integer base for every prime, or an array of bases aligned with
    `primes` (the order of g[i] mod p[i]). Each prime power q**s dividing p - 1
    (s = 1 .. e_q) is one entry with exponent (p - 1) / q**s, and one vectorised
    square-and-multiply raises g to every entry's exponent at once.
    g**((p-1)/q**s) = 1 holds exactly for s = 1 .. s_q, where q**s_q is the
    largest power of q dividing (p - 1) / ord_p(g), so the order is (p - 1) over
    the product of q over the entries that give 1.
    The factors come from one smallest-prime-factor sieve of the cofactors
    (p - 1) / 2, one int32 per integer up to max(primes) / 2, so the inputs are
    meant to be sieve-sized (the survey stops at kernels.MAX_KERNEL_PRIME). The
    rows are factored and raised in chunks of _ORDER_CHUNK primes, so the
    arrays stay cache-sized and the memory bounded, whatever the number of rows.
    Every modulus must be odd and below MAX_ORDER_MODULUS, and no base divisible
    by its prime; that is checked before the sieve is built. Primality is not
    checked (the primes come from a sieve, or the caller checks the one prime it
    passes).
    """
    p = np.asarray(primes, dtype=np.int64).ravel()
    bases = np.asarray(g, dtype=np.int64)
    if bases.ndim:
        bases = bases.ravel()
        if bases.shape != p.shape:
            raise ValueError(f"{bases.size} bases for {p.size} primes; give one base or one each")
    if p.size == 0:
        return np.zeros(0, dtype=np.int64)
    bad = p[(p < 3) | (p % 2 == 0) | (p >= MAX_ORDER_MODULUS)]
    if bad.size:
        raise ValueError(f"moduli must be odd primes below 2**31, got {bad[0]}")
    base = bases % p
    if not base.all():
        i = np.flatnonzero(base == 0)[0]
        raise ValueError(f"{p[i]} divides {bases[i] if bases.ndim else g}; order undefined")
    spf = _smallest_factors(int(p.max()) // 2)
    out = np.empty_like(p)
    for start in range(0, p.size, _ORDER_CHUNK):
        chunk = slice(start, start + _ORDER_CHUNK)
        out[chunk] = _orders(base[chunk], p[chunk], spf)
    return out


def _orders(base: np.ndarray, p: np.ndarray, spf: np.ndarray) -> np.ndarray:
    """ord_p(base) elementwise, for residues 0 < base < p and spf sieved to max(p) / 2."""
    # one layer per prime factor of p - 1 taken with multiplicity, ascending: 2
    # first (every p - 1 is even), then the factors of the cofactor (p - 1) / 2
    layers = []
    rows = np.arange(p.size)
    q = qpow = np.full(p.size, 2, dtype=np.int64)
    rest = (p - 1) // 2
    while rows.size:
        layers.append((rows, q, (p[rows] - 1) // qpow))
        more = rest > 1
        rows, rest, prev, qpow = rows[more], rest[more], q[more], qpow[more]
        q = spf[rest].astype(np.int64)
        qpow = np.where(q == prev, qpow * q, q)
        rest //= q
    entry_rows, entry_q, exponent = (np.concatenate(parts) for parts in zip(*layers))
    del layers  # the concatenated entries replace the layers before the powering
    hit = _pow_mod(base, p, exponent, entry_rows) == 1
    missing = np.ones(p.size, dtype=np.int64)
    np.multiply.at(missing, entry_rows[hit], entry_q[hit])
    return (p - 1) // missing


def _smallest_factors(limit: int) -> np.ndarray:
    """spf[n] = the least prime factor of n for 2 <= n <= limit (spf[0] = 0, spf[1] = 1)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for q in range(2, math.isqrt(limit) + 1):
        if spf[q] == 0:
            multiples = spf[q * q :: q]
            multiples[multiples == 0] = q
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset  # primes are their own least factor
    return spf


def _pow_mod(
    base: np.ndarray, mod: np.ndarray, exponent: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """base[rows]**exponent % mod[rows] elementwise, by binary powering in int64.

    The entries of one row share its squarings base**(2**k) % mod, taken once
    per row. Every product is of two residues below the modulus, so moduli
    below MAX_ORDER_MODULUS = 2**31 keep it below 2**62.
    """
    entry_mod = mod[rows]
    result = np.ones(rows.size, dtype=np.int64)
    for bit in range(int(exponent.max()).bit_length()):
        if bit:
            base = base * base % mod
        result = np.where((exponent >> bit) & 1, result * base[rows] % entry_mod, result)
    return result


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
