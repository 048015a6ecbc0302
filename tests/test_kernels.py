import math

import numpy as np
import pytest

import genocchi.kernels as kernels
from genocchi.kernels import MAX_KERNEL_PRIME, power_sums
from genocchi.modarith import primitive_root, sieve_primes

from oracles import power_sums_direct

PRIMES = [int(p) for p in sieve_primes(2000)[2:]]  # odd primes >= 5
LARGE_PRIMES = [20011, 29989, 32749, 32771, 39989]  # large_prime stratum; both sides of 2**15


def _full_sums(p: int, mult: int) -> list[int]:
    """The unfolded Voronoi sums over j < p, in Python ints."""
    return [
        sum(pow(j, 2 * n - 1, p) * (j * mult // p) for j in range(1, p)) % p
        for n in range(1, (p - 1) // 2)
    ]


def test_half_coefficients_fold_the_full_sum():
    # the kernel's half-range fold against the unfolded sum at its multiplier g
    for p in (7, 11, 37, 101):
        assert power_sums(p).tolist() == _full_sums(p, primitive_root(p)), p


def test_power_sums_match_the_direct_sums():
    # the chirp-convolution kernel against the direct O(p^2) evaluation at g
    for p in PRIMES + LARGE_PRIMES:
        assert np.array_equal(power_sums(p), power_sums_direct(p, primitive_root(p))), p
    # the oracle takes its floors in int64: exact up to the largest multiplier it
    # accepts, and it refuses any larger one instead of overflowing
    p, top = 101, (2**63 - 1) // 100
    assert power_sums_direct(p, top).tolist() == _full_sums(p, top)
    for mult in (top + 1, -(top + 1), 2**62 + 1, 2**70 + 3):
        with pytest.raises(ValueError, match="below 2"):
            power_sums_direct(p, mult)


def _voronoi_sum(p: int, g: int, n: int) -> int:
    """S(2n) = sum_{j<=h} c_j * j**(2n-1) mod p at the multiplier g, in O(p) Python ints."""
    return sum(
        (2 * (j * g // p) - g + 1) * pow(j, 2 * n - 1, p) for j in range(1, (p - 1) // 2 + 1)
    ) % p


def test_power_sums_at_the_top_of_the_range():
    # two primes near MAX_KERNEL_PRIME: h = (p-1)/2 even, where the chirp's second half is
    # the negation of its first, and h odd, where it is a copy; the first, last and four
    # seeded-random indices against the O(p) sum
    primes = [int(p) for p in sieve_primes(MAX_KERNEL_PRIME)]
    top_odd_half = next(p for p in reversed(primes) if p % 4 == 3)
    rng = np.random.default_rng(249989)
    for p in (249989, top_odd_half):
        half = (p - 1) // 2
        assert (half % 2 == 0) == (p == 249989), p
        sums, g = power_sums(p), primitive_root(p)
        assert len(sums) == half - 1
        for n in [1, half - 1, *(int(n) for n in rng.integers(2, half - 1, 4))]:
            assert int(sums[n - 1]) == _voronoi_sum(p, g, n), (p, n)


def test_power_table_is_balanced_powers_of_g():
    def balanced(r: int, p: int) -> int:
        return r - p if r > p // 2 else r

    for p, stride in [(5, 1), (7, 1), (11, 1), (101, 1), (32749, 1), (32771, 1), (249989, 997)]:
        g, half = primitive_root(p), (p - 1) // 2
        table = kernels._balanced_powers(g, p)
        assert table.dtype == np.int64 and len(table) == p - 1, p
        assert np.array_equal(table[half:], -table[:half]), p
        exps = range(0, p - 1, stride)
        assert table[exps].tolist() == [balanced(pow(g, e, p), p) for e in exps], p


def test_reduce_matches_python_modulo():
    rng = np.random.default_rng(5)
    for p in (5, 101, 32771, 249989):
        for m in (p, p - 1):
            edges = [0, 1, -1, m - 1, m, m + 1, -m + 1, -m, -m - 1, p * p, -p * p]
            r = np.concatenate([np.array(edges), rng.integers(-(p**2), p**2, 1000)])
            assert np.array_equal(kernels._reduce(r.copy(), m), r % m), (p, m)
            # the balanced range [-h, h] of p = 2h + 1 is low = -h
            half = (p - 1) // 2
            assert np.array_equal(kernels._reduce(r.copy(), p, -half), (r + half) % p - half), p


def _fast_length_loop(n: int) -> int:
    """The former search for the smallest 2**a * 3**b * 5**c >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def test_fast_length_table_matches_the_search():
    # every n <= MAX_KERNEL_PRIME against the next 5-smooth number found by sieving
    # 2, 3 and 5 out of every integer, and the former loop at both ends of each step
    top = 2 * MAX_KERNEL_PRIME
    rest = np.arange(top + 1)
    for f in (2, 3, 5):
        while True:
            divisible = (rest % f == 0) & (rest > 0)
            if not divisible.any():
                break
            rest[divisible] //= f
    smooth = np.flatnonzero(rest == 1)
    n = np.arange(MAX_KERNEL_PRIME + 1)
    table = [kernels._fast_length(int(k)) for k in n]
    assert np.array_equal(table, smooth[np.searchsorted(smooth, n)])
    ends = {0, MAX_KERNEL_PRIME}
    for s in kernels._FAST_LENGTHS:
        ends.update(k for k in (s, s + 1) if k <= MAX_KERNEL_PRIME)
    for k in sorted(ends):
        assert kernels._fast_length(k) == _fast_length_loop(k), k


def test_power_sums_arg_validation():
    with pytest.raises(ValueError, match="odd prime"):
        power_sums(8)
    with pytest.raises(ValueError, match="exactness bound"):
        power_sums(MAX_KERNEL_PRIME + 1)  # odd, so the bound check is what rejects it


def test_power_sums_rejects_composite_modulus():
    with pytest.raises(ValueError):
        power_sums(15)


def test_power_sums_raises_when_rounding_margin_is_exceeded(monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ROUNDING_ERROR", -1.0)
    one_limb, two_limbs = 101, 39989
    assert one_limb < kernels._ONE_LIMB_PRIME <= two_limbs
    for p in (one_limb, two_limbs):
        with pytest.raises(ArithmeticError):
            power_sums(p)


def test_one_limb_matches_two_limbs(monkeypatch):
    # primes the one-limb rule serves, against the two-limb rule forced on them: every
    # prime below 2**14, then every 8th prime and both end primes up to _ONE_LIMB_PRIME
    primes = [int(p) for p in sieve_primes(kernels._ONE_LIMB_PRIME - 1)[2:]]
    upper = [p for p in primes if p >= 1 << 14]
    primes = [p for p in primes if p < 1 << 14] + upper[:-1:8] + upper[-1:]
    one_limb = [power_sums(p) for p in primes]
    monkeypatch.setattr(kernels, "_ONE_LIMB_PRIME", 0)
    for p, sums in zip(primes, one_limb):
        assert np.array_equal(sums, power_sums(p)), p


def _percival_factor(length: int) -> float:
    """Percival (Math. Comp. 72, 2003): the error of a float64 FFT product over ||x|| * ||y||.

    The length is taken as the next power of two, eps = 2**-53 and the
    twiddle-factor error beta = eps / sqrt(2). log1p and expm1 keep the
    (1 + tiny)**k - 1 digits that float powers round away.
    """
    n = math.ceil(math.log2(length))
    eps = 2.0**-53
    beta = eps / math.sqrt(2)
    log_growth = (
        3 * n * math.log1p(eps)
        + (3 * n + 1) * math.log1p(eps * math.sqrt(5))
        + 3 * n * math.log1p(beta)
    )
    return math.expm1(log_growth)


def test_limb_split_within_written_bound():
    # balanced operands: ||x|| <= sqrt(h) * x_max over h = (p-1)/2 entries, ||y|| <= sqrt(p-2) * h
    def bound(p: int, x_max: int) -> float:
        h = (p - 1) // 2
        norms = math.sqrt(h) * x_max * math.sqrt(p - 2) * h
        return norms * _percival_factor(kernels._fast_length(p - 2))

    p = int(sieve_primes(kernels._ONE_LIMB_PRIME - 1)[-1])  # 32749
    one_limb = bound(p, (p - 1) // 2)
    assert one_limb < kernels._MAX_ROUNDING_ERROR, (p, one_limb)

    p = int(sieve_primes(MAX_KERNEL_PRIME)[-1])  # 249989
    h = (p - 1) // 2
    lo, hi = kernels._limbs(np.arange(-h, h + 1))
    assert np.array_equal(hi * 2**kernels._LIMB_BITS + lo, np.arange(-h, h + 1))
    limb_products = {
        "lo": bound(p, int(np.abs(lo).max())),
        "hi": bound(p, int(np.abs(hi).max())),
    }
    assert max(limb_products.values()) < kernels._MAX_ROUNDING_ERROR, (p, limb_products)
