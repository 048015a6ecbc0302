import math

import numpy as np
import pytest

import genocchi.kernels as kernels
from genocchi.kernels import MAX_KERNEL_PRIME, power_sums
from genocchi.modarith import primitive_root, sieve_primes

from oracles import power_sums_direct

PRIMES = [int(p) for p in sieve_primes(2000)[2:]]  # odd primes >= 5
LARGE_PRIMES = [20011, 29989, 32749, 32771, 39989]  # large_prime stratum; both sides of 2**15


def test_half_coefficients_fold_the_full_sum():
    # the kernel's half-range fold against the unfolded Voronoi sum over j < p, in Python ints.
    # mult + p adds sum_{j<p} j**(2n) = 0 mod p, so multipliers past int64 must reduce mod p
    # (power_sums_direct multiplies mult in int64 too, so it cannot be the oracle for them)
    cases = [(p, mult) for p in (7, 11, 37, 101) for mult in (primitive_root(p), 2, 3)]
    for p, mult in cases + [(101, 2**62 + 1), (101, 2**70 + 3)]:
        full = [
            sum(pow(j, 2 * n - 1, p) * (j * mult // p) for j in range(1, p)) % p
            for n in range(1, (p - 1) // 2)
        ]
        assert power_sums(p, mult).tolist() == full, (p, mult)


def test_power_sums_match_the_direct_sums():
    # the chirp-convolution kernel against the direct O(p^2) evaluation
    for p in PRIMES + LARGE_PRIMES:
        g = primitive_root(p)
        assert np.array_equal(power_sums(p, g), power_sums_direct(p, g)), p
    for p in PRIMES[::10]:
        for mult in (2, 3):
            assert np.array_equal(power_sums(p, mult), power_sums_direct(p, mult)), (p, mult)


def test_power_sums_arg_validation():
    with pytest.raises(ValueError, match="odd prime"):
        power_sums(8, 3)
    with pytest.raises(ValueError, match="exactness bound"):
        power_sums(MAX_KERNEL_PRIME + 1, 2)  # odd, so the bound check is what rejects it
    # the fold floor((p-j)*mult/p) = mult - 1 - floor(j*mult/p) needs p not to divide mult
    for p, mult in ((7, 7), (11, 22), (13, 13)):
        with pytest.raises(ValueError, match="prime to p"):
            power_sums(p, mult)


def test_power_sums_rejects_composite_modulus():
    with pytest.raises(ValueError):
        power_sums(15, 2)


def test_power_sums_raises_when_rounding_margin_is_exceeded(monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ROUNDING_ERROR", -1.0)
    one_limb, two_limbs = 101, 39989
    assert one_limb < kernels._ONE_LIMB_PRIME <= two_limbs
    for p in (one_limb, two_limbs):
        with pytest.raises(ArithmeticError):
            power_sums(p, primitive_root(p))


def test_one_limb_matches_two_limbs(monkeypatch):
    # primes the one-limb rule serves, against the two-limb rule forced on them: every
    # prime below 2**14, then every 8th prime and both end primes up to _ONE_LIMB_PRIME
    primes = [int(p) for p in sieve_primes(kernels._ONE_LIMB_PRIME - 1)[2:]]
    upper = [p for p in primes if p >= 1 << 14]
    primes = [p for p in primes if p < 1 << 14] + upper[:-1:8] + upper[-1:]
    one_limb = [power_sums(p, primitive_root(p)) for p in primes]
    monkeypatch.setattr(kernels, "_ONE_LIMB_PRIME", 0)
    for p, sums in zip(primes, one_limb):
        assert np.array_equal(sums, power_sums(p, primitive_root(p))), p


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
