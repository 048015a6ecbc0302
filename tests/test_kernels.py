import numpy as np
import pytest

from genocchi.kernels import (
    MAX_KERNEL_PRIME,
    half_coefficients,
    power_sums,
    power_sums_numpy,
)
from genocchi.modarith import primitive_root, sieve_primes

PRIMES = [int(p) for p in sieve_primes(2000)[2:]]  # odd primes >= 5
LARGE_PRIMES = [20011, 29989, 39989]  # from the large_prime benchmark stratum


def reference_sums(p, coeffs):
    """Direct big-int evaluation of the folded power sums."""
    out = []
    for n in range(1, (p - 1) // 2):
        out.append(
            sum(int(c) * pow(j, 2 * n - 1, p) for j, c in enumerate(coeffs, 1)) % p
        )
    return np.array(out, dtype=np.int64)


def test_half_coefficients_fold_the_full_sum():
    for p in (7, 11, 37, 101):
        g = primitive_root(p)
        c = half_coefficients(p, g)
        for n in (1, 2, 3):
            full = sum(pow(j, 2 * n - 1, p) * (j * g // p) for j in range(1, p)) % p
            folded = sum(int(ci) * pow(j, 2 * n - 1, p) for j, ci in enumerate(c, 1)) % p
            assert full == folded


def test_power_sums_match_reference():
    for p in (5, 7, 37, 101, 499):
        g = primitive_root(p)
        c = half_coefficients(p, g)
        assert np.array_equal(power_sums(p, c), reference_sums(p, c))


def test_backends_agree():
    # the chirp-convolution kernel against the direct O(p^2) evaluation
    for p in PRIMES + LARGE_PRIMES:
        c = half_coefficients(p, primitive_root(p))
        assert np.array_equal(power_sums(p, c), power_sums_numpy(p, c)), p
    for p in PRIMES[::10]:
        for mult in (2, 3):
            c = half_coefficients(p, mult)
            assert np.array_equal(power_sums(p, c), power_sums_numpy(p, c)), (p, mult)


def test_power_sums_arg_validation():
    with pytest.raises(ValueError):
        power_sums(8, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        power_sums(11, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        power_sums(MAX_KERNEL_PRIME + 2, np.zeros((MAX_KERNEL_PRIME + 1) // 2, dtype=np.int64))


def test_power_sums_rejects_composite_modulus():
    with pytest.raises(ValueError):
        power_sums(15, np.zeros(7, dtype=np.int64))


def test_power_sums_raises_when_rounding_margin_is_exceeded(monkeypatch):
    import genocchi.kernels as kernels

    monkeypatch.setattr(kernels, "_MAX_ROUNDING_ERROR", -1.0)
    with pytest.raises(ArithmeticError):
        power_sums(101, half_coefficients(101, primitive_root(101)))
