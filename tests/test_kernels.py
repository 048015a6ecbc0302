import numpy as np
import pytest

from genocchi.kernels import MAX_KERNEL_PRIME, power_sums
from genocchi.modarith import primitive_root, sieve_primes

from oracles import power_sums_direct

PRIMES = [int(p) for p in sieve_primes(2000)[2:]]  # odd primes >= 5
LARGE_PRIMES = [20011, 29989, 39989]  # from the large_prime benchmark stratum


def test_half_coefficients_fold_the_full_sum():
    # the kernel's half-range fold against the unfolded Voronoi sum over j < p
    for p in (7, 11, 37, 101):
        for mult in (primitive_root(p), 2, 3):
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


def test_power_sums_rejects_composite_modulus():
    with pytest.raises(ValueError):
        power_sums(15, 2)


def test_power_sums_raises_when_rounding_margin_is_exceeded(monkeypatch):
    import genocchi.kernels as kernels

    monkeypatch.setattr(kernels, "_MAX_ROUNDING_ERROR", -1.0)
    with pytest.raises(ArithmeticError):
        power_sums(101, primitive_root(101))
