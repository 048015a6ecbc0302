import math

import numpy as np
import pytest

from genocchi.modarith import (
    factorize,
    is_prime,
    jacobi,
    mult_order,
    primitive_root,
    sieve_primes,
)

from oracles import divisors


def trial_division_primes(limit):
    """Independent oracle: primality by trial division, one number at a time."""
    out = []
    for n in range(2, limit + 1):
        for f in range(2, math.isqrt(n) + 1):
            if n % f == 0:
                break
        else:
            out.append(n)
    return out


def test_sieve_small_cases():
    assert list(sieve_primes(10)) == [2, 3, 5, 7]
    assert list(sieve_primes(2)) == [2]


def test_sieve_count_at_1e5():
    assert sieve_primes(10**5).size == 9592


def test_sieve_matches_trial_division_to_1e4():
    assert list(sieve_primes(10**4)) == trial_division_primes(10**4)


def test_sieve_rejects_empty_domain():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_sieve_is_read_only():
    primes = sieve_primes(100)
    with pytest.raises(ValueError):
        primes[0] = 4


def test_factorize_roundtrip():
    for n in list(range(1, 500)) + [2**10 * 3**4 * 97, 10**6 - 1]:
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
        assert all(is_prime(p) for p, _ in fac)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def naive_order(g, p):
    value = g % p
    for t in range(1, p):
        if value == 1:
            return t
        value = value * g % p
    raise AssertionError


def test_mult_order_small():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 3) == 2


def test_mult_order_at_9592nd_prime():
    p = int(sieve_primes(10**5)[-1])
    assert p == 99991
    assert mult_order(3, p) == naive_order(3, p)


def test_mult_order_rejects_divisible_base():
    with pytest.raises(ValueError):
        mult_order(14, 7)


def test_mult_order_divides_p_minus_1():
    for p in map(int, sieve_primes(500)[1:]):
        for g in (2, 3, 5, 7, 10):
            if g % p:
                assert (p - 1) % mult_order(g, p) == 0


def test_order_of_square_halving():
    # ord(ell^2) is ord(ell) when odd, else half of it
    for p in map(int, sieve_primes(2000)[1:]):
        for ell in (2, 3, 5, 7):
            if ell == p:
                continue
            t = mult_order(ell, p)
            t_sq = mult_order(ell * ell % p, p)
            assert t_sq == (t if t % 2 else t // 2), (ell, p)


def test_jacobi_basics():
    assert jacobi(2, 7) == 1  # 3^2 = 2 mod 7
    for n in range(1, 50, 2):
        assert jacobi(1, n) == 1
    assert jacobi(0, 9) == 0
    assert jacobi(3, 9) == 0


def test_jacobi_rejects_even_or_nonpositive():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_jacobi_reciprocity():
    for j in range(3, 60, 2):
        for k in range(3, 60, 2):
            if math.gcd(j, k) != 1:
                continue
            assert jacobi(j, k) * jacobi(k, j) == (-1) ** ((j - 1) * (k - 1) // 4)


def test_jacobi_euler_criterion():
    for p in map(int, sieve_primes(300)[1:]):
        for ell in (2, 3, 5, 7, 11):
            if ell % p == 0:
                continue
            e = pow(ell, (p - 1) // 2, p)
            assert jacobi(ell, p) == (1 if e == 1 else -1)


def test_primitive_root():
    for p in map(int, sieve_primes(200)[1:]):
        g = primitive_root(p)
        assert mult_order(g, p) == p - 1
