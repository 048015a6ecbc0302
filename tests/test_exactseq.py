from fractions import Fraction

import pytest

from genocchi.exactseq import BernoulliCache, bernoulli, genocchi_number
from genocchi.modarith import jacobi, sieve_primes

from oracles import (
    class_number_neg_p,
    h_value,
    tangent_number,
    valuation,
    von_staudt_clausen_check,
)

# ---------------------------------------------------------------- oracles


def bernoulli_akiyama_tanigawa(n):
    """Independent tableau oracle for B_0..B_n (converted to B_1 = -1/2)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]  # tableau yields the +1/2 convention at index 1
    return out


def series_inverse(den, order):
    """Coefficients of 1/den(t) to the given order; den[0] must be 1."""
    assert den[0] == 1
    inv = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        inv[n] = -sum(den[k] * inv[n - k] for k in range(1, min(n, len(den) - 1) + 1))
    return inv


def tangent_series(order):
    """tan t = sin t / cos t by exact power-series division; returns coefficients."""
    fact = [1]
    for k in range(1, 2 * order + 2):
        fact.append(fact[-1] * k)
    sin = [Fraction(0)] * (2 * order + 1)
    cos = [Fraction(0)] * (2 * order + 1)
    for k in range(order + 1):
        if 2 * k + 1 <= 2 * order:
            sin[2 * k + 1] = Fraction((-1) ** k, fact[2 * k + 1])
        cos[2 * k] = Fraction((-1) ** k, fact[2 * k])
    inv_cos = series_inverse(cos, 2 * order)
    tan = [
        sum(sin[k] * inv_cos[n - k] for k in range(n + 1)) for n in range(2 * order + 1)
    ]
    return tan, fact


# ---------------------------------------------------------------- bernoulli


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    for k in range(1, 20):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_b12():
    b12 = bernoulli(12)
    assert b12 == Fraction(-691, 2730)
    assert b12.numerator % 691 == 0


def test_bernoulli_matches_tableau_oracle():
    oracle = bernoulli_akiyama_tanigawa(60)
    for n in range(61):
        assert bernoulli(n) == oracle[n], n


def test_cache_grows_independently():
    cache = BernoulliCache()
    assert cache.get(10) == Fraction(5, 66)
    assert cache.max_index >= 10


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------- genocchi values


def test_genocchi_known_values():
    assert genocchi_number(2, 1) == 1
    assert genocchi_number(2, 2) == -1
    assert genocchi_number(2, 3) == 0
    assert genocchi_number(3, 2) == -4
    for n in range(1, 25):
        assert genocchi_number(2, 2 * n + 1) == 0


def test_genocchi_matches_h_value():
    for ell in (2, 3, 5, 7):
        for n in range(2, 202, 2):
            assert genocchi_number(ell, n) == ell * n * h_value(ell, n, "full")


def test_genocchi_alternating_odd_positive():
    # for base 2 the signed even values are odd positive integers
    for n in range(1, 51):
        g = (-1) ** n * genocchi_number(2, 2 * n)
        assert g > 0 and g % 2 == 1


# ---------------------------------------------------------------- h values


def test_h_value_examples():
    assert h_value(2, 2) == Fraction(-1, 4)
    assert h_value(3, 4, "minus") == Fraction(1, 15)
    assert h_value(3, 4, "plus") == Fraction(-1, 12)


def test_h_value_domain():
    with pytest.raises(ValueError):
        h_value(2, 3)
    with pytest.raises(ValueError):
        h_value(2, 4, "bogus")


def test_h_minus_plus_product_identity():
    # (1-x)(1+x) = 1-x^2 lifted to exact H-values, scaled by n/B_n
    for ell in (2, 3, 5):
        for n in range(2, 62, 2):
            b = bernoulli(n)
            full = h_value(ell, n, "full") * n / b
            minus = h_value(ell, n, "minus") * n / b
            plus = h_value(ell, n, "plus") * n / b
            assert full == minus * plus


def test_generating_function_coefficients():
    # t/(e^t - 1) - ell*t/(e^(ell*t) - 1) has t^n coefficient H_n / (n-1)!
    order = 30
    fact = [1]
    for k in range(1, order + 2):
        fact.append(fact[-1] * k)
    expm1_over_t = [Fraction(1, fact[k + 1]) for k in range(order + 1)]
    base = series_inverse(expm1_over_t, order)  # t/(e^t-1) shifted by one
    for ell in (2, 3, 5):
        for n in range(2, order + 1):
            coeff = base[n] * (1 - Fraction(ell) ** n)
            if n % 2:
                assert coeff == 0
            else:
                assert coeff == h_value(ell, n, "full") / fact[n - 1]


# ---------------------------------------------------------------- tangent numbers


def test_tangent_number_values_against_series_oracle():
    tan, fact = tangent_series(6)
    want = [tan[2 * n - 1] * fact[2 * n - 1] for n in range(1, 6)]
    assert want == [1, 2, 16, 272, 7936]
    assert [tangent_number(n) for n in range(1, 6)] == want


def test_tangent_numbers_positive_integers():
    for n in range(1, 30):
        assert tangent_number(n) > 0


# ---------------------------------------------------------------- von Staudt-Clausen


def test_von_staudt_clausen_explicit():
    assert von_staudt_clausen_check(2)  # 1/6 + 1/2 + 1/3 = 1
    assert von_staudt_clausen_check(12)


def test_von_staudt_clausen_sweep(bernoulli_800):
    for n in range(2, 402, 2):
        assert von_staudt_clausen_check(n), n


# ---------------------------------------------------------------- class numbers


def class_number_character_sum(p):
    """Independent oracle from the quadratic-character sum over [1, (p-1)/2]."""
    s = sum(jacobi(j, p) for j in range(1, (p - 1) // 2 + 1))
    return s // (2 - jacobi(2, p))


def test_class_number_examples():
    assert class_number_neg_p(7) == 1
    assert class_number_neg_p(23) == 3
    assert class_number_neg_p(31) == 3


def test_class_number_against_character_sum():
    for p in map(int, sieve_primes(400)):
        if p > 3 and p % 4 == 3:
            assert class_number_neg_p(p) == class_number_character_sum(p), p


def test_class_number_domain():
    with pytest.raises(ValueError):
        class_number_neg_p(13)  # 1 mod 4
    with pytest.raises(ValueError):
        class_number_neg_p(3)


def test_cauchy_class_number_congruence():
    # h(-p) matches -2 B_(p+1)/2 mod p for primes p = 3 mod 4
    for p in map(int, sieve_primes(200)):
        if p <= 3 or p % 4 != 3:
            continue
        b = bernoulli((p + 1) // 2)
        residue = b.numerator * pow(b.denominator, -1, p) % p
        assert class_number_neg_p(p) % p == (-2 * residue) % p, p


# ---------------------------------------------------------------- valuation


def test_valuation():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(5, 8), 2) == -3
    assert valuation(Fraction(-9, 5), 3) == 2
    with pytest.raises(ValueError):
        valuation(Fraction(0), 3)
