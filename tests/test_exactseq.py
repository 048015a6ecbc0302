from fractions import Fraction

import pytest

from genocchi import exactseq
from genocchi.exactseq import bernoulli, genocchi_number
from genocchi.modarith import jacobi, sieve_primes

from oracles import (
    class_number_neg_p,
    h_value,
    tangent_number,
    valuation,
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


def test_memo_fills_exactly_to_n():
    # the memo grows only to the subscript asked for: every B_m filled ahead of it is wasted work
    n = len(exactseq._VALUES) + 10
    bernoulli(n)
    assert len(exactseq._VALUES) == n + 1
    bernoulli(n + 2)
    assert len(exactseq._VALUES) == n + 3
    assert bernoulli(10) == Fraction(5, 66)


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


# ---------------------------------------------------------------- tangent numbers


def test_tangent_numbers_positive_integers():
    for n in range(1, 30):
        assert tangent_number(n) > 0


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


# ---------------------------------------------------------------- valuation


def test_valuation():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(5, 8), 2) == -3
    assert valuation(Fraction(-9, 5), 3) == 2
    with pytest.raises(ValueError):
        valuation(Fraction(0), 3)
