from fractions import Fraction

import pytest

from genocchi.classify import IrregularPair, b_irregular_pairs, classify_prime, wieferich_search
from genocchi.exactseq import ConsistencyError, bernoulli
from genocchi.modarith import mult_order, sieve_primes

from oracles import (
    ORDER_CRITERIA,
    divides_sequence,
    emma_lehmer_check,
    frac_mod,
    h_value,
    kummer_check,
    order_criterion_oracle,
    valuation,
    valuation_h,
    voronoi_h,
)

ODD_PRIMES_500 = [int(p) for p in sieve_primes(500)[1:]]


def exact_b_irregular_indices(p):
    """Oracle: indices 2n in [2, p-3] with p dividing the Bernoulli numerator."""
    return [n2 for n2 in range(2, p - 2, 2) if bernoulli(n2).numerator % p == 0]


# ---------------------------------------------------------------- b-irregular pairs


def test_b_irregular_pairs_examples():
    assert b_irregular_pairs(37) == [IrregularPair(37, 32)]
    assert b_irregular_pairs(31) == []
    for p in (59, 67, 101, 103, 131, 149, 157):
        assert b_irregular_pairs(p), p


def test_b_irregular_pairs_against_exact_bernoulli(bernoulli_800):
    for p in ODD_PRIMES_500:
        if p < 5:
            continue
        got = [pair.index for pair in b_irregular_pairs(p)]
        assert got == exact_b_irregular_indices(p), p


def test_b_irregular_pairs_domain():
    with pytest.raises(ValueError):
        b_irregular_pairs(3)
    with pytest.raises(ValueError):
        b_irregular_pairs(15)


# ---------------------------------------------------------------- classification


def test_classify_examples():
    assert classify_prime(2, 17, False).g_irregular
    assert not classify_prime(2, 13, False).g_irregular
    assert classify_prime(3, 13, False).g_irregular  # forced: 13 = 1 mod 4, (3|13) = 1


def test_classify_edge_rules():
    with pytest.raises(ValueError):
        classify_prime(2, 2, False)
    three = classify_prime(7, 3, False)
    assert not any(
        [three.b_irregular, three.g_irregular, three.h_irregular,
         three.h_minus_irregular, three.h_plus_irregular]
    )
    # p = ell > 3 is G-irregular; its H flags follow the B flag
    own = classify_prime(5, 5, False)
    assert own.g_irregular and not own.h_irregular
    own_b = classify_prime(5, 5, True)
    assert own_b.g_irregular and own_b.h_irregular and own_b.h_minus_irregular
    # p = ell = 3 stays regular
    assert not classify_prime(3, 3, False).g_irregular


def test_classification_invariants():
    for p in ODD_PRIMES_500:
        b = bool(b_irregular_pairs(p)) if p >= 5 else False
        for ell in (2, 3, 5):
            c = classify_prime(ell, p, b)
            assert c.h_irregular == (c.h_minus_irregular or c.h_plus_irregular), (ell, p)
            if p != ell:
                assert c.g_irregular == c.h_irregular
                assert c.ord_ell_sq == (c.ord_ell if c.ord_ell % 2 else c.ord_ell // 2)
                if p % 4 == 1 and c.jacobi_ell_p == 1:
                    assert c.g_irregular, (ell, p)


def test_classify_agrees_with_exact_divisibility(bernoulli_800):
    # order criteria vs exact-rational divisibility of the sequence values
    for p in ODD_PRIMES_500:
        pairs = b_irregular_pairs(p) if p >= 5 else []
        b = bool(pairs)
        for ell in (2, 3, 5):
            if p == ell:
                continue
            c = classify_prime(ell, p, b)
            g = hm = hp = False
            for n2 in range(2, p - 2, 2):
                bdiv = bernoulli(n2).numerator % p == 0
                g = g or bdiv or pow(ell, n2, p) == 1
                hm = hm or bdiv or pow(ell, n2 // 2, p) == 1
                hp = hp or bdiv or pow(ell, n2 // 2, p) == p - 1
            assert (c.g_irregular, c.h_minus_irregular, c.h_plus_irregular) == (g, hm, hp)


def test_h_regular_pair_rule():
    # B-regular, p = 3 mod 4, ord = (p-1)/2 implies both signed variants regular
    for p in ODD_PRIMES_500:
        if p < 5:
            continue
        b = bool(b_irregular_pairs(p))
        for ell in (2, 3, 5):
            if p == ell:
                continue
            c = classify_prime(ell, p, b)
            if not c.b_irregular and p % 4 == 3 and c.ord_ell == (p - 1) // 2:
                assert not c.h_minus_irregular and not c.h_plus_irregular


# ---------------------------------------------------------------- order criteria


def test_order_criterion_examples():
    # 7 | 3^3 + 1 = 28, so the any-range scan hits for base 3
    assert order_criterion_oracle(3, 7, "plus_any")
    # base 2 mod 7 has odd order 3: no power lands on -1
    assert not order_criterion_oracle(2, 7, "plus_any")
    # ord_7(2) = 3 equals (p-1)/2, so the short minus scan misses
    assert not order_criterion_oracle(2, 7, "minus_short")


def test_order_criteria_match_order_conditions():
    for p in [int(q) for q in sieve_primes(2000)[1:]]:
        for ell in (2, 3, 5, 7, 11):
            if p == ell:
                continue
            t = mult_order(ell, p)
            t_sq = mult_order(ell * ell % p, p)
            half = (p - 1) // 2
            expected = {
                "plus_any": t % 2 == 0,
                "plus_short": t % 2 == 0 and t != p - 1,
                "plus_skip_half": t % 2 == 0 and t != p - 1,
                "minus_short": t < half,
                "minus_skip_half": t < half,
                "square_short": t_sq < half,
            }
            for crit in ORDER_CRITERIA:
                assert order_criterion_oracle(ell, p, crit) == expected[crit], (ell, p, crit)


def test_order_criterion_domain():
    with pytest.raises(ValueError):
        order_criterion_oracle(7, 7, "plus_any")
    with pytest.raises(ValueError):
        order_criterion_oracle(2, 7, "bogus")


# ---------------------------------------------------------------- divides_sequence


def test_divides_sequence_disjunction():
    # 13 is regular for base 2, so only the Wieferich flag can make it a divisor
    c = classify_prime(2, 13, False)
    assert not c.h_irregular
    assert divides_sequence(2, 13, "full", c, wieferich=True)
    assert not divides_sequence(2, 13, "full", c, wieferich=False)
    # any irregular prime divides regardless of the flag
    c313 = classify_prime(3, 13, False)
    assert c313.h_minus_irregular
    assert divides_sequence(3, 13, "minus", c313, wieferich=False)
    # 1093 is base-2 Wieferich and also order-criterion irregular
    c1093 = classify_prime(2, 1093, False)
    assert divides_sequence(2, 1093, "full", c1093, wieferich=True)


def test_divides_sequence_mismatch():
    c = classify_prime(2, 17, False)
    with pytest.raises(ConsistencyError):
        divides_sequence(3, 17, "full", c, False)


def test_divides_sequence_small_p_exact_scan(bernoulli_800):
    # scan nu_p over one full period of the sequence: 1 <= n <= 2(p-1)
    ell = 3
    for p in [int(q) for q in sieve_primes(200)[1:]]:
        if p == ell:
            continue
        pairs = b_irregular_pairs(p) if p >= 5 else []
        c = classify_prime(ell, p, bool(pairs))
        for variant, wvariant in (("full", "minus"), ("minus", "minus"), ("plus", "plus")):
            w = (
                pow(ell, (p - 1) // 2, p * p) == (1 if wvariant == "minus" else p * p - 1)
                if variant != "full"
                else pow(ell, p - 1, p * p) == 1
            )
            got = divides_sequence(ell, p, variant, c, w)
            scan = any(
                valuation(h_value(ell, 2 * n, variant), p) >= 1
                for n in range(1, 2 * (p - 1) + 1)
                if h_value(ell, 2 * n, variant) != 0
            )
            assert got == scan, (p, variant)


# ---------------------------------------------------------------- valuations


def test_valuation_h_examples():
    assert valuation_h(2, 5, 2, "full") == 0  # 2^4 - 1 = 15 has one factor 5... none
    assert valuation_h(2, 1093, 1093 * 546, "full") >= 1  # classic base-2 pair


def test_valuation_h_against_exact(bernoulli_800):
    for p in ODD_PRIMES_500:
        for ell in (2, 3, 5):
            if p == ell:
                continue
            for n in range(1, 301):
                if (2 * n) % (p - 1) != 0:
                    continue
                for variant in ("full", "minus", "plus"):
                    got = valuation_h(ell, p, n, variant)
                    hv = h_value(ell, 2 * n, variant)
                    if hv == 0:
                        continue
                    assert got == valuation(hv, p), (ell, p, n, variant)


def test_valuation_h_domain():
    with pytest.raises(ValueError):
        valuation_h(2, 7, 2, "full")  # 6 does not divide 4
    with pytest.raises(ValueError):
        valuation_h(7, 7, 3, "full")


# ---------------------------------------------------------------- Voronoi residues


def test_voronoi_h_example():
    # full H at subscript 2 for base 2 is -1/4; mod 7 that is 5
    assert h_value(2, 2, "full") == Fraction(-1, 4)
    assert voronoi_h(2, 7, 1) == 5


def test_voronoi_h_base_two_specialization():
    # for base 2 the sum collapses to a half-range power sum
    for p in [int(q) for q in sieve_primes(60)[1:]]:
        for n in range(1, p - 1):
            if (2 * n) % (p - 1) == 0:
                continue
            direct = voronoi_h(2, p, n)
            half = sum(pow(j, 2 * n - 1, p) for j in range(1, (p - 1) // 2 + 1))
            assert direct == pow(2, 2 * n - 1, p) * half % p, (p, n)


def test_voronoi_h_matches_exact_values(bernoulli_800):
    for p in [int(q) for q in sieve_primes(300)[1:]]:
        for ell in (2, 3, 5):
            if p == ell:
                continue
            for n in range(1, (p - 1) // 2):
                if (2 * n) % (p - 1) == 0:
                    continue
                assert voronoi_h(ell, p, n) == frac_mod(h_value(ell, 2 * n, "full"), p)


def test_voronoi_h_domain():
    with pytest.raises(ValueError):
        voronoi_h(2, 7, 3)  # 6 | 6
    with pytest.raises(ValueError):
        voronoi_h(7, 7, 1)


# ---------------------------------------------------------------- Kummer congruence


def test_kummer_examples():
    assert kummer_check(5, 2, 6)
    assert kummer_check(7, 2, 8)
    assert kummer_check(11, 4, 14)


def test_kummer_sweep(bernoulli_800):
    for p in [int(q) for q in sieve_primes(200)[1:]]:
        if p < 5:
            continue
        for j in range(2, p - 2, 2):
            assert kummer_check(p, j, j + (p - 1)), (p, j)


def test_kummer_domain():
    with pytest.raises(ValueError):
        kummer_check(5, 2, 4)  # 2 != 4 mod 4
    with pytest.raises(ValueError):
        kummer_check(5, 4, 8)  # 4 = 0 mod 4


# ---------------------------------------------------------------- Wieferich sets


def test_wieferich_base_2():
    assert wieferich_search(2, 10**4, "base") == [1093, 3511]
    assert wieferich_search(2, 1000, "base") == []


def test_wieferich_base_3_against_bruteforce():
    limit = 10**4
    brute = [
        int(p)
        for p in sieve_primes(limit)[1:]
        if p != 3 and 3 ** (int(p) - 1) % int(p) ** 2 == 1
    ]
    assert wieferich_search(3, limit, "base") == brute


def test_wieferich_union_property():
    for ell in (2, 3, 5):
        base = set(wieferich_search(ell, 10**5, "base"))
        plus = set(wieferich_search(ell, 10**5, "plus"))
        minus = set(wieferich_search(ell, 10**5, "minus"))
        assert base == plus | minus
        assert not plus & minus


def test_wieferich_domain():
    with pytest.raises(ValueError):
        wieferich_search(2, 2, "base")
    with pytest.raises(ValueError):
        wieferich_search(2, 100, "bogus")


# ---------------------------------------------------------------- Lehmer congruences


def test_emma_lehmer_examples():
    assert emma_lehmer_check(2, 7, 2)
    assert emma_lehmer_check(3, 7, 2)


def test_emma_lehmer_sweep(bernoulli_800):
    for p in [int(q) for q in sieve_primes(60)[1:]]:
        if p <= 3:
            continue
        for n in range(1, p):
            for ell in (2, 3):
                if ell == 2 and (2 * n) % (p - 1) == 2 % (p - 1):
                    continue
                if ell == 3 and ((2 * n) % (p - 1) == 0 or n < 2):
                    continue
                assert emma_lehmer_check(ell, p, n), (ell, p, n)


def test_emma_lehmer_domain():
    with pytest.raises(ValueError):
        emma_lehmer_check(5, 7, 2)
    with pytest.raises(ValueError):
        emma_lehmer_check(2, 7, 1)  # 2n = 2 mod 6
    with pytest.raises(ValueError):
        emma_lehmer_check(3, 7, 3)  # 6 | 6
    with pytest.raises(ValueError):
        emma_lehmer_check(3, 11, 1)  # subscript 2 excluded for base 3
