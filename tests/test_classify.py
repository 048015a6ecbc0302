import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from genocchi import classify as classify_mod
from genocchi import kernels
from genocchi.classify import (
    b_irregular_pairs,
    classify_prime,
    irregular_flags,
    prime_orders,
    wieferich_search,
)
from genocchi.exactseq import ConsistencyError
from genocchi.kernels import MAX_KERNEL_PRIME
from genocchi.modarith import is_prime, mult_order, primitive_root, sieve_primes

from oracles import (
    divides_sequence,
    emma_lehmer_check,
    exact_b_irregular_indices,
    h_value,
    kummer_check,
    order_criterion_oracle,
    valuation,
    valuation_h,
    voronoi_h,
)

ODD_PRIMES_500 = [int(p) for p in sieve_primes(500)[1:]]


# ---------------------------------------------------------------- b-irregular pairs


def test_b_irregular_pairs_examples():
    assert b_irregular_pairs(37) == (32,)
    assert b_irregular_pairs(31) == ()


def test_b_irregular_pairs_against_exact_bernoulli(bernoulli_800):
    for p in ODD_PRIMES_500:
        if p < 5:
            continue
        got = list(b_irregular_pairs(p))
        assert got == exact_b_irregular_indices(p), p


def test_b_irregular_pairs_computes_one_primitive_root(monkeypatch):
    # the kernel's DFT generator is also its Voronoi multiplier: one root per prime,
    # counted through every genocchi module's binding of primitive_root
    calls = []

    def counting(p):
        calls.append(p)
        return primitive_root(p)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "genocchi"]
    for module in modules:
        if hasattr(module, "primitive_root"):
            monkeypatch.setattr(module, "primitive_root", counting)
    primes = [5, 37, 101, 20011]
    for p in primes:
        b_irregular_pairs(p)
    assert calls == primes


def test_a_second_primitive_root_gives_the_same_zero_set():
    # at the root r = g**k, gcd(k, p - 1) = 1, every operand of the convolution
    # changes and the zero set does not: 1 - r**(2n) is a unit for 2n <= p - 3.
    # A seeded sample across the kernel's range, both sides of 2**15 and its top
    rng = random.Random(4)
    sample = rng.sample([int(p) for p in sieve_primes(MAX_KERNEL_PRIME)[4:]], 27)
    zeros = 0
    for p in sorted({32749, 32771, 249989, *sample}):
        g = primitive_root(p)
        k = next(k for k in itertools.count(5) if math.gcd(k, p - 1) == 1)
        root = pow(g, k, p)
        assert root != g, p
        sums = kernels._power_sums_at(p, root)
        pairs = b_irregular_pairs(p)
        assert tuple(2 * (int(i) + 1) for i in np.flatnonzero(sums == 0)) == pairs, p
        zeros += len(pairs)
    assert zeros >= 5  # the sample holds irregular primes, so some zero is compared


def test_b_irregular_pairs_domain():
    with pytest.raises(ValueError):
        b_irregular_pairs(3)
    with pytest.raises(ValueError):
        b_irregular_pairs(15)


# ---------------------------------------------------------------- classification


def test_classify_examples():
    assert classify_prime(2, 17).g_irregular
    assert not classify_prime(2, 13).g_irregular
    assert classify_prime(3, 13).g_irregular  # forced: 13 = 1 mod 4, (3|13) = 1
    assert classify_prime(2, 37).b_irregular and not classify_prime(2, 5).b_irregular


def test_classify_edge_rules():
    with pytest.raises(ValueError):
        classify_prime(2, 2)
    three = classify_prime(7, 3)
    assert not any(
        [three.b_irregular, three.g_irregular, three.h_irregular,
         three.h_minus_irregular, three.h_plus_irregular]
    )
    # p = ell > 3 is G-irregular; its H flags follow the B flag
    own = classify_prime(5, 5)
    assert own.g_irregular and not own.h_irregular
    g, h, hm, hp = irregular_flags(5, [5], prime_orders(5, [5]), [True])
    assert g[0] and h[0] and hm[0] and hp[0]
    # 2 and 3 stay regular whatever their B flag, and so does p = ell = 3
    for ell in (3, 7):
        flags = irregular_flags(ell, [2, 3], [(0, 0, 0), *prime_orders(ell, [3])], [True, True])
        assert not any(mask.any() for mask in flags), ell
    assert not classify_prime(3, 3).g_irregular


TABLE_1_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def test_prime_orders_match_the_one_prime_oracle():
    # the array pass against mult_order, one prime at a time, and Euler's criterion
    odd = [int(p) for p in sieve_primes(10**5)[1:]]
    for ell in TABLE_1_BASES:
        rows = prime_orders(ell, odd)
        want = [
            (0, 0, 0) if p == ell else (
                mult_order(ell, p),
                mult_order(ell * ell % p, p),
                1 if pow(ell, (p - 1) // 2, p) == 1 else -1,
            )
            for p in odd
        ]
        assert rows.shape == (len(odd), 3) and rows.dtype == np.int64
        # the rows of p = 3 and, for odd ell, the zero row of p = ell included
        assert rows.tolist() == [list(w) for w in want], ell
        # a one-row input is the same computation, with its own factor sieve
        for p in {3, max(ell, 3), odd[-1]}:
            assert prime_orders(ell, [p]).tolist() == [list(want[odd.index(p)])], (ell, p)
    assert prime_orders(3, []).shape == (0, 3)
    with pytest.raises(ValueError, match="ell must be prime"):
        prime_orders(9, [5])


def test_prime_orders_of_many_bases_in_one_call():
    # one base per prime: the rows of each base's own call, the zero rows of
    # p = ell included, whatever the interleaving of the bases
    odd = [int(p) for p in sieve_primes(3000)[1:]]
    rng = random.Random(7)
    pairs = [(ell, p) for ell in TABLE_1_BASES for p in odd]
    rng.shuffle(pairs)
    ells, primes = map(list, zip(*pairs))
    want = {ell: dict(zip(odd, prime_orders(ell, odd).tolist())) for ell in TABLE_1_BASES}
    assert prime_orders(ells, primes).tolist() == [want[ell][p] for ell, p in pairs]
    with pytest.raises(ValueError, match="^ell must be prime, got 9$"):
        prime_orders([3, 3, 9, 5], [5, 7, 11, 13])


def test_classify_prime_checks_p_before_the_orders(monkeypatch):
    def no_orders(*args):
        raise AssertionError("orders computed for a p the checks should have refused")

    monkeypatch.setattr(classify_mod, "mult_orders", no_orders)
    above = next(n for n in range(MAX_KERNEL_PRIME + 1, 2 * MAX_KERNEL_PRIME) if is_prime(n))
    with pytest.raises(ValueError, match="kernel exactness bound"):
        classify_prime(2, above)
    for p in (9, 1, -7):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            classify_prime(2, p)


def test_classify_prime_checks_the_bound_before_primality(monkeypatch):
    # trial division grows as sqrt(p): near 10**18 it would take minutes to
    # reach an error the bound gives at once
    def no_primality(n):
        raise AssertionError(f"primality of {n} tested before the kernel bound")

    monkeypatch.setattr(classify_mod, "is_prime", no_primality)
    for p in (MAX_KERNEL_PRIME + 2, 10**18 + 3):
        with pytest.raises(ValueError, match=f"p={p} exceeds the kernel exactness bound"):
            classify_prime(2, p)


def test_classification_invariants():
    for p in ODD_PRIMES_500:
        for ell in (2, 3, 5):
            c = classify_prime(ell, p)
            assert c.h_irregular == (c.h_minus_irregular or c.h_plus_irregular), (ell, p)
            if p != ell:
                assert c.g_irregular == c.h_irregular
                assert c.ord_ell_sq == (c.ord_ell if c.ord_ell % 2 else c.ord_ell // 2)
                if p % 4 == 1 and c.jacobi_ell_p == 1:
                    assert c.g_irregular, (ell, p)


def test_h_regular_pair_rule():
    # B-regular, p = 3 mod 4, ord = (p-1)/2 implies both signed variants regular
    for p in ODD_PRIMES_500:
        if p < 5:
            continue
        for ell in (2, 3, 5):
            if p == ell:
                continue
            c = classify_prime(ell, p)
            if not c.b_irregular and p % 4 == 3 and c.ord_ell == (p - 1) // 2:
                assert not c.h_minus_irregular and not c.h_plus_irregular


# ---------------------------------------------------------------- order criteria


def test_order_criterion_domain():
    with pytest.raises(ValueError):
        order_criterion_oracle(7, 7, "plus_any")
    with pytest.raises(ValueError):
        order_criterion_oracle(2, 7, "bogus")


# ---------------------------------------------------------------- divides_sequence


def test_divides_sequence_disjunction():
    # 13 is regular for base 2, so only the Wieferich flag can make it a divisor
    c = classify_prime(2, 13)
    assert not c.h_irregular
    assert divides_sequence(2, 13, "full", c, wieferich=True)
    assert not divides_sequence(2, 13, "full", c, wieferich=False)
    # any irregular prime divides regardless of the flag
    c313 = classify_prime(3, 13)
    assert c313.h_minus_irregular
    assert divides_sequence(3, 13, "minus", c313, wieferich=False)
    # 1093 is base-2 Wieferich and also order-criterion irregular
    c1093 = classify_prime(2, 1093)
    assert divides_sequence(2, 1093, "full", c1093, wieferich=True)


def test_divides_sequence_mismatch():
    c = classify_prime(2, 17)
    with pytest.raises(ConsistencyError):
        divides_sequence(3, 17, "full", c, False)


def test_divides_sequence_small_p_exact_scan(bernoulli_800):
    # scan nu_p over one full period of the sequence: 1 <= n <= 2(p-1)
    ell = 3
    for p in [int(q) for q in sieve_primes(200)[1:]]:
        if p == ell:
            continue
        c = classify_prime(ell, p)
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


def test_voronoi_h_domain():
    with pytest.raises(ValueError):
        voronoi_h(2, 7, 3)  # 6 | 6
    with pytest.raises(ValueError):
        voronoi_h(7, 7, 1)


# ---------------------------------------------------------------- Kummer congruence


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


def test_wieferich_domain():
    with pytest.raises(ValueError):
        wieferich_search(2, 2, "base")
    with pytest.raises(ValueError):
        wieferich_search(2, 100, "bogus")


# ---------------------------------------------------------------- Lehmer congruences


def test_emma_lehmer_domain():
    with pytest.raises(ValueError):
        emma_lehmer_check(5, 7, 2)
    with pytest.raises(ValueError):
        emma_lehmer_check(2, 7, 1)  # 2n = 2 mod 6
    with pytest.raises(ValueError):
        emma_lehmer_check(3, 7, 3)  # 6 | 6
    with pytest.raises(ValueError):
        emma_lehmer_check(3, 11, 1)  # subscript 2 excluded for base 3
