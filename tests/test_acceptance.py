"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py`. Each check has one home: a
check that a criterion makes is made here only, and the unit files hold only
checks that no criterion makes (domain errors, properties outside the scopes
below, and worked examples whose assertions no criterion makes). The criteria
and their scopes:

  1  the 50 theoretical values of Tables 1-3 from `conjectured_ratio`, each
     within 5e-6 of the published digits.
  2  exact density anchors: delta_g(3, 4, 1) and (3, 4, 3), rho_plus_one at
     ell = 2 and six odd ell, alpha_primroot and alpha_minus at (2, 1, 1).
  3  the 20 smallest base-2 G-irregular primes and their B-irregular subset.
  4  every experimental value of Tables 1-3 (the ell = 3 rows of Table 3) as
     an exact prime count at x = 100000, the scale at which they were taken.
  6  oracle equivalence for bases 2, 3, 5 and odd p < 500 unless stated:
     (a) the G, H- and H+ flags of `classify_prime` against the
         exact-Bernoulli scans of `exact_irregular_flags`;
     (b) Voronoi residues against exact H-values: the direct sums
         `power_sums_direct` at base ell, the kernel's own `power_sums(p)`
         at its multiplier g for every prime 5 <= p < 500, and the direct
         `voronoi_h` form for p < 300;
     (c) `valuation_h` against exact valuations where (p-1) | 2n, n <= 300;
     (d) the Kummer congruences with both subscripts <= 800, and the Lehmer
         congruences for ell = 2, 3 (every n < p for p < 100, n <= 40 above);
     (e) the six order-criterion scans against their order conditions, for
         p < 2000 and ell in {2, 3, 5, 7, 11}.
  7  the base-2 Wieferich primes below 10^7, and for ell = 2, 3, 5 below 10^6
     the base set as the disjoint union of the plus and minus sets.
  8  density algebra on seeded draws: the r_factor doubling identity (600
     draws), the delta_g halving identity (500), delta_minus_total as its
     component sum and against its direct table, with delta_g against its
     alternative table (500, plus 200 delta_g draws at ell = 2), and the case
     bounds and exact zero set of delta_g (500).
  9  exact sequences: von Staudt-Clausen for n <= 400, the generating-function
     coefficients to order 30 for ell = 2, 3, 5, the first five tangent
     numbers against the tan series, and h(-p) = -2 B_((p+1)/2) mod p for
     p < 200, p = 3 mod 4.

Criterion 5, which recomputed the base-2 and base-3 ratios of Table 1 at
x = 100000, is retired: criterion 4 checks the same two counts exactly, with
the same denominator.
"""

import math
import os
import time
from fractions import Fraction

from genocchi.classify import b_irregular_pairs, classify_prime, wieferich_search
from genocchi.density import (
    LinearInA,
    alpha_minus,
    alpha_primroot,
    conjectured_ratio,
    delta_g,
    delta_minus_total,
    r_factor,
    rho_plus_one,
)
from genocchi.exactseq import bernoulli
from genocchi.kernels import power_sums
from genocchi.modarith import jacobi, mult_order, primitive_root, sieve_primes

from density_oracles import (
    delta_g_alt,
    delta_g_case_bound,
    delta_minus_total_direct,
    random_triples,
)
from oracles import (
    ORDER_CRITERIA,
    class_number_neg_p,
    emma_lehmer_check,
    exact_irregular_flags,
    frac_mod,
    h_value,
    kummer_check,
    order_criterion_oracle,
    power_sums_direct,
    series_inverse,
    tangent_number,
    tangent_series,
    valuation,
    valuation_h,
    von_staudt_clausen_check,
    voronoi_h,
)

TOL = 5e-6

TABLE_1_THEORETICAL = {
    2: 0.659776, 3: 0.637095, 5: 0.653807, 7: 0.657010,
    11: 0.658736, 13: 0.659045, 17: 0.659358, 19: 0.659444,
}
TABLE_2_THEORETICAL_PLUS = {
    2: 0.596279, 3: 0.571007, 5: 0.559070, 7: 0.571007,
    11: 0.571007, 13: 0.569544, 17: 0.570170, 19: 0.571007,
}
TABLE_2_THEORETICAL_MINUS = {
    2: 0.603072, 3: 0.591731, 5: 0.600088, 7: 0.601689,
    11: 0.602552, 13: 0.602706, 17: 0.602863, 19: 0.602906,
}
TABLE_3_THEORETICAL = {
    (3, 3, 1): 0.818547, (3, 3, 2): 0.455642, (3, 4, 1): 0.727821, (3, 4, 3): 0.546368,
    (5, 3, 1): 0.723046, (5, 3, 2): 0.584569, (5, 4, 1): 0.761246, (5, 4, 3): 0.546368,
    (7, 3, 1): 0.725608, (7, 3, 2): 0.588412, (7, 4, 1): 0.767652, (7, 4, 3): 0.546368,
    (11, 7, 1): 0.700353, (11, 7, 2): 0.650412, (11, 7, 3): 0.650412, (11, 7, 4): 0.650412,
    (11, 7, 5): 0.650412, (11, 7, 6): 0.650412,
    (11, 15, 1): 0.770096, (11, 15, 2): 0.568929, (11, 15, 4): 0.712620,
    (11, 15, 7): 0.712620, (11, 15, 8): 0.568929, (11, 15, 11): 0.655144,
    (11, 15, 13): 0.712620, (11, 15, 14): 0.568929,
}
TABLE_1_EXPERIMENTAL = {
    2: 0.661593, 3: 0.635113, 5: 0.657214, 7: 0.660863,
    11: 0.660133, 13: 0.659612, 17: 0.662948, 19: 0.657110,
}
TABLE_2_EXPERIMENTAL = {
    ("Hplus", 2): 0.599145, ("Hplus", 3): 0.568390, ("Hplus", 5): 0.563699,
    ("Hminus", 2): 0.603315, ("Hminus", 3): 0.588198, ("Hminus", 5): 0.599458,
}
TABLE_3_EXPERIMENTAL_ELL3 = {
    (3, 1): 0.816097, (3, 2): 0.454337, (4, 1): 0.717473, (4, 3): 0.552752,
}

GOLDEN_G_IRREGULAR = [
    17, 31, 37, 41, 43, 59, 67, 73, 89, 97,
    101, 103, 109, 113, 127, 131, 137, 149, 151, 157,
]
GOLDEN_B_IRREGULAR = [37, 59, 67, 101, 103, 131, 149, 157]

ODD_PRIMES_500 = [int(p) for p in sieve_primes(500)[1:]]


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _budget(seconds, reference_cores):
    cores = os.cpu_count() or 1
    return seconds * max(1.0, reference_cores / cores)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_theoretical_columns():
    start = time.perf_counter()
    errs = []
    for ell, want in TABLE_1_THEORETICAL.items():
        got = conjectured_ratio("G", ell)
        if abs(got - want) >= TOL:
            errs.append(("T1", ell, got, want))
    for ell in TABLE_2_THEORETICAL_PLUS:
        gp = conjectured_ratio("Hplus", ell)
        gm = conjectured_ratio("Hminus", ell)
        if abs(gp - TABLE_2_THEORETICAL_PLUS[ell]) >= TOL:
            errs.append(("T2+", ell, gp, TABLE_2_THEORETICAL_PLUS[ell]))
        if abs(gm - TABLE_2_THEORETICAL_MINUS[ell]) >= TOL:
            errs.append(("T2-", ell, gm, TABLE_2_THEORETICAL_MINUS[ell]))
    for (ell, d, a), want in TABLE_3_THEORETICAL.items():
        got = conjectured_ratio("G", ell, d, a)
        if abs(got - want) >= TOL:
            errs.append(("T3", (ell, d, a), got, want))
    elapsed = time.perf_counter() - start
    assert not errs, errs
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"50 theoretical table values within {TOL} in {elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_exact_density_anchors():
    assert delta_g(3, 4, 1) == LinearInA.of(0, Fraction(6, 5))
    assert delta_g(3, 4, 3) == LinearInA.of(0, 2)
    assert rho_plus_one(2) == Fraction(17, 24)
    for ell in (3, 5, 7, 11, 13, 97):
        assert rho_plus_one(ell) == Fraction(2, 3)
    assert alpha_primroot(2, 1, 1) == LinearInA.of(0, 1)
    assert alpha_minus(2, 1, 1) == LinearInA.of(0, Fraction(3, 4))
    _report(2, "exact density anchors hold with exact equality")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_classifier_golden_list():
    start = time.perf_counter()
    hits = []
    for p in (int(q) for q in sieve_primes(1000)[1:]):
        if classify_prime(2, p).g_irregular:
            hits.append(p)
        if len(hits) == 20:
            break
    elapsed = time.perf_counter() - start
    assert hits == GOLDEN_G_IRREGULAR
    assert [p for p in hits if b_irregular_pairs(p)] == GOLDEN_B_IRREGULAR
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(3, f"20 smallest base-2 G-irregular primes + B-subset in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 4


def _published_count(value, denominator):
    """The unique integer k with round(k / denominator, 6) == value."""
    k = round(value * denominator)
    assert round(k / denominator, 6) == value, (value, denominator)
    return k


def test_criterion_4_desk_scale_reproduction(tmp_cache):
    """Every experimental value of Tables 1-3 (ell = 3 rows) as an exact prime count.

    The published values were taken at x = 10^5. Tables 1 and 2 divide by
    pi(10^5) = 9592; Table 3 divides by pi(10^5) / phi(d) = 4796, not by the
    size of the prime class. Each value v is read back as the integer k with
    round(k / D, 6) = v, and the program's count must equal k.
    """
    from genocchi.survey import SurveyConfig, run_survey

    start = time.perf_counter()
    x, pi_x = 10**5, 9592
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: program {got}, published {want}")

    for ell in TABLE_1_EXPERIMENTAL:
        variants = ("G", "Hminus", "Hplus") if ell in (2, 3, 5) else ("G",)
        cfg = SurveyConfig(ell=ell, x=x, variants=variants, cache_dir=tmp_cache, quiet=True)
        for row in run_survey(cfg):
            expect(f"ell={ell} {row.variant} denominator", row.count_primes, pi_x)
            if row.variant == "G":
                # The survey counts p = ell, G-irregular for ell > 3 since ell
                # divides every G_n; the published Table 1 leaves it out.
                count = row.count_irregular - (1 if ell > 3 else 0)
                want = _published_count(TABLE_1_EXPERIMENTAL[ell], pi_x)
            else:
                # p = ell is H-irregular only if B-irregular, and 2, 3, 5 are
                # B-regular: these counts need no mapping.
                count = row.count_irregular
                want = _published_count(TABLE_2_EXPERIMENTAL[(row.variant, ell)], pi_x)
            expect(f"ell={ell} {row.variant}", count, want)

    table_3_denominator = pi_x // 2  # phi(3) = phi(4) = 2
    published = {
        da: _published_count(v, table_3_denominator)
        for da, v in TABLE_3_EXPERIMENTAL_ELL3.items()
    }
    # The published (3,2) value is one prime above what the other published
    # numbers allow: (4,1) + (4,3) add up to Table 1's ell = 3 count and
    # (3,1) + (3,2) exceed it by one. The one reading on offer is that the
    # prime 2, the only prime of class (3,2) outside Table 1's numerator, was
    # counted there, although the definition covers odd primes only. The
    # program's count is held to the value the other published numbers fix.
    t1_ell3 = _published_count(TABLE_1_EXPERIMENTAL[3], pi_x)
    assert published[(4, 1)] + published[(4, 3)] == t1_ell3
    assert published[(3, 2)] == t1_ell3 - published[(3, 1)] + 1
    want_3 = {**published, (3, 2): t1_ell3 - published[(3, 1)]}
    cfg = SurveyConfig(
        ell=3, x=x, progressions=tuple(TABLE_3_EXPERIMENTAL_ELL3), variants=("G",),
        cache_dir=tmp_cache, quiet=True,
    )
    for row in run_survey(cfg):
        expect(f"ell=3 ({row.d},{row.a})", row.count_irregular, want_3[(row.d, row.a)])

    elapsed = time.perf_counter() - start
    assert not failures, "; ".join(failures)
    assert elapsed < _budget(300, reference_cores=4), f"took {elapsed:.1f}s"
    _report(4, f"18 experimental values of Tables 1-3 match as exact counts at x=10^5 "
               f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_oracle_equivalence(bernoulli_800):
    failures = []

    # (a) order-criterion classifiers vs exact-rational divisibility scans
    for p in ODD_PRIMES_500:
        for ell in (2, 3, 5):
            if p == ell:
                continue
            c = classify_prime(ell, p)
            flags = (c.g_irregular, c.h_minus_irregular, c.h_plus_irregular)
            if flags != exact_irregular_flags(ell, p):
                failures.append(("a", ell, p))

    # (b) Voronoi residues vs exact H-values on the whole valid domain: the direct
    # sums at base ell, and the kernel's own sums at its multiplier g
    for p in ODD_PRIMES_500:
        bases = [("b", ell, power_sums_direct(p, ell)) for ell in (2, 3, 5) if ell != p]
        if p >= 5:
            bases.append(("b-kernel", primitive_root(p), power_sums(p)))
        for tag, ell, sums in bases:
            for n in range(1, (p - 1) // 2):
                if (2 * n) % (p - 1) == 0:
                    continue
                residue = (-pow(ell, 2 * n - 1, p) * int(sums[n - 1])) % p
                if residue != frac_mod(h_value(ell, 2 * n, "full"), p):
                    failures.append((tag, ell, p, n))
        if p < 300:  # direct single-call form on the smaller primes
            for ell in (2, 3, 5):
                if p == ell:
                    continue
                for n in range(1, (p - 1) // 2):
                    if (2 * n) % (p - 1) == 0:
                        continue
                    if voronoi_h(ell, p, n) != frac_mod(h_value(ell, 2 * n, "full"), p):
                        failures.append(("b-direct", ell, p, n))

    # (c) closed-form valuations vs exact valuations, n <= 300
    for p in ODD_PRIMES_500:
        for ell in (2, 3, 5):
            if p == ell:
                continue
            for n in range(1, 301):
                if (2 * n) % (p - 1) != 0:
                    continue
                for variant in ("full", "minus", "plus"):
                    hv = h_value(ell, 2 * n, variant)
                    if hv == 0:
                        continue
                    if valuation_h(ell, p, n, variant) != valuation(hv, p):
                        failures.append(("c", ell, p, n, variant))

    # (d) Kummer and Lehmer congruences on their hypotheses
    for p in ODD_PRIMES_500:
        if p < 5:
            continue
        j_cap = min(p - 3, 800 - (p - 1))
        for j in range(2, j_cap + 1, 2):
            if j % (p - 1) == 0 or (j + p - 1) % (p - 1) == 0:
                continue
            if not kummer_check(p, j, j + (p - 1)):
                failures.append(("d-kummer", p, j))
        n_cap = p - 1 if p < 100 else 40
        for ell in (2, 3):
            if p == ell:
                continue
            for n in range(1, n_cap + 1):
                if ell == 2 and (2 * n) % (p - 1) == 2 % (p - 1):
                    continue
                if ell == 3 and ((2 * n) % (p - 1) == 0 or n < 2):
                    continue
                if not emma_lehmer_check(ell, p, n):
                    failures.append(("d-lehmer", ell, p, n))

    # (e) the six power-shift scans vs their order conditions, on wider ranges
    for p in (int(q) for q in sieve_primes(2000)[1:]):
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
                if order_criterion_oracle(ell, p, crit) != expected[crit]:
                    failures.append(("e", ell, p, crit))

    assert not failures, failures[:20]
    _report(6, "oracle equivalence suite (a)-(e) zero failures for p < 500 "
               "(direct Voronoi form p < 300, order scans p < 2000 and ell <= 11)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_wieferich():
    start = time.perf_counter()
    assert wieferich_search(2, 10**7, "base") == [1093, 3511]
    for ell in (2, 3, 5):
        base = set(wieferich_search(ell, 10**6, "base"))
        plus = set(wieferich_search(ell, 10**6, "plus"))
        minus = set(wieferich_search(ell, 10**6, "minus"))
        assert base == plus | minus and not plus & minus, ell
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    _report(7, f"base-2 scan to 10^7 and union property to 10^6 in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_density_property_suite():
    import random

    # doubling identity for the shared Euler factor
    rng = random.Random(101)
    checked = 0
    while checked < 600:
        d = rng.randrange(1, 900, 2)
        a = rng.randint(1, d)
        if math.gcd(a, d) != 1:
            continue
        if a % 2:
            assert r_factor(d, a) == r_factor(2 * d, a)
        else:
            assert r_factor(d, a) == r_factor(2 * d, a + d)
        checked += 1

    # residue-lift halving identity for delta_g
    rng = random.Random(103)
    checked = 0
    while checked < 500:
        ell = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
        d = rng.randint(1, 600)
        if d % 4 == 0:
            continue
        a = rng.randint(1, d)
        if math.gcd(a, d) != 1:
            continue
        d1 = 4 * d if d % 2 else 2 * d
        a1 = next(x for x in range(a, a + 4 * d + 1) if x % 4 == 1 and x % d == a % d)
        a3 = next(x for x in range(a, a + 4 * d + 1) if x % 4 == 3 and x % d == a % d)
        v = delta_g(ell, d, a)
        assert v + v == delta_g(ell, d1, a1) + delta_g(ell, d1, a3)
        checked += 1

    # component sum vs direct table, and the two delta_g presentations
    for ell, d, a in random_triples(500, seed=107, dmax=900):
        assert delta_minus_total(ell, d, a) == alpha_minus(ell, d, a) + alpha_primroot(ell, d, a)
        assert delta_minus_total(ell, d, a) == delta_minus_total_direct(ell, d, a)
        assert delta_g(ell, d, a) == delta_g_alt(ell, d, a)
    # ell = 2 has no component sum in a progression; its delta_g tables still agree
    for ell, d, a in random_triples(200, seed=12, ells=(2,)):
        assert delta_g(ell, d, a) == delta_g_alt(ell, d, a)

    # strict case bounds and the exact zero set
    for ell, d, a in random_triples(500, seed=109, dmax=900):
        value = delta_g(ell, d, a)
        numeric = float(value)
        assert 0.0 <= numeric <= 1.0
        bound = delta_g_case_bound(ell, d, a)
        zero_case = d % (4 * ell) == 0 and jacobi(a % ell, ell) == 1 and a % 4 == 1
        if bound is None:
            assert zero_case and value == LinearInA.of(0, 0)
        else:
            assert not zero_case and value != LinearInA.of(0, 0)
            assert numeric < float(bound)

    _report(8, "density algebra properties hold on 500+ generated instances each")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_exact_sequence_suite(bernoulli_800):
    for n in range(2, 402, 2):
        assert von_staudt_clausen_check(n), n

    order = 30
    fact = [1]
    for k in range(1, order + 2):
        fact.append(fact[-1] * k)
    base = series_inverse([Fraction(1, fact[k + 1]) for k in range(order + 1)], order)
    for ell in (2, 3, 5):
        for n in range(2, order + 1):
            coeff = base[n] * (1 - Fraction(ell) ** n)
            if n % 2:
                assert coeff == 0
            else:
                assert coeff == h_value(ell, n, "full") / fact[n - 1]

    tan, tfact = tangent_series(6)
    oracle = [tan[2 * n - 1] * tfact[2 * n - 1] for n in range(1, 6)]
    assert oracle == [1, 2, 16, 272, 7936]
    assert [tangent_number(n) for n in range(1, 6)] == oracle

    for p in (int(q) for q in sieve_primes(200)):
        if p <= 3 or p % 4 != 3:
            continue
        b = bernoulli((p + 1) // 2)
        assert class_number_neg_p(p) % p == (-2 * frac_mod(b, p)) % p, p

    _report(9, "exact-sequence suite (von Staudt-Clausen, series, tangent, Cauchy) clean")
