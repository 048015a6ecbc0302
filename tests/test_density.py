import itertools
import math
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from genocchi import density as density_mod
from genocchi.density import (
    ARTIN,
    ARTIN_REFERENCE_DIGITS,
    RATIO_KINDS,
    SQRT_E,
    LinearInA,
    alpha_minus,
    alpha_primroot,
    conjectured_ratio,
    delta_g,
    delta_minus_total,
    lower_bound_ratio,
    r_factor,
    ratios,
    rho_plus_one,
)
from genocchi.modarith import mult_order, sieve_primes
from genocchi.survey import TABLE_PRESETS

from density_oracles import (
    ODD_ELLS,
    alpha_minus_full,
    alpha_primroot_full,
    artin_euler_product,
    delta_ell_sq_2,
    delta_g_alt,
    delta_minus_total_direct,
    delta_near_primroot,
)

TABLE_1_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


# ---------------------------------------------------------------- Artin constant


def test_artin_reference_digits_parse():
    assert abs(ARTIN - 0.3739558136192023) < 1e-15
    assert ARTIN_REFERENCE_DIGITS.startswith("0.37395581361920228805")


def test_artin_euler_product_matches_reference():
    computed = artin_euler_product(10**7)
    assert abs(computed - ARTIN) < 1e-7


# ---------------------------------------------------------------- LinearInA


def test_linear_in_a_algebra():
    x = LinearInA.of(Fraction(1, 2), Fraction(1, 3))
    y = LinearInA.of(0, Fraction(2, 3))
    assert x + y == LinearInA.of(Fraction(1, 2), 1)
    assert abs(float(y) - 2 * ARTIN / 3) < 1e-15
    assert str(y) == "2/3 * A"
    assert str(LinearInA.of(Fraction(3, 4), 0)) == "3/4"


# ---------------------------------------------------------------- R factor


def test_r_factor_examples():
    assert r_factor(1, 1) == 1
    assert r_factor(4, 1) == 1  # (1 - 1/2) * (1 + 1/1)
    assert r_factor(3, 2) == Fraction(6, 5)


def test_r_factor_rejects_noncoprime():
    with pytest.raises(ValueError):
        r_factor(6, 3)
    # the error names the a it was given, not a mod d
    with pytest.raises(ValueError, match="a=3 and d=3"):
        r_factor(3, 3)


# ---------------------------------------------------------------- exact anchors


def test_delta_g_exact_anchors():
    # the (3, 4, 1) and (3, 4, 3) anchors are criterion 2's
    assert delta_g(3, 1, 1) == LinearInA.of(0, Fraction(8, 5))


def test_near_primroot_anchors():
    assert delta_near_primroot(2, 1) == LinearInA.of(0, 1)
    assert delta_near_primroot(2, 2) == LinearInA.of(0, Fraction(3, 4))
    assert delta_near_primroot(5, 1) == LinearInA.of(0, Fraction(20, 19))
    assert delta_near_primroot(3, 2) == LinearInA.of(0, Fraction(4, 5))
    with pytest.raises(ValueError):
        delta_near_primroot(3, 5)


def test_rho_values():
    # criterion 2 checks ell = 2 and ell in (3, 5, 7, 11, 13, 97)
    assert rho_plus_one(19) == Fraction(2, 3)
    assert rho_plus_one(3, 1, 5) == Fraction(2, 3)  # d = 1 is the full prime set
    for d, a in ((4, 1), (4, 2), (3, 2)):  # known over all primes only
        with pytest.raises(ValueError, match="Hplus requires d = a = 1"):
            rho_plus_one(3, d, a)


def test_alpha_anchors():
    assert alpha_primroot(5, 1, 1) == LinearInA.of(0, Fraction(20, 19))
    assert alpha_primroot(3, 4, 3) == LinearInA.of(0, Fraction(4, 5))
    assert alpha_minus(5, 1, 1) == LinearInA.of(0, Fraction(27, 38))
    # half-order and square-half-order sets coincide on 3 mod 4 progressions
    assert alpha_minus(3, 4, 3) + alpha_primroot(3, 4, 3) == delta_g(3, 4, 3)


def test_alpha_primroot_zero_case():
    # ell = 1 mod 4, ell | d, a square mod ell: no primitive-root primes at all
    assert alpha_primroot(5, 5, 4) == LinearInA.of(0, 0)  # (4|5) = 1
    assert alpha_primroot(13, 26, 3) == LinearInA.of(0, 0)  # (3|13) = 1
    with pytest.raises(ValueError, match="odd"):
        alpha_primroot(2, 4, 1)


def test_delta_ell_sq_2_values():
    # the all-primes closed forms of the oracle module are delta_g at (ell, 1, 1)
    assert delta_ell_sq_2(2) == LinearInA.of(0, Fraction(3, 2))
    assert delta_ell_sq_2(3) == LinearInA.of(0, Fraction(8, 5))
    for ell in (2,) + ODD_ELLS:
        assert delta_ell_sq_2(ell) == delta_g(ell, 1, 1), ell


def test_lem_dens_consistency():
    for ell in (2,) + ODD_ELLS:
        assert alpha_primroot(ell, 1, 1) == delta_near_primroot(ell, 1), ell
        assert alpha_minus(ell, 1, 1) == delta_near_primroot(ell, 2), ell
        assert delta_minus_total(ell, 1, 1) == (
            delta_near_primroot(ell, 1) + delta_near_primroot(ell, 2)
        )
    for ell in (2,) + ODD_ELLS:
        assert delta_minus_total(ell, 1, 1) == delta_minus_total_direct(ell, 1, 1), ell
    for d, a in ((3, 2), (4, 1), (8, 3)):  # neither has an ell = 2 table in a progression
        for total in (delta_minus_total, delta_minus_total_direct):
            with pytest.raises(ValueError, match="progression"):
                total(2, d, a)


# ---------------------------------------------------------------- ell = 2 table


def test_delta_g_two_cases():
    assert delta_g(2, 1, 1) == LinearInA.of(0, Fraction(3, 2))
    assert delta_g(2, 3, 2) == LinearInA.of(0, Fraction(9, 5))  # 3/2 * R(3, 2) = 3/2 * 6/5
    assert delta_g(2, 4, 1) == LinearInA.of(0, 1)
    assert delta_g(2, 4, 3) == LinearInA.of(0, 2)
    assert delta_g(2, 8, 3) == LinearInA.of(0, 2)
    assert delta_g(2, 8, 1) == LinearInA.of(0, 0)
    assert delta_g(2, 16, 11) == LinearInA.of(0, 2)
    assert delta_g(2, 16, 9) == LinearInA.of(0, 0)  # 9 = 1 mod 8
    assert delta_g(2, 16, 1) == LinearInA.of(0, 0)


#: (d, a) classes with a positive ell = 2 density, and two where it is exactly zero
TWO_CLASSES = (
    (1, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4), (7, 3),
    (8, 3), (8, 5), (8, 7), (12, 7), (16, 11),
)
TWO_ZERO_CLASSES = ((8, 1), (16, 9))


def test_delta_g_two_matches_prime_counts():
    # share of primes p = a mod d, p <= 2*10^5, with ord_p(4) = (p-1)/2
    primes = [int(p) for p in sieve_primes(2 * 10**5)[1:]]
    hit = {p: mult_order(4, p) == (p - 1) // 2 for p in primes}
    for d, a in TWO_CLASSES + TWO_ZERO_CLASSES:
        members = [p for p in primes if p % d == a % d]
        share = sum(hit[p] for p in members) / len(members)
        want = float(delta_g(2, d, a))
        if (d, a) in TWO_ZERO_CLASSES:
            assert want == 0.0 and share == 0.0, (d, a, share)
            continue
        sigma = math.sqrt(want * (1 - want) / len(members))
        assert abs(share - want) < 4 * sigma, (d, a, share, want, (share - want) / sigma)


# ---------------------------------------------------------------- property suite


def _classes(dmax):
    """Every (d, a) with gcd(a, d) = 1 and 1 <= a <= d <= dmax."""
    return [(d, a) for d in range(1, dmax + 1) for a in range(1, d + 1) if math.gcd(a, d) == 1]


def test_derived_rows_match_the_full_tables():
    # the package keeps only the 4 | d rows and lifts every other class from them;
    # odd-ell delta_g comes from alpha_primroot and alpha_minus
    for ell in TABLE_1_BASES:
        for d, a in _classes(48):
            assert delta_g(ell, d, a) == delta_g_alt(ell, d, a), (ell, d, a)
            if ell == 2 and d != 1:  # no alpha closed form for base 2 in a progression
                continue
            assert alpha_primroot(ell, d, a) == alpha_primroot_full(ell, d, a), (ell, d, a)
            assert alpha_minus(ell, d, a) == alpha_minus_full(ell, d, a), (ell, d, a)
            assert delta_minus_total(ell, d, a) == delta_minus_total_direct(ell, d, a), (ell, d, a)


#: density -> whether ell's orders mod p, (ord_p(ell), ord_p(ell**2)), meet its condition
ORDER_CONDITIONS = {
    alpha_primroot: lambda p, o, o_sq: o == p - 1,
    alpha_minus: lambda p, o, o_sq: o == (p - 1) // 2,
    delta_g: lambda p, o, o_sq: o_sq == (p - 1) // 2,
}


def test_exact_zero_densities_have_no_primes():
    # where a density is exactly 0 the theory is exact, not asymptotic: no odd
    # prime p <= 10**5 of the class, other than ell (p | d is ruled out by
    # gcd(a, d) = 1), may meet the order condition
    primes = [int(p) for p in sieve_primes(10**5)[1:]]
    cells = zeros = 0
    for ell in TABLE_1_BASES:
        zero_cells = []
        for density, meets in ORDER_CONDITIONS.items():
            for d, a in _classes(24):
                try:
                    value = density(ell, d, a)
                except ValueError:  # alpha at ell = 2 in a progression
                    continue
                cells += 1
                if value == LinearInA.of(0, 0):
                    zero_cells.append((d, a, meets))
        zeros += len(zero_cells)
        for p in primes:
            members = [meets for d, a, meets in zero_cells if p % d == a % d]
            if p == ell or not members:
                continue
            o, o_sq = mult_order(ell, p), mult_order(ell * ell, p)
            assert not any(meets(p, o, o_sq) for meets in members), (ell, p)
    assert (cells, zeros) == (3962, 74)


def test_delta_g_rtwo_analogue_500():
    # the doubling identity transfers to the density itself
    rng = random.Random(19)
    checked = 0
    while checked < 500:
        ell = rng.choice((2,) + ODD_ELLS)
        d = rng.randrange(1, 700, 2)
        a = rng.randint(1, d)
        if math.gcd(a, d) != 1:
            continue
        if a % 2:
            assert delta_g(ell, d, a) == delta_g(ell, 2 * d, a)
        else:
            assert delta_g(ell, d, a) == delta_g(ell, 2 * d, a + d)
        checked += 1


def test_alpha_minus_zero_case():
    # 4*ell | d with ell a non-square mod a-side symbol: empty half-order set
    assert alpha_minus(3, 12, 5) == LinearInA.of(0, 0)  # (3/5) = -1
    assert alpha_minus(5, 20, 13) == LinearInA.of(0, 0)  # (5/13) = -1 via (13/5)
    with pytest.raises(ValueError, match="odd"):
        alpha_minus(2, 4, 1)


# ---------------------------------------------------------------- ratios


def test_lower_bound_reference_values():
    assert abs(lower_bound_ratio("G", 2) - (1 - 1.5 * ARTIN)) < 1e-12
    assert 0.4 < lower_bound_ratio("G", 2) < 0.44
    assert 0.4 < lower_bound_ratio("G", 3) < 0.44
    assert abs(lower_bound_ratio("G", 3) - 0.401671) < 5e-6
    # zero-density progressions give trivial lower bound 1
    assert lower_bound_ratio("G", 3, 12, 1) == 1.0


@pytest.mark.parametrize("ell", [1, 4, 9, 15])
def test_every_density_rejects_a_base_that_is_not_prime(ell):
    calls = [
        partial(alpha_primroot, ell, 1, 1),
        partial(alpha_minus, ell, 1, 1),
        partial(delta_g, ell, 1, 1),
        partial(delta_g, ell, 4, 1),
        partial(delta_minus_total, ell, 1, 1),
        partial(rho_plus_one, ell),
    ]
    calls += [
        partial(ratio, kind, ell, d, a)
        for ratio in (conjectured_ratio, lower_bound_ratio)
        for kind in RATIO_KINDS
        for d, a in ((1, 1), (4, 1))
        if kind != "Hplus" or d == 1
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime"):
            call()


@pytest.mark.parametrize("kind", RATIO_KINDS)
def test_full_prime_set_ignores_a(kind):
    # d = 1 is the full prime set whatever a is
    for ell in TABLE_1_BASES:
        for ratio in (conjectured_ratio, lower_bound_ratio):
            want = ratio(kind, ell, 1, 1)
            for a in range(2, 13):
                assert ratio(kind, ell, 1, a) == want, (ratio.__name__, ell, a)


def test_ratio_kind_validation():
    with pytest.raises(ValueError):
        conjectured_ratio("bogus", 3)
    with pytest.raises(ValueError):
        conjectured_ratio("G_progression", 3, 4, 1)
    with pytest.raises(ValueError):
        conjectured_ratio("G", 3, 4, 2)
    with pytest.raises(ValueError):
        conjectured_ratio("Hplus", 3, 4, 1)
    with pytest.raises(ValueError):
        lower_bound_ratio("Hminus", 2, 4, 1)


def _two_evaluations(kind, ell, d, a):
    """The (conjectured, lower bound) pair as two separate evaluations of delta."""
    delta = density_mod._delta_for_kind
    return (1.0 - float(delta(kind, ell, d, a)) / SQRT_E,
            max(0.0, 1.0 - float(delta(kind, ell, d, a))))


def test_ratios_equal_the_two_ratios_bit_for_bit():
    # the 50 rows of the reference tables, then seeded requests until 500 of them
    # have a closed form; each one without has the same error from every entry point
    table_rows = [(kind, ell, d, a) for presets in TABLE_PRESETS.values()
                  for ell, progressions, kinds in presets for d, a in progressions
                  for kind in kinds]
    assert len(table_rows) == 50
    rng = random.Random(28)
    seeded = ((rng.choice(RATIO_KINDS), rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23)),
               d := rng.randint(1, 40), rng.randint(1, d)) for _ in itertools.count())
    checked = rejected = 0
    for request in itertools.chain(table_rows, seeded):
        try:
            want = _two_evaluations(*request)
        except ValueError as exc:
            for call in (ratios, conjectured_ratio, lower_bound_ratio):
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    call(*request)
            rejected += 1
            continue
        got = ratios(*request)
        # bit for bit: the same floats by their hex form, not only ==
        assert [v.hex() for v in got] == [v.hex() for v in want], request
        assert (conjectured_ratio(*request), lower_bound_ratio(*request)) == got, request
        checked += 1
        if checked == 550:
            break
    assert rejected > 100
