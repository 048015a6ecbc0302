import math
import random
from fractions import Fraction
from functools import partial

import pytest

from genocchi.density import (
    ARTIN,
    ARTIN_REFERENCE_DIGITS,
    RATIO_KINDS,
    LinearInA,
    alpha_minus,
    alpha_primroot,
    conjectured_ratio,
    delta_g,
    delta_minus_total,
    lower_bound_ratio,
    r_factor,
    rho_plus_one,
)
from genocchi.modarith import jacobi, mult_order, sieve_primes

from density_oracles import (
    artin_euler_product,
    delta_ell_sq_2,
    delta_g_alt,
    delta_minus_total_direct,
    delta_near_primroot,
)

ODD_ELLS = (3, 5, 7, 11, 13, 17, 19, 23, 29)
TABLE_1_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def random_triples(count, seed, ells=ODD_ELLS, dmax=600):
    """Deterministic stream of valid (ell, d, a) with gcd(a, d) = 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.choice(ells)
        d = rng.randint(1, dmax)
        a = rng.randint(1, d)
        if math.gcd(a, d) == 1:
            out.append((ell, d, a))
    return out


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
    assert x.scale(2) == LinearInA.of(1, Fraction(2, 3))
    assert abs(y.value() - 2 * ARTIN / 3) < 1e-15
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


def test_r_factor_doubling_identity():
    # for odd d: R(d, a) = R(2d, a) when a is odd, else R(2d, a + d)
    rng = random.Random(7)
    checked = 0
    while checked < 600:
        d = rng.randrange(1, 800, 2)
        a = rng.randint(1, d)
        if math.gcd(a, d) != 1:
            continue
        if a % 2:
            assert r_factor(d, a) == r_factor(2 * d, a), (d, a)
        else:
            assert r_factor(d, a) == r_factor(2 * d, a + d), (d, a)
        checked += 1


# ---------------------------------------------------------------- exact anchors


def test_delta_g_exact_anchors():
    assert delta_g(3, 4, 1) == LinearInA.of(0, Fraction(6, 5))
    assert delta_g(3, 4, 3) == LinearInA.of(0, 2)
    assert delta_g(3, 1, 1) == LinearInA.of(0, Fraction(8, 5))


def test_near_primroot_anchors():
    assert delta_near_primroot(2, 1) == LinearInA.of(0, 1)
    assert delta_near_primroot(2, 2) == LinearInA.of(0, Fraction(3, 4))
    assert delta_near_primroot(5, 1) == LinearInA.of(0, Fraction(20, 19))
    assert delta_near_primroot(3, 2) == LinearInA.of(0, Fraction(4, 5))
    with pytest.raises(ValueError):
        delta_near_primroot(3, 5)


def test_rho_values():
    assert rho_plus_one(2) == Fraction(17, 24)
    assert rho_plus_one(3) == Fraction(2, 3)
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
    assert alpha_minus(3, 4, 3) == delta_g(3, 4, 3) + alpha_primroot(3, 4, 3).scale(-1)


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
        want = delta_g(2, d, a).value()
        if (d, a) in TWO_ZERO_CLASSES:
            assert want == 0.0 and share == 0.0, (d, a, share)
            continue
        sigma = math.sqrt(want * (1 - want) / len(members))
        assert abs(share - want) < 4 * sigma, (d, a, share, want, (share - want) / sigma)


# ---------------------------------------------------------------- property suite


def test_delta_g_table_agreement_500():
    for ell, d, a in random_triples(500, seed=11) + random_triples(200, seed=12, ells=(2,)):
        assert delta_g(ell, d, a) == delta_g_alt(ell, d, a), (ell, d, a)


def test_c2_is_component_sum_500():
    # the component sum against the independent direct coefficient table
    for ell, d, a in random_triples(500, seed=13):
        total = delta_minus_total(ell, d, a)
        assert total == alpha_minus(ell, d, a) + alpha_primroot(ell, d, a)
        assert total == delta_minus_total_direct(ell, d, a), (ell, d, a)


def test_delta_g_crt_halving_500():
    checked = 0
    rng = random.Random(17)
    while checked < 500:
        ell = rng.choice((2,) + ODD_ELLS)
        d = rng.randint(1, 500)
        if d % 4 == 0:
            continue
        a = rng.randint(1, d)
        if math.gcd(a, d) != 1:
            continue
        d1 = 4 * d if d % 2 else 2 * d
        lifts = [x for x in range(1, 4 * d + 1) if x % d == a % d or (d == 1)]
        a1 = next(x for x in range(a, 4 * d + a + 1) if x % 4 == 1 and x % d == a % d)
        a3 = next(x for x in range(a, 4 * d + a + 1) if x % 4 == 3 and x % d == a % d)
        left = delta_g(ell, d, a).scale(2)
        right = delta_g(ell, d1, a1) + delta_g(ell, d1, a3)
        assert left == right, (ell, d, a)
        checked += 1


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


def _case_bound(ell, d, a):
    ell_div = d % ell == 0
    four_div = d % 4 == 0
    s = jacobi(a % ell, ell) if ell_div else None
    if (four_div and a % 4 == 3) or (ell_div and s == -1):
        return Fraction(1)
    if not ell_div and not four_div:
        return Fraction(3 - Fraction(2, ell * (ell - 1)), 4)
    if not ell_div:
        return Fraction(1, 2)
    if not four_div:
        return Fraction(1, 3) if ell == 3 else Fraction(1, 2)
    return None  # remaining case: density is exactly zero


def test_delta_g_case_bounds_and_zero_set_500():
    for ell, d, a in random_triples(500, seed=23, dmax=900):
        value = delta_g(ell, d, a)
        numeric = value.value()
        assert 0.0 <= numeric <= 1.0
        bound = _case_bound(ell, d, a)
        zero_case = (
            d % (4 * ell) == 0 and jacobi(a % ell, ell) == 1 and a % 4 == 1
        )
        if bound is None:
            assert zero_case and value == LinearInA.of(0, 0)
        else:
            assert not zero_case
            assert numeric < float(bound), (ell, d, a, numeric, bound)
            assert value != LinearInA.of(0, 0)


def test_alpha_minus_zero_case():
    # 4*ell | d with ell a non-square mod a-side symbol: empty half-order set
    assert alpha_minus(3, 12, 5) == LinearInA.of(0, 0)  # (3/5) = -1
    assert alpha_minus(5, 20, 13) == LinearInA.of(0, 0)  # (5/13) = -1 via (13/5)
    with pytest.raises(ValueError, match="odd"):
        alpha_minus(2, 4, 1)


# ---------------------------------------------------------------- ratios


def test_conjectured_ratio_reference_values():
    assert abs(conjectured_ratio("G", 2) - 0.659776) < 5e-6
    assert abs(conjectured_ratio("Hplus", 3) - 0.571007) < 5e-6
    assert abs(conjectured_ratio("G", 3, 3, 1) - 0.818547) < 5e-6
    assert abs(conjectured_ratio("G", 3, 4, 3) - 0.546368) < 5e-6


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
