"""Independent oracles that exist only to check the genocchi pipeline.

Each one reaches a value of the package, or a fact it depends on, by another
route; none of them is on the path from a prime to a survey row.

Sequences (checks of `exactseq.bernoulli`):
  h_value                   the exact H-value (full, minus or plus) at an even
                            subscript: the exact side of the congruence
                            oracles below
  tangent_number            tangent numbers from the base-2 H-values, against
                            the tan series
  von_staudt_clausen_check  the Bernoulli denominators (von Staudt-Clausen),
                            with `divisors` enumerating the (p-1) | n
  class_number_neg_p        h(-p) by counting reduced forms, against
                            -2 * B_((p+1)/2) mod p
  valuation                 the exponent of a prime in a rational
  series_inverse            exact power-series reciprocal: the generating
                            function side of `h_value`
  tangent_series            tan t = sin t / cos t by exact series division:
                            the series side of `tangent_number`

Classification (checks of `classify`):
  exact_b_irregular_indices the indices 2n <= p-3 with p | numerator of B_2n,
                            from exact Bernoulli numbers: checks
                            `b_irregular_pairs`
  exact_irregular_flags     G, H- and H+ irregularity by the exact-Bernoulli
                            divisibility scans: checks `irregular_flags`
  order_criterion_oracle    brute-force scans of ell**n +- 1 mod p, one per
                            name in ORDER_CRITERIA: the divisibility sides of
                            the order thresholds in `irregular_flags`
  divides_sequence          p | sequence as classification flag or Wieferich
                            membership, against exact H-values
  valuation_h               closed-form p-adic valuations of H at (p-1) | 2n,
                            against `valuation` of `h_value`
  voronoi_h                 the Voronoi power-sum residue of H mod p, against
                            `h_value` reduced with `frac_mod`; it is the
                            congruence `b_irregular_pairs` is built on
  kummer_check              the Kummer congruences B_j/j = B_k/k mod p
  emma_lehmer_check         the half-range power-sum congruences mod p**2 for
                            ell = 2, 3

Kernel and emission:
  power_sums_direct         the Voronoi power sums evaluated directly in
                            O(p**2), folded by pairing j with p - j:
                            `kernels.power_sums(p)` must equal it bit for
                            bit at mult = primitive_root(p)
  parse_rows_csv            `emit_table` CSV read back into SurveyRows, for
                            the round-trip tests

Moved here from the test modules so that no test module imports another:
`series_inverse` and `tangent_series` (from test_exactseq) and
`exact_b_irregular_indices` (from test_classify). `exact_irregular_flags`
replaces three inline copies of the same scan.

Index conventions follow the sequences' natural subscripts: `h_value` and
`kummer_check` take the actual even subscript; `voronoi_h`, `valuation_h` and
`emma_lehmer_check` take the half-index n and refer to subscript 2n.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from genocchi.classify import PrimeClassification
from genocchi.exactseq import ConsistencyError, bernoulli
from genocchi.modarith import factorize, is_prime, jacobi
from genocchi.survey import SurveyRow


# ---------------------------------------------------------------- sequences


H_VARIANTS = ("full", "minus", "plus")


def h_value(ell: int, n: int, variant: str = "full") -> Fraction:
    """Exact H-value at even subscript n.

    full:  (1 - ell**n)     * B_n / n
    minus: (1 - ell**(n/2)) * B_n / n
    plus:  (1 + ell**(n/2)) * B_n / n
    """
    if n < 2 or n % 2:
        raise ValueError(f"subscript must be even and >= 2, got {n}")
    if variant == "full":
        factor = 1 - Fraction(ell) ** n
    elif variant == "minus":
        factor = 1 - Fraction(ell) ** (n // 2)
    elif variant == "plus":
        factor = 1 + Fraction(ell) ** (n // 2)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {H_VARIANTS}")
    return factor * bernoulli(n) / n


def series_inverse(den: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of 1/den(t) to the given order; den[0] must be 1."""
    assert den[0] == 1
    inv = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        inv[n] = -sum(den[k] * inv[n - k] for k in range(1, min(n, len(den) - 1) + 1))
    return inv


def tangent_series(order: int) -> tuple[list[Fraction], list[int]]:
    """tan t = sin t / cos t by exact power-series division.

    Returns the coefficients of t**0 .. t**(2*order) and the factorials
    0! .. (2*order + 1)!.
    """
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


def tangent_number(n: int) -> int:
    """n-th tangent number: the coefficient T_n in tan t = sum T_n t^(2n-1)/(2n-1)!.

    Evaluated as (-4)**n times the full H-value at subscript 2n for ell = 2;
    must come out a positive integer.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    value = Fraction(-4) ** n * h_value(2, 2 * n, "full")
    if value.denominator != 1 or value <= 0:
        raise ConsistencyError(f"tangent number T_{n} came out as {value}")
    return int(value)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def von_staudt_clausen_check(n: int) -> bool:
    """True iff B_n + sum of 1/p over primes p with (p-1) | n is an integer."""
    if n < 2 or n % 2:
        raise ValueError(f"subscript must be even and >= 2, got {n}")
    s = bernoulli(n)
    for d in divisors(n):
        if is_prime(d + 1):
            s += Fraction(1, d + 1)
    return s.denominator == 1


def class_number_neg_p(p: int) -> int:
    """Class number h(-p) of Q(sqrt(-p)) for a prime p = 3 mod 4, p > 3.

    Counts reduced primitive binary quadratic forms (a, b, c) of discriminant
    -p in the standard window |b| <= a <= c; a prime discriminant makes every
    form primitive.
    """
    if p <= 3 or p % 4 != 3 or not is_prime(p):
        raise ValueError(f"p must be a prime = 3 mod 4 greater than 3, got {p}")
    h = 0
    for b in range(1, math.isqrt(p // 3) + 1, 2):
        m = (b * b + p) // 4
        for a in range(b, math.isqrt(m) + 1):
            if m % a == 0:
                # forms (a, +-b, c); the sign collapses when |b| = a or a = c
                h += 1 if (a == b or a * a == m) else 2
    return h


def valuation(q: Fraction, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q."""
    if q == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    num = abs(q.numerator)
    while num % p == 0:
        num //= p
        v += 1
    if v:
        return v
    den = q.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------- classification


def exact_b_irregular_indices(p: int) -> list[int]:
    """Indices 2n in [2, p-3] with p dividing the numerator of B_2n."""
    return [n2 for n2 in range(2, p - 2, 2) if bernoulli(n2).numerator % p == 0]


def exact_irregular_flags(ell: int, p: int) -> tuple[bool, bool, bool]:
    """(G, H-, H+) irregularity of the odd prime p for base ell, by exact scans.

    Over the even indices 2n in [2, p-3], p is
      G-irregular   if p | B_2n or ell**2n = 1 mod p for some 2n,
      H--irregular  if p | B_2n or ell**n = 1 mod p for some 2n,
      H+-irregular  if p | B_2n or ell**n = -1 mod p for some 2n,
    with p | B_2n read off the exact numerator.

    Edge rules:
      p = 3      regular for every base, p = ell = 3 included: all three
                 flags are False (there is no index in [2, p-3] to scan).
      p = ell    for ell > 3, G-irregular, since ell divides every
                 ell-Genocchi number; the H flags follow B alone, because
                 ell**n = 0 mod p is never +-1.
    """
    if p == 3:
        return False, False, False
    b = bool(exact_b_irregular_indices(p))
    halves = range(1, (p - 1) // 2)  # n with 2n in [2, p-3]
    g = b or p == ell or any(pow(ell, 2 * n, p) == 1 for n in halves)
    h_minus = b or any(pow(ell, n, p) == 1 for n in halves)
    h_plus = b or any(pow(ell, n, p) == p - 1 for n in halves)
    return g, h_minus, h_plus


#: criterion name -> (offset in ell**n + offset, scan range flavor)
ORDER_CRITERIA = (
    "plus_any",  # p | ell**n + 1 for some n >= 1
    "plus_short",  # ... for some 1 <= n <= (p-3)/2
    "plus_skip_half",  # ... for some 1 <= n <= p-2 with n != (p-1)/2
    "minus_short",  # p | ell**n - 1 for some 1 <= n <= (p-3)/2
    "minus_skip_half",  # ... for some 1 <= n <= p-2 with n != (p-1)/2
    "square_short",  # p | ell**2n - 1 for some 1 <= n <= (p-3)/2
)


def order_criterion_oracle(ell: int, p: int, criterion: str) -> bool:
    """Brute-force divisor scans of ell**n +- 1 mod p over the stated ranges.

    Test oracle only: each scan is the left-hand side of an equivalence whose
    right-hand side is a condition on ord_p(ell) or ord_p(ell**2).
    """
    if p % ell == 0 or ell % p == 0:
        raise ValueError(f"ell={ell} and p={p} must be distinct primes")
    half = (p - 1) // 2
    if criterion == "plus_any":
        return _scan(ell, p, 1, range(1, p))
    if criterion == "plus_short":
        return _scan(ell, p, 1, range(1, half))
    if criterion == "plus_skip_half":
        return _scan(ell, p, 1, (n for n in range(1, p - 1) if n != half))
    if criterion == "minus_short":
        return _scan(ell, p, -1, range(1, half))
    if criterion == "minus_skip_half":
        return _scan(ell, p, -1, (n for n in range(1, p - 1) if n != half))
    if criterion == "square_short":
        return _scan(ell * ell % p, p, -1, range(1, half))
    raise ValueError(f"unknown criterion {criterion!r}")


def _scan(base: int, p: int, sign: int, exponents) -> bool:
    target = (-sign) % p  # base**n = -sign means p | base**n + sign
    value = 1
    last = 0
    for n in exponents:
        value = value * pow(base, n - last, p) % p
        last = n
        if value == target:
            return True
    return False


def divides_sequence(
    ell: int,
    p: int,
    variant: str,
    classification: PrimeClassification,
    wieferich: bool,
) -> bool:
    """Whether p divides the (full/minus/plus) sequence for base ell.

    The caller supplies the matching Wieferich membership (base set for full
    and minus, the plus set for plus).
    """
    if classification.ell != ell or classification.p != p:
        raise ConsistencyError(
            f"classification is for (ell={classification.ell}, p={classification.p}), "
            f"not (ell={ell}, p={p})"
        )
    if variant == "full":
        return classification.h_irregular or wieferich
    if variant == "minus":
        return classification.h_minus_irregular or wieferich
    if variant == "plus":
        return classification.h_plus_irregular or wieferich
    raise ValueError(f"unknown variant {variant!r}")


def _nu_pow_plus_minus(ell: int, e: int, p: int, sign: int) -> int:
    """nu_p(ell**e - 1) for sign=-1, nu_p(ell**e + 1) for sign=+1."""
    k = 0
    while pow(ell, e, p ** (k + 1)) == (-sign) % p ** (k + 1):
        k += 1
    return k


def valuation_h(ell: int, p: int, n: int, variant: str = "full") -> int:
    """Exact p-adic valuation of the H-value at subscript 2n when (p-1) | 2n.

    Closed forms (p odd prime, p not dividing ell, (p-1) | 2n):
      full:  nu_p(ell**(p-1) - 1) - 1
      minus: nu_p(ell**(p-1) - 1) - 1            if (p-1) | n
             nu_p(ell**((p-1)/2) - 1) - 1        if (p-1) does not divide n
                                                  and ell is a square mod p
             -1 - nu_p(n)                        otherwise
      plus:  nu_p(ell**((p-1)/2) + 1) - 1        if (p-1) does not divide n
                                                  and ell is a non-square mod p
             -1 - nu_p(n)                        otherwise
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if ell % p == 0:
        raise ValueError(f"p={p} divides ell={ell}")
    if (2 * n) % (p - 1) != 0:
        raise ValueError(f"(p-1)={p - 1} must divide 2n={2 * n}")
    half = (p - 1) // 2
    if variant == "full":
        return _nu_pow_plus_minus(ell, p - 1, p, -1) - 1
    if variant == "minus":
        if n % (p - 1) == 0:
            return _nu_pow_plus_minus(ell, p - 1, p, -1) - 1
        if jacobi(ell, p) == 1:
            return _nu_pow_plus_minus(ell, half, p, -1) - 1
        return -1 - _nu_int(n, p)
    if variant == "plus":
        if n % (p - 1) != 0 and jacobi(ell, p) == -1:
            return _nu_pow_plus_minus(ell, half, p, 1) - 1
        return -1 - _nu_int(n, p)
    raise ValueError(f"unknown variant {variant!r}")


def _nu_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def voronoi_h(ell: int, p: int, n: int) -> int:
    """Residue of the full H-value at subscript 2n mod p, via the Voronoi sum.

    Valid when (p-1) does not divide 2n and p does not divide ell:
    -ell**(2n-1) * sum_j j**(2n-1) * floor(j*ell/p) mod p.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if ell % p == 0:
        raise ValueError(f"p={p} divides ell={ell}")
    if (2 * n) % (p - 1) == 0:
        raise ValueError(f"congruence requires (p-1) not dividing 2n, got 2n={2 * n}")
    s = sum(pow(j, 2 * n - 1, p) * (j * ell // p) for j in range(1, p)) % p
    return (-pow(ell, 2 * n - 1, p) * s) % p


def frac_mod(q: Fraction, m: int) -> int:
    """Reduce an m-integral rational mod m (denominator must be a unit)."""
    if math.gcd(q.denominator, m) != 1:
        raise ValueError(f"denominator of {q} is not invertible mod {m}")
    return q.numerator * pow(q.denominator, -1, m) % m


def kummer_check(p: int, j: int, k: int) -> bool:
    """True iff B_j / j = B_k / k mod p; test oracle for exact Bernoulli data.

    Hypotheses: j = k mod (p-1) and neither is divisible by p-1.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if j % 2 or k % 2 or j < 2 or k < 2:
        raise ValueError("subscripts must be positive even integers")
    if (j - k) % (p - 1) != 0 or j % (p - 1) == 0 or k % (p - 1) == 0:
        raise ValueError(f"need j = k mod {p - 1} and both nonzero mod {p - 1}")
    lhs = frac_mod(bernoulli(j) / j, p)
    rhs = frac_mod(bernoulli(k) / k, p)
    return lhs == rhs


def emma_lehmer_check(ell: int, p: int, n: int) -> bool:
    """Verify the mod-p**2 half-range power-sum congruence for H at subscript 2n.

    ell = 2 (needs 2n != 2 mod p-1):        H_2n = -sum_{j<=(p-1)/2} (p-2j)**(2n-1)
    ell = 3 (needs (p-1) not | 2n, 2n >= 4): H_2n = -2 sum_{j<=floor(p/3)} (p-3j)**(2n-1)
    Test oracle only; evaluates the left side with exact rationals. The
    subscript-2 exclusion for ell = 3 is empirical: the mod-p**2 form fails
    there for every prime (it still holds mod p).
    """
    if ell not in (2, 3):
        raise ValueError(f"only ell in (2, 3) supported, got {ell}")
    if p <= 3 or not is_prime(p):
        raise ValueError(f"p must be a prime > 3, got {p}")
    if ell == 2 and (2 * n) % (p - 1) == 2 % (p - 1):
        raise ValueError(f"need 2n != 2 mod (p-1), got 2n={2 * n}")
    if ell == 3 and ((2 * n) % (p - 1) == 0 or n < 2):
        raise ValueError(f"need (p-1) not dividing 2n and 2n >= 4, got 2n={2 * n}")
    psq = p * p
    lhs = frac_mod(h_value(ell, 2 * n, "full"), psq)
    if ell == 2:
        rhs = -sum(pow(p - 2 * j, 2 * n - 1, psq) for j in range(1, (p - 1) // 2 + 1))
    else:
        rhs = -2 * sum(pow(p - 3 * j, 2 * n - 1, psq) for j in range(1, p // 3 + 1))
    return lhs == rhs % psq


# ---------------------------------------------------------------- kernel and emission


def power_sums_direct(p: int, mult: int) -> np.ndarray:
    """sum_{j<p} j**(2n-1) * floor(j*mult/p) mod p for 2n = 2 .. p-3, in O(p**2).

    The oracle for `kernels.power_sums`. Terms j and p - j share one power up
    to sign, so the half-range coefficient of j is the difference of their
    floors; the sums are then exact in uint64. The floors are taken in int64,
    so (p-1) * |mult| must stay below 2**63.
    """
    if p % 2 == 0 or not 3 <= p < 2**18:
        raise ValueError(f"p must be odd and in [3, 2**18), got {p}")
    if (p - 1) * abs(mult) >= 2**63:
        raise ValueError(f"(p-1)*|mult| must be below 2**63, got p={p} and mult={mult}")
    j = np.arange(1, (p + 1) // 2, dtype=np.int64)
    c = (((j * mult) // p - ((p - j) * mult) // p) % p).astype(np.uint64)
    j = j.astype(np.uint64)
    pw = j.copy()
    sq = (j * j) % p
    out = np.empty((p - 3) // 2, dtype=np.int64)
    for n in range(len(out)):
        # products < 2**36 and the half-range has < 2**17 terms: no overflow
        out[n] = int((c * pw).sum() % p)
        pw = (pw * sq) % p
    return out


def parse_rows_csv(text: str) -> list[SurveyRow]:
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("ell,"):
            continue
        ell, d, a, x, ci, cp, exp, conj, low, variant = line.split(",")
        rows.append(
            SurveyRow(
                ell=int(ell),
                d=int(d),
                a=int(a),
                x=int(x),
                count_irregular=int(ci),
                count_primes=int(cp),
                experimental=float(exp),
                conjectured=float(conj),
                lower_bound=float(low),
                variant=variant,
            )
        )
    return rows
