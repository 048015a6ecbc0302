"""Per-prime irregularity classification and its independent congruence oracles.

The fast path classifies a prime from multiplicative orders plus a
B-irregularity flag. The rules (order thresholds and the p = 3 and p = ell
edge cases) live in one function, `classify_from_orders`. `prime_orders`
checks its inputs and computes the orders for it, `classify_prime` joins the
two, and the survey feeds it orders read from its cache. Everything else in
this module exists to check that path:
congruence oracles (Voronoi, Kummer, Lehmer), exact p-adic valuation formulas,
and brute-force divisor scans.

Index conventions follow the sequences' natural subscripts: `voronoi_h`,
`valuation_h` and `emma_lehmer_check` take the half-index n and refer to the
sequence value at subscript 2n; `kummer_check` takes actual even subscripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exactseq import ConsistencyError, bernoulli, h_value
from .kernels import half_coefficients, power_sums
from .modarith import is_prime, jacobi, mult_order, primitive_root, sieve_primes

__all__ = [
    "IrregularPair",
    "PrimeClassification",
    "b_irregular_pairs",
    "classify_prime",
    "classify_from_orders",
    "prime_orders",
    "order_criterion_oracle",
    "ORDER_CRITERIA",
    "divides_sequence",
    "valuation_h",
    "voronoi_h",
    "kummer_check",
    "wieferich_search",
    "emma_lehmer_check",
    "frac_mod",
]


class IrregularPair(NamedTuple):
    p: int
    index: int  # even subscript 2n with p dividing the Bernoulli numerator


@dataclass(frozen=True)
class PrimeClassification:
    """Orders, quadratic character, and the five irregularity flags of a prime.

    When p == ell the order fields and jacobi_ell_p are 0 (undefined case,
    handled by the edge rules in `classify_from_orders`).
    """

    p: int
    ell: int
    ord_ell: int
    ord_ell_sq: int
    jacobi_ell_p: int
    b_irregular: bool
    g_irregular: bool
    h_irregular: bool
    h_minus_irregular: bool
    h_plus_irregular: bool


def b_irregular_pairs(p: int) -> list[IrregularPair]:
    """All even 2n in [2, p-3] whose Bernoulli numerator is divisible by p.

    Uses the Voronoi congruence with a primitive root g in place of the
    multiplier, so the (1 - g**2n) factor is a unit for every index in range
    and p | B_2n collapses to a vanishing power sum mod p.
    """
    if p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = primitive_root(p)
    sums = power_sums(p, half_coefficients(p, g))
    return [IrregularPair(p, 2 * (int(i) + 1)) for i in np.flatnonzero(sums == 0)]


def prime_orders(ell: int, p: int) -> tuple[int, int, int]:
    """(ord_p(ell), ord_p(ell**2), (ell/p)) for a prime ell and an odd prime p.

    One order computation gives all three: with o = ord_p(ell),
    ord_p(ell**2) = o / gcd(o, 2), and by Euler's criterion (ell/p) = 1
    exactly when o divides (p-1)/2. All three are 0 when p = ell.
    """
    if p == 2:
        raise ValueError("2 is never classified; the definitions cover odd primes")
    if not is_prime(p) or not is_prime(ell):
        raise ValueError(f"both ell={ell} and p={p} must be prime")
    if p == ell:
        return (0, 0, 0)
    o = mult_order(ell, p)
    return o, o // math.gcd(o, 2), 1 if (p - 1) // 2 % o == 0 else -1


def classify_prime(ell: int, p: int, b_irregular: bool) -> PrimeClassification:
    """Classify an odd prime p for base ell from its orders and the supplied B-flag."""
    return classify_from_orders(ell, p, prime_orders(ell, p), b_irregular)


def classify_from_orders(
    ell: int, p: int, orders: tuple[int, int, int], b_irregular: bool
) -> PrimeClassification:
    """The classification rules, applied to (ord_p(ell), ord_p(ell**2), (ell/p)).

    Criteria for p distinct from ell and p > 3:
      G, H:  B-irregular or ord_p(ell**2) < (p-1)/2
      H-:    B-irregular or ord_p(ell)    < (p-1)/2
      H+:    B-irregular or ord_p(ell) even and not p-1
    Edge rules: p = 3 is regular for every variant; p = ell > 3 is
    G-irregular while its H flags reduce to the B-flag, and its orders are
    recorded as 0. Inputs are not validated (see `classify_prime`).
    """
    if p == ell:
        b = b_irregular and p > 3
        return PrimeClassification(p, ell, 0, 0, 0, b, p > 3, b, b, b)
    ord_ell, ord_sq, jac = orders
    if p == 3:
        return PrimeClassification(p, ell, ord_ell, ord_sq, jac, False, False, False, False, False)
    b = b_irregular
    half = (p - 1) // 2
    g = b or ord_sq < half
    hm = b or ord_ell < half
    hp = b or (ord_ell % 2 == 0 and ord_ell != p - 1)
    return PrimeClassification(p, ell, ord_ell, ord_sq, jac, b, g, g, hm, hp)


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


def wieferich_search(ell: int, limit: int, variant: str = "base") -> list[int]:
    """Odd primes p <= limit (p not dividing ell) in the requested Wieferich set.

    base:  ell**(p-1)     = 1 mod p**2
    minus: ell**((p-1)/2) = 1 mod p**2
    plus:  ell**((p-1)/2) = -1 mod p**2
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if variant not in ("base", "plus", "minus"):
        raise ValueError(f"unknown variant {variant!r}")
    hits: list[int] = []
    for p in sieve_primes(limit)[1:]:  # skip 2
        p = int(p)
        if ell % p == 0:
            continue
        psq = p * p
        if variant == "base":
            ok = pow(ell, p - 1, psq) == 1
        elif variant == "minus":
            ok = pow(ell, (p - 1) // 2, psq) == 1
        else:
            ok = pow(ell, (p - 1) // 2, psq) == psq - 1
        if ok:
            hits.append(p)
    return hits


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
