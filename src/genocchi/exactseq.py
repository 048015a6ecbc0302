"""Exact Bernoulli numbers and Genocchi-type integers over arbitrary-precision rationals.

Every operation takes the actual subscript of the sequence value: `bernoulli(n)`
is B_n and `genocchi_number(ell, n)` is ell * (1 - ell**n) * B_n. The exact
H-values and the identities that check these numbers (tangent numbers, von
Staudt-Clausen, class numbers, p-adic valuations) live in tests/oracles.py.
"""

from __future__ import annotations

import threading
from fractions import Fraction

__all__ = [
    "BernoulliCache",
    "bernoulli",
    "genocchi_number",
]


class ConsistencyError(RuntimeError):
    """An exact-arithmetic invariant failed; signals a bug, not bad input."""


class BernoulliCache:
    """Grow-only cache of exact B_0..B_N (convention B_1 = -1/2).

    Values come from the binomial recurrence

        B_m = -1/(m+1) * sum_{j<m} C(m+1, j) B_j,   B_0 = 1,

    with odd indices >= 3 skipped (they are zero). Fills are serialized
    behind a lock; reads of already-filled entries are lock-free. Growth is
    amortized doubling so interleaved callers do not trigger quadratic refills.
    """

    def __init__(self) -> None:
        self._values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
        self._lock = threading.Lock()

    @property
    def max_index(self) -> int:
        return len(self._values) - 1

    def fill_to(self, n: int) -> None:
        if n <= self.max_index:
            return
        with self._lock:
            target = max(n, 2 * self.max_index)
            values = self._values
            for m in range(len(values), target + 1):
                if m % 2 == 1:
                    values.append(Fraction(0))
                    continue
                # C(m+1, j) over even j, updated incrementally
                c = 1
                s = Fraction(0)
                for j in range(0, m, 2):
                    if j:
                        c = c * (m + 2 - j) * (m + 3 - j) // (j * (j - 1))
                    s += c * values[j]
                s += Fraction(-(m + 1), 2)  # j = 1 term with B_1 = -1/2
                values.append(-s / (m + 1))

    def get(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if n > self.max_index:
            self.fill_to(n)
        return self._values[n]


_CACHE = BernoulliCache()


def bernoulli(n: int, cache: BernoulliCache | None = None) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2)."""
    return (cache or _CACHE).get(n)


def genocchi_number(ell: int, n: int) -> int:
    """The integer ell * (1 - ell**n) * B_n.

    Raises ConsistencyError if the exact rational is not integral, which
    would indicate a Bernoulli bug rather than bad input.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    value = ell * (1 - Fraction(ell) ** n) * bernoulli(n)
    if value.denominator != 1:
        raise ConsistencyError(f"G_{n} for ell={ell} is not integral: {value}")
    return int(value)
