"""Batched modular power sums: one exact O(p log p) chirp-convolution kernel.

The workhorse is `power_sums`: for an odd prime p and per-residue coefficients
c_1..c_(p-1)/2 it returns

    S(2n) = sum_j c_j * j**(2n-1)  mod p      for 2n = 2, 4, ..., p-3.

Write h = (p-1)/2 and fix a primitive root g. Every j in [1, h] is e_i * g**i
for exactly one i in [0, h) and one sign e_i = +-1, because g**(i+h) = -g**i.
The exponent 2n-1 is odd, so with a_i = e_i * c_j the sums become

    S(2n) = sum_i a_i * g**(i*(2n-1)),

a length-h DFT over F_p with generator g**2. Bluestein's identity
i*(2n-1) = (i+n)(i+n-1) - i**2 - n(n-1) turns it into one correlation:

    S(2n) = g**(-n(n-1)) * sum_i (a_i * g**(-i**2)) * g**((i+n)(i+n-1)),

the route of Buhler, Crandall, Ernvall and Metsankyla (Math. Comp. 1993) and
Buhler and Harvey (Math. Comp. 2011) to the irregular primes.

Exactness: the correlation is computed with numpy's float64 `rfft`/`irfft`.
Every residue is below p <= MAX_KERNEL_PRIME < 2**18, so it splits into two
9-bit limbs, and each of the three limb products (lo*lo, lo*hi + hi*lo,
hi*hi) sums fewer than 2**17 terms below 2**19 each: every exact value stays
below 2**36, far inside float64's 53-bit integer range. The kernel checks
that each transformed value lies within 1/4 of an integer before rounding and
raises ArithmeticError otherwise, so it never returns a wrong residue
silently. The tests compare it bit for bit with a direct O(p**2) evaluation,
`power_sums_numpy` in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .modarith import primitive_root

__all__ = [
    "MAX_KERNEL_PRIME",
    "half_coefficients",
    "power_sums",
]

#: largest supported prime: residues must split into two 9-bit limbs
MAX_KERNEL_PRIME = 250_000

_LIMB_BITS = 9
_LIMB_MASK = (1 << _LIMB_BITS) - 1
#: largest accepted distance from an integer before rounding a transform value
_MAX_ROUNDING_ERROR = 0.25


def half_coefficients(p: int, mult: int) -> np.ndarray:
    """Folded coefficient vector for the power sums of an odd prime p.

    Pairing j with p - j turns sum_{j<p} j**(2n-1) * floor(j*mult/p) into a
    half-range sum with coefficients (2*floor(j*mult/p) - mult + 1) mod p.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    j = np.arange(1, (p + 1) // 2, dtype=np.int64)
    floors = (j * mult) // p
    return ((2 * floors - mult + 1) % p).astype(np.int64)


def power_sums(p: int, coeffs: np.ndarray) -> np.ndarray:
    """S(2n) mod p for 2n = 2 .. p-3, by one exact chirp convolution."""
    _check_kernel_args(p, coeffs)
    half = (p - 1) // 2
    if half < 2:
        return np.empty(0, dtype=np.int64)
    order = p - 1
    pw = _powers(primitive_root(p), order, p)  # pw[e] = g**e; raises for composite p
    j = pw[:half]
    flip = j > half
    u = np.asarray(coeffs, dtype=np.int64)[np.where(flip, p - j, j) - 1] % p
    np.negative(u, out=u, where=flip)  # a_i = e_i * c_j, reduced below
    del j, flip
    # pw[-e] = g**(order - e) = g**-e for 0 <= e < order
    u *= pw[-_exponents(0, half, 0, order)]
    u %= p
    v = pw[_exponents(0, p - 2, 1, order)]
    # w_n = sum_i u_i v_(i+n) sits at index n + half - 1 of conv(u reversed, v)
    w = _convolve_mod(u[::-1], v, p, half, 2 * half - 1)
    w *= pw[-_exponents(1, half, 1, order)]
    w %= p
    return w


def _exponents(first: int, stop: int, shift: int, order: int) -> np.ndarray:
    """t * (t - shift) mod order for t = first .. stop-1."""
    e = np.arange(first, stop, dtype=np.int64)
    e *= e - shift
    e %= order
    return e


def _powers(g: int, count: int, p: int) -> np.ndarray:
    """g**e mod p for e = 0 .. count-1, by doubling blocks."""
    out = np.empty(count, dtype=np.int64)
    out[0] = 1
    filled = 1
    while filled < count:
        step = min(filled, count - filled)
        out[filled : filled + step] = out[:step] * pow(g, filled, p) % p
        filled += step
    return out


def _convolve_mod(x: np.ndarray, y: np.ndarray, p: int, start: int, stop: int) -> np.ndarray:
    """Entries start..stop-1 of the linear convolution x * y, reduced mod p.

    The cyclic length only has to hold y: every wanted index m >= len(x) - 1
    sums x[t] * y[m - t] with 0 <= m - t < len(y), so nothing wraps onto it.
    Operands are residues mod p, split into 9-bit limbs; at most four spectra
    are alive at a time.
    """
    length = _fast_length(max(len(y), stop))
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def exact(spectrum: np.ndarray) -> np.ndarray:
        vals = irfft(spectrum, length)[start:stop]
        rounded = np.rint(vals)
        vals -= rounded
        err = float(np.max(np.abs(vals, out=vals), initial=0.0))
        if err > _MAX_ROUNDING_ERROR:
            raise ArithmeticError(
                f"FFT rounding error {err:.3g} exceeds {_MAX_ROUNDING_ERROR} at p={p}"
            )
        return rounded.astype(np.int64) % p

    x_lo = rfft(x & _LIMB_MASK, length)
    y_lo = rfft(y & _LIMB_MASK, length)
    lo = exact(x_lo * y_lo)
    x_hi = rfft(x >> _LIMB_BITS, length)
    mid = y_lo
    mid *= x_hi
    y_hi = rfft(y >> _LIMB_BITS, length)
    x_lo *= y_hi
    mid += x_lo
    del x_lo
    x_hi *= y_hi
    del y_hi
    hi = exact(x_hi)
    del x_hi
    mid = exact(mid)
    return (hi * pow(2, 2 * _LIMB_BITS, p) + mid * (1 << _LIMB_BITS) + lo) % p


def _fast_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: lengths pocketfft transforms fastest."""
    best = 1 << max(n - 1, 0).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _check_kernel_args(p: int, coeffs: np.ndarray) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_KERNEL_PRIME:
        raise ValueError(f"p={p} exceeds the kernel exactness bound {MAX_KERNEL_PRIME}")
    if coeffs.shape[0] != (p - 1) // 2:
        raise ValueError(f"expected {(p - 1) // 2} coefficients, got {coeffs.shape[0]}")
