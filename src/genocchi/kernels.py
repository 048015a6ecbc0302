"""Batched modular power sums: one exact O(p log p) chirp-convolution kernel.

The workhorse is `power_sums(p)`: for an odd prime p and its least primitive
root g it returns the Voronoi sums at the multiplier g,

    S(2n) = sum_{j=1}^{p-1} j**(2n-1) * floor(j*g/p)  mod p
                                               for 2n = 2, 4, ..., p-3.

Pairing j with p - j folds it onto the half range j <= h = (p-1)/2: the
exponent is odd and floor((p-j)*g/p) = g - 1 - floor(j*g/p), so

    S(2n) = sum_{j<=h} c_j * j**(2n-1),   c_j = 2*floor(j*g/p) - g + 1.

The same g generates the DFT. Every j in [1, h] is e_i * g**i
for exactly one i in [0, h) and one sign e_i = +-1, because g**(i+h) = -g**i.
The exponent 2n-1 is odd, so with a_i = e_i * c_j the sums become

    S(2n) = sum_i a_i * g**(i*(2n-1)),

a length-h DFT over F_p with generator g**2. Bluestein's identity
i*(2n-1) = (i+n)(i+n-1) - i**2 - n(n-1) turns it into one correlation:

    S(2n) = g**(-n(n-1)) * sum_i (a_i * g**(-i**2)) * g**((i+n)(i+n-1)),

the route of Buhler, Crandall, Ernvall and Metsankyla (Math. Comp. 1993) and
Buhler and Harvey (Math. Comp. 2011) to the irregular primes.

Exactness: every operand of the correlation is a balanced residue, in
[-(p-1)/2, (p-1)/2]. The power table g**e is balanced once (its second half is
the negation of its first, as g**(e+h) = -g**e), so j = |g**i| and
e_i = sign(g**i) are read from it, and the chirped coefficients
a_i * g**(-i**2) are balanced after their one reduction mod p. The correlation
is computed with numpy's float64 `rfft`/`irfft` by one of two rules chosen from
p alone:

- p < _ONE_LIMB_PRIME = 2**15: one unsplit product, irfft(rfft(x) * rfft(y))
  (three transforms);
- 2**15 <= p <= MAX_KERNEL_PRIME < 2**18: x alone splits into two balanced
  9-bit limbs, x = hi * 2**9 + lo with lo in [-256, 256), and each limb is
  multiplied by the whole y (three forward and two inverse transforms); the
  two rounded products are combined with one reduction mod p.

Percival (Rapid multiplication modulo the sum and difference of highly
composite numbers, Math. Comp. 72, 2003) bounds the error of a float64 FFT
product of length 2**n by

    ||x|| * ||y|| * ((1+eps)**(3n) * (1+eps*sqrt(5))**(3n+1) * (1+beta)**(3n) - 1)

with eps = 2**-53 and twiddle-factor error beta = eps/sqrt(2). With
||x|| <= sqrt(h)*x_max, ||y|| <= sqrt(p-2)*h and n = ceil(log2 N) for the
transform length N, the one-limb bound (x_max = h) is 0.124 at p = 32749, the
largest prime below 2**15; residues in [0, p) would give four times as much,
0.495. At p = 249989 the limb bounds are 0.135 for lo (x_max = 256) and 0.129
for hi (x_max = 244). All stay under the kernel's 1/4 rounding guard (below
1/2 would already round right); test_limb_split_within_written_bound in
tests/test_kernels.py evaluates them. The theorem covers radix-2 complex
transforms, and pocketfft's real mixed-radix transforms of length
2**a * 3**b * 5**c lie outside it, so the kernel also checks that each
transformed value lies within 1/4 of an integer before rounding, and raises
ArithmeticError otherwise: it never returns a wrong residue silently. Both
rules give bit-identical residues on every prime below 2**15. The tests
compare the kernel bit for bit with a direct O(p**2) evaluation,
`power_sums_direct` in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .modarith import primitive_root

__all__ = [
    "MAX_KERNEL_PRIME",
    "active_backend",
    "power_sums",
]

#: largest supported prime: one balanced operand splits into two 9-bit limbs
MAX_KERNEL_PRIME = 250_000
#: below this prime one unsplit float64 product is exact (see the module docstring)
_ONE_LIMB_PRIME = 1 << 15

_LIMB_BITS = 9
#: the kernel's name and limb rule, as benchmark runs record it
_KERNEL_NAME = f"chirp, balanced, one limb below 2^15, x in two {_LIMB_BITS}-bit limbs from 2^15"
#: largest accepted distance from an integer before rounding a transform value
_MAX_ROUNDING_ERROR = 0.25


def active_backend() -> str:
    """Name of the power-sum kernel: the one implementation, and its limb rule."""
    return _KERNEL_NAME


def power_sums(p: int) -> np.ndarray:
    """S(2n) mod p at the multiplier g for 2n = 2 .. p-3, by one exact chirp convolution."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_KERNEL_PRIME:
        raise ValueError(f"p={p} exceeds the kernel exactness bound {MAX_KERNEL_PRIME}")
    half = (p - 1) // 2
    if half < 2:
        return np.empty(0, dtype=np.int64)
    order = p - 1
    g = primitive_root(p)  # raises for composite p; 1 < g < p, so |c_j| < p
    pw = _balanced_powers(g, p)  # pw[e] = g**e
    u = np.abs(pw[:half])  # j = |g**i| in [1, half]
    u *= g
    u //= p
    u *= 2
    u += 1 - g  # c_j
    u *= np.sign(pw[:half])  # a_i = e_i * c_j
    # pw[-e] = g**(order - e) = g**-e for 0 <= e < order
    u *= pw[-_exponents(half, 0, order)]
    u %= p
    _balance(u, p)  # like every entry of pw
    chirp = _exponents(p - 2, 1, order)  # t(t-1): for v_t, and for n(n-1) at n < half
    v = pw[chirp]
    # w_n = sum_i u_i v_(i+n) sits at index n + half - 1 of conv(u reversed, v)
    w = _convolve_mod(u[::-1], v, p, half, 2 * half - 1)
    w *= pw[-chirp[1:half]]
    w %= p
    return w


def _exponents(stop: int, shift: int, order: int) -> np.ndarray:
    """t * (t - shift) mod order for t = 0 .. stop-1."""
    e = np.arange(stop, dtype=np.int64)
    e *= e - shift
    e %= order
    return e


def _balanced_powers(g: int, p: int) -> np.ndarray:
    """g**e mod p for e = 0 .. p-2 as balanced residues in [-(p-1)/2, (p-1)/2].

    Only the first half is multiplied out, by doubling blocks; g**((p-1)/2) = -1
    gives the second half as its negation.
    """
    half = (p - 1) // 2
    out = np.empty(p - 1, dtype=np.int64)
    out[0] = 1
    filled = 1
    while filled < half:
        step = min(filled, half - filled)
        block = out[filled : filled + step]
        np.multiply(out[:step], pow(g, filled, p), out=block)
        block %= p
        filled += step
    _balance(out[:half], p)
    np.negative(out[:half], out=out[half:])
    return out


def _balance(r: np.ndarray, p: int) -> None:
    """Move residues in [0, p) to the balanced range [-(p-1)/2, (p-1)/2], in place."""
    r -= (r > p // 2) * p


def _convolve_mod(x: np.ndarray, y: np.ndarray, p: int, start: int, stop: int) -> np.ndarray:
    """Entries start..stop-1 of the linear convolution x * y, reduced mod p.

    The cyclic length only has to hold y: every wanted index m >= len(x) - 1
    sums x[t] * y[m - t] with 0 <= m - t < len(y), so nothing wraps onto it.
    Operands are balanced residues mod p. Below _ONE_LIMB_PRIME they are
    multiplied whole (three transforms); from there on x splits into two
    balanced 9-bit limbs, each multiplied by the whole y (five transforms, at
    most two spectra alive at a time).
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
        return rounded.astype(np.int64)

    y_hat = rfft(y, length)
    if p < _ONE_LIMB_PRIME:
        y_hat *= rfft(x, length)
        return exact(y_hat) % p
    lo, hi = _limbs(x)
    lo_hat = rfft(lo, length)
    lo_hat *= y_hat
    lo = exact(lo_hat)
    del lo_hat
    y_hat *= rfft(hi, length)
    return (exact(y_hat) * (1 << _LIMB_BITS) + lo) % p


def _limbs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced 9-bit limbs (lo, hi) of x: x = hi * 2**9 + lo with lo in [-256, 256)."""
    hi = x + (1 << (_LIMB_BITS - 1))
    hi >>= _LIMB_BITS
    return x - (hi << _LIMB_BITS), hi


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

