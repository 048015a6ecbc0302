"""Batched modular power sums: one exact O(p log p) chirp-convolution kernel.

The workhorse is `power_sums(p)`: for an odd prime p and its least primitive
root g it returns the Voronoi sums at the multiplier g (`_power_sums_at(p, g)`
computes them at any primitive root g),

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

Integer work around the transforms. Exponents live mod p-1, and one array
e_t = t(t-1) mod (p-1) for t < h serves all three factors:

- the pre-twist g**(-i**2), since i**2 = e_i + i, which is below p-1+h and
  needs one conditional subtract of p-1;
- the chirp g**(t(t-1)) for t < p-2, whose first h entries are g**e_t. The
  half-period identity gives the rest: (t+h)(t+h-1) = t(t-1) + 2th + h(h-1),
  and g**(2h) = 1, g**h = -1, so the second half is (-1)**(h-1) times the first;
- the closing factor g**(-n(n-1)) = g**(-e_n).

The power table g**e, e < p-1, is built by baby step / giant step: s =
ceil(sqrt(h)) baby steps g**i (i < s) and ceil(h/s) giant steps g**(k*s), about
2*sqrt(h) Python products in all, give the first half as one `np.multiply.outer`
and one reduction; g**(e+h) = -g**e gives the second half as its negation. Each
int64 product stays far below 2**63 (p < 2**18): the table's products are below
p**2, the exponents t(t-1) below h**2, and the chirped coefficients satisfy
|u * pw| < p * h, since |a_i| < p and |g**e| <= h. Every reduction mod p or
p-1 goes through `_reduce`, which computes r - ((r - low) // m) * m: the
residue in [low, low + m), with low = 0 for the usual range and low = -h for
the balanced one. Its values are those of `%`, but numpy divides int64 arrays
by a scalar with libdivide in `//` and not in `%`, so it runs several times
faster. None of this changes the correlation's operands, so the bounds below,
and test_limb_split_within_written_bound that evaluates them, still hold.

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

import bisect
import math

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
    if p == 3:  # no index 2n <= p - 3
        return np.empty(0, dtype=np.int64)
    return _power_sums_at(p, primitive_root(p))  # raises for composite p


def _power_sums_at(p: int, g: int) -> np.ndarray:
    """`power_sums` at a given primitive root 1 < g < p of a checked prime p >= 5.

    Any primitive root vanishes at the same 2n, since 1 - g**(2n) is a unit for
    every 2n <= p - 3, and the error bounds depend on p alone; only tests pass
    a root other than the least one.
    """
    half = (p - 1) // 2
    order = p - 1
    pw = _balanced_powers(g, p)  # pw[e] = g**e; pw[-e] = g**(order - e) = g**-e
    t = np.arange(half, dtype=np.int64)
    e = t * (t - 1)  # below half**2
    _reduce(e, order)  # e_t = t(t-1) mod (p-1)
    u = np.abs(pw[:half])  # j = |g**i| in [1, half]
    u *= g  # 1 < g < p, so |c_j| < p
    u //= p
    u *= 2
    u += 1 - g  # c_j
    u *= np.sign(pw[:half])  # a_i = e_i * c_j
    t += e  # i**2 = e_i + i, below order + half
    t -= (t >= order) * order
    u *= pw[-t]  # a_i * g**(-i**2), |u * pw| < p * half
    _reduce(u, p, -half)  # balanced, like every entry of pw
    # v_t = g**(t(t-1)) for t < p - 2; v_(t+half) = (-1)**(half-1) * v_t, as g**half = -1
    v = np.empty(p - 2, dtype=np.int64)
    np.take(pw, e, out=v[:half])
    if half % 2:
        v[half:] = v[: half - 1]
    else:
        np.negative(v[: half - 1], out=v[half:])
    # w_n = sum_i u_i v_(i+n) sits at index n + half - 1 of conv(u reversed, v)
    w = _convolve_mod(u[::-1], v, p, half, 2 * half - 1)
    w *= pw[-e[1:]]  # g**(-n(n-1)) for n = 1 .. half-1
    return _reduce(w, p)


def _balanced_powers(g: int, p: int) -> np.ndarray:
    """g**e mod p for e = 0 .. p-2 as balanced residues in [-(p-1)/2, (p-1)/2].

    The first half is one outer product of giant steps g**(k*s) and baby steps
    g**i, i < s = ceil(sqrt((p-1)/2)), each below p; g**((p-1)/2) = -1 gives the
    second half as its negation.
    """
    half = (p - 1) // 2
    step = math.isqrt(half - 1) + 1
    rows = -(-half // step)
    baby = [1] * step
    for i in range(1, step):
        baby[i] = baby[i - 1] * g % p
    giant = [1] * rows
    stride = baby[-1] * g % p
    for k in range(1, rows):
        giant[k] = giant[k - 1] * stride % p
    out = np.empty(p - 1, dtype=np.int64)
    block = out[: rows * step].reshape(rows, step)  # rows * step < half + step <= p - 1
    np.multiply.outer(np.array(giant, dtype=np.int64), np.array(baby, dtype=np.int64), out=block)
    _reduce(block, p, -half)  # products below p**2, balanced
    np.negative(out[:half], out=out[half:])
    return out


def _reduce(r: np.ndarray, m: int, low: int = 0) -> np.ndarray:
    """r mod m in place, as the residues in [low, low + m): r - ((r - low) // m) * m.

    These are the values of (r - low) % m + low. numpy divides int64 by a scalar
    through libdivide in `//` but not in `%`, so this runs several times faster.
    """
    q = (r - low) // m if low else r // m
    q *= m
    r -= q
    return r


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
        return _reduce(exact(y_hat), p)
    lo, hi = _limbs(x)
    lo_hat = rfft(lo, length)
    lo_hat *= y_hat
    lo = exact(lo_hat)
    del lo_hat
    y_hat *= rfft(hi, length)
    return _reduce(exact(y_hat) * (1 << _LIMB_BITS) + lo, p)


def _limbs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced 9-bit limbs (lo, hi) of x: x = hi * 2**9 + lo with lo in [-256, 256)."""
    hi = x + (1 << (_LIMB_BITS - 1))
    hi >>= _LIMB_BITS
    return x - (hi << _LIMB_BITS), hi


def _smooth_lengths(limit: int) -> tuple[int, ...]:
    """Every 2**a * 3**b * 5**c up to the first one >= limit, ascending."""
    top = 1 << max(limit - 1, 0).bit_length()  # a power of two >= limit
    out = []
    f5 = 1
    while f5 <= top:
        f35 = f5
        while f35 <= top:
            f = f35
            while f <= top:
                out.append(f)
                f *= 2
            f35 *= 3
        f5 *= 5
    out.sort()
    return tuple(out[: bisect.bisect_left(out, limit) + 1])


#: the transform lengths pocketfft runs fastest, up to every length the kernel needs
_FAST_LENGTHS = _smooth_lengths(MAX_KERNEL_PRIME)


def _fast_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: lengths pocketfft transforms fastest."""
    return _FAST_LENGTHS[bisect.bisect_left(_FAST_LENGTHS, n)]
