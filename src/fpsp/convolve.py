"""Exact integer cyclic convolution: a certified float FFT, with a
number-theoretic transform as fallback and oracle.

This is the "transform" route behind representation-function histograms,
so counts must come out bit-exact.  The fast route zero-pads to a radix-2
length N = 2^k (N = n for a power-of-two n, else N >= 2n - 1 with a fold)
and multiplies numpy rfft/irfft spectra in float64.  Its result is taken
only when it is certified exact:

* A priori.  Percival (Math. Comp. 72, 2003, Thm. 5.1) bounds the error
  of an FFT convolution of length 2^k by
      ||x||_2 ||y||_2 ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1)
  with e = 2^-53 the unit roundoff and b a bound on the error of each
  computed twiddle factor.  numpy builds a twiddle as the product of two
  table entries, each libm sin/cos of a rounded angle (within about 3e),
  and the complex product adds up to e sqrt5; b = 10e is taken here, not
  the e/sqrt2 of correctly rounded twiddles.  The bound is
  stated for a radix-2 complex transform; numpy's real transform of a
  power-of-two length runs radix-4 and radix-2 passes, each radix-4 pass
  doing the work of two radix-2 levels, and is taken to be covered by it.
  The bound is computed from the exact norms (sums of squares in int64,
  refused where they could overflow) and must be below 1/4.
* A posteriori.  Every output lies within 1/4 of an integer, and the
  rounded result has the exact mass sum(c) = sum(x) sum(y) on Python ints.

For indicator vectors ||x||_2 ||y||_2 <= n <= 2^20 and the bound is about
1e-7, far below 1/4.  When any check fails the call falls back to the NTT:
the convolution modulo two NTT-friendly primes (998244353 = 119*2^23+1
with generator 3, 754974721 = 45*2^24+1 with generator 11), recombined by
CRT.  Their product ~7.5e17 bounds the coefficients the NTT gets right.
In the NTT int64 never overflows: residues are < 2^30, so butterfly
products stay < 2^60, and the CRT lift stays < 2^60.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParams

_P1, _G1 = 998244353, 3
_P2, _G2 = 754974721, 11
_INV_P1_MOD_P2 = pow(_P1, _P2 - 2, _P2)

_MAX_LOG2 = 23  # limited by _P1's 2-adic valuation
_TWIDDLE_ERR = 10  # twiddle error bound, in units of 2^-53

_bitrev_cache: dict[int, np.ndarray] = {}
_twiddle_cache: dict[tuple[int, int, bool], np.ndarray] = {}


def _bitrev(n: int) -> np.ndarray:
    got = _bitrev_cache.get(n)
    if got is not None:
        return got
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev = (rev << 1) | ((idx >> b) & 1)
    _bitrev_cache[n] = rev
    return rev


def _powmod_vec(base: int, exps: np.ndarray, prime: int) -> np.ndarray:
    """base^exps mod prime, vectorized square-and-multiply."""
    result = np.ones(len(exps), dtype=np.int64)
    b = base % prime
    e = exps.copy()
    while e.max(initial=0) > 0:
        odd = (e & 1).astype(bool)
        result[odd] = result[odd] * b % prime
        b = b * b % prime
        e >>= 1
    return result


def _twiddles(prime: int, gen: int, length: int, invert: bool) -> np.ndarray:
    key = (prime, length, invert)
    got = _twiddle_cache.get(key)
    if got is not None:
        return got
    w0 = pow(gen, (prime - 1) // length, prime)
    if invert:
        w0 = pow(w0, prime - 2, prime)
    w = _powmod_vec(w0, np.arange(length // 2, dtype=np.int64), prime)
    _twiddle_cache[key] = w
    return w


def _ntt(vec: np.ndarray, prime: int, gen: int, invert: bool) -> np.ndarray:
    n = len(vec)
    a = (vec % prime)[_bitrev(n)]
    length = 2
    while length <= n:
        half = length // 2
        w = _twiddles(prime, gen, length, invert)
        blocks = a.reshape(-1, length)
        # copy: the first write below would otherwise clobber the view
        even = blocks[:, :half].copy()
        odd = blocks[:, half:] * w % prime
        blocks[:, :half] = (even + odd) % prime
        blocks[:, half:] = (even - odd) % prime
        a = blocks.reshape(-1)
        length *= 2
    if invert:
        n_inv = pow(n, prime - 2, prime)
        a = a * n_inv % prime
    return a


def _cyclic_mod(x: np.ndarray, y: np.ndarray, n: int, prime: int,
                gen: int) -> np.ndarray:
    """Cyclic convolution of length n (n a power of two) mod prime."""
    fx = _ntt(x, prime, gen, False)
    fy = _ntt(y, prime, gen, False)
    return _ntt(fx * fy % prime, prime, gen, True)


def _crt(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Lift residue pairs to the unique value below P1*P2 (fits int64)."""
    diff = (r2 - r1) % _P2
    return r1 + _P1 * (diff * _INV_P1_MOD_P2 % _P2)


def _convolve_ntt(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Exact cyclic convolution of int64 vectors of length n >= 2 by the
    double-prime NTT with CRT lift; the fallback and oracle of the FFT."""
    if n & (n - 1) == 0:
        # Power-of-two length transforms directly, no padding or folding.
        if n.bit_length() - 1 > _MAX_LOG2:
            raise BadParams("transform length %d beyond NTT support" % n)
        c1 = _cyclic_mod(x, y, n, _P1, _G1)
        c2 = _cyclic_mod(x, y, n, _P2, _G2)
        return _crt(c1, c2)
    # General n: zero-pad to a power of two, linear convolution, fold.
    need = 2 * n - 1
    size = 1 << (need - 1).bit_length()
    if size.bit_length() - 1 > _MAX_LOG2:
        raise BadParams("padded length %d beyond NTT support" % size)
    xp = np.zeros(size, dtype=np.int64)
    yp = np.zeros(size, dtype=np.int64)
    xp[:n] = x
    yp[:n] = y
    l1 = _cyclic_mod(xp, yp, size, _P1, _G1)
    l2 = _cyclic_mod(xp, yp, size, _P2, _G2)
    lin = _crt(l1, l2)[:need]
    out = lin[:n].copy()
    out[: n - 1] += lin[n:]
    return out


def _sum_squares(v: np.ndarray) -> int | None:
    """Exact sum of v[i]^2, or None where int64 could overflow."""
    top = int(np.abs(v).max())
    if top * top * len(v) >= 1 << 63:
        return None
    return int(np.dot(v, v))


def _fft_error_bound(k: int) -> float:
    """Percival's a-priori error factor for length 2^k, per unit of
    ||x||_2 ||y||_2 (constants in the module docstring)."""
    e = 2.0 ** -53
    return math.expm1(3 * k * math.log1p(e)
                      + (3 * k + 1) * math.log1p(e * math.sqrt(5))
                      + 3 * k * math.log1p(_TWIDDLE_ERR * e))


def _convolve_fft(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray | None:
    """Cyclic convolution of int64 vectors of length n >= 2 by float FFT,
    or None when the result cannot be certified exact."""
    size = n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length()
    sx, sy = _sum_squares(x), _sum_squares(y)
    if sx is None or sy is None:
        return None
    bound = _fft_error_bound(size.bit_length() - 1)
    if float(sx * sy) * bound * bound >= 1 / 16:
        return None
    lin = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)
    near = np.rint(lin)
    if float(np.abs(lin - near).max()) >= 0.25:
        return None
    lin = near.astype(np.int64)
    out = lin[:n]
    if size > n:
        out[: n - 1] += lin[n:2 * n - 1]
    if int(out.sum()) != int(x.sum()) * int(y.sum()):
        return None
    return out


def cyclic_convolve(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Exact c[k] = sum_i x[i] * y[(k - i) mod n] for 0 <= k < n.

    x and y are nonnegative int vectors of length n.  The certified float
    FFT answers when its error bound allows; otherwise the NTT does, for
    entries small enough that every true coefficient stays below ~7.5e17.
    Indicator vectors (the only use in this package) take the FFT.
    """
    if len(x) != n or len(y) != n:
        raise BadParams("cyclic_convolve needs both vectors of length n")
    if n <= 0:
        raise BadParams("cyclic_convolve needs n >= 1")
    if n == 1:
        return np.array([int(x[0]) * int(y[0])], dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = _convolve_fft(x, y, n)
    return _convolve_ntt(x, y, n) if out is None else out


def convolve_naive(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Direct O(n^2) cyclic convolution; the oracle for cyclic_convolve."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if x[i]:
            out += x[i] * np.roll(y, i)
    return out
