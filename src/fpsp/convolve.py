"""Exact integer cyclic convolution by a certified float FFT over limbs.

This is the "transform" route behind representation-function histograms,
so counts must come out bit-exact.  It zero-pads to a radix-2 length
N = 2^k (N = n for a power-of-two n, else N >= 2n - 1 with a fold) and
multiplies numpy rfft/irfft spectra in float64.  There is one route and
no fallback: a result is returned only when it is certified exact, and
any failed check raises BadParams.

* Inputs.  x and y are 1-D integer vectors of length n with nonnegative
  entries and sum(x) sum(y) < 2^63 (checked on Python ints).  Every
  coefficient is at most that mass, so every partial sum below stays
  exact in int64.  Each input is kept in its narrowest exact dtype:
  uint8 when every entry is below 256 (indicators), else int64.  Sums
  and sums of squares are taken with dtype=int64 (np.dot would
  accumulate in uint8 and wrap).
* Limbs.  Each input is split into base-2^s limbs, x = sum_i x_i 2^(is)
  with 0 <= x_i < 2^s, and s is the widest width for which every limb
  pair passes the a-priori bound below.  The FFT of each limb is taken
  once, each limb pair's product is certified on its own, and
  c = sum_ij c_ij 2^((i+j)s) is recombined by int64 shifts.  Indicator
  vectors (every use in this package) need one limb: one rfft per side
  and one irfft, on the inputs themselves.
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
  The bound is computed from the exact limb norms (sums of squares in
  int64, refused where they could overflow) and must be below 1/4.
  For indicator vectors ||x||_2 ||y||_2 <= n <= 2^20 and the bound is
  about 1e-7.
* A posteriori.  Every output of every limb pair lies within 1/4 of an
  integer, and its rounded mass is exactly sum(x_i) sum(y_j).
* Working set.  For one limb pair the spectrum product is formed in
  place in x's spectrum, the rounding check runs in place in the irfft
  output, and each buffer is freed before the next is allocated.  The result owns its n entries.
  One indicator histogram at n = 1048573 (N = 2^21: 16 MB per spectrum
  or length-N float64 buffer) peaks at about 42 MB of numpy arrays.

Splitting into limbs for floating-point FFT products follows Brent and
Zimmermann, Modern Computer Arithmetic (CUP 2010), chapters 2-3.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BadParams

_TWIDDLE_ERR = 10  # twiddle error bound, in units of 2^-53
_INT64_END = 1 << 63


def _sum_squares(v: np.ndarray) -> int | None:
    """Exact sum of v[i]^2 (v >= 0), or None where int64 could overflow."""
    top = int(v.max())
    if top * top * len(v) >= _INT64_END:
        return None
    # accumulate in int64 without a widened copy of v
    return int(np.einsum("i,i->", v, v, dtype=np.int64))


def _fft_error_bound(k: int) -> float:
    """Percival's a-priori error factor for length 2^k, per unit of
    ||x||_2 ||y||_2 (constants in the module docstring)."""
    e = 2.0 ** -53
    return math.expm1(3 * k * math.log1p(e)
                      + (3 * k + 1) * math.log1p(e * math.sqrt(5))
                      + 3 * k * math.log1p(_TWIDDLE_ERR * e))


def _limbs(v: np.ndarray, s: int, bits: int) -> list[np.ndarray]:
    """The base-2^s digits of v's entries (below 2^bits), low first."""
    if s >= bits:
        return [v]
    mask = (1 << s) - 1
    return [(v >> (s * i)) & mask for i in range(-(-bits // s))]


def _split(x: np.ndarray, y: np.ndarray,
           size: int) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """The widest limb width s for which every limb pair of x and y passes
    the a-priori bound at transform length size, with both limb lists."""
    bound = _fft_error_bound(size.bit_length() - 1)
    bx, by = (max(int(v.max()).bit_length(), 1) for v in (x, y))
    for s in range(max(bx, by), 0, -1):
        lx, ly = _limbs(x, s, bx), _limbs(y, s, by)
        sx = [_sum_squares(v) for v in lx]
        sy = [_sum_squares(v) for v in ly]
        if None not in sx + sy and \
                float(max(sx) * max(sy)) * bound * bound < 1 / 16:
            return s, lx, ly
    raise BadParams("no limb width certifies a length-%d FFT convolution"
                    % size)


def _convolve_fft(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Cyclic convolution of nonnegative uint8 or int64 vectors of length
    n with sum(x) sum(y) < 2^63, certified exact limb pair by limb pair."""
    size = n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length()
    s, lx, ly = _split(x, y, size)
    pairs = [(s * (i + j),
              int(vx.sum(dtype=np.int64)) * int(vy.sum(dtype=np.int64)))
             for i, vx in enumerate(lx) for j, vy in enumerate(ly)]
    fx = [np.fft.rfft(v, size) for v in lx]
    fy = [np.fft.rfft(v, size) for v in ly]
    if len(fx) == len(fy) == 1:  # one limb pair (every indicator pair)
        fx[0] *= fy[0]
        specs = fx
    else:
        specs = [sx * sy for sx in fx for sy in fy]
    # free the limb spectra before the inverse transforms: for one limb
    # pair the peak is then one spectrum and one output
    del fx, fy
    lin = None
    for shift, mass in pairs:
        part = np.fft.irfft(specs.pop(0), size)
        near = np.rint(part)
        part -= near
        np.abs(part, out=part)
        if float(part.max()) >= 0.25:
            raise BadParams("FFT convolution output not within 1/4 of an "
                            "integer")
        del part
        part = near.astype(np.int64)
        del near
        if int(part.sum()) != mass:
            raise BadParams("FFT convolution lost mass")
        if lin is None:
            lin = part
        else:
            part <<= shift
            lin += part
        del part
    if size == n:
        return lin
    out = lin[:n].copy()  # owns its n entries, not a view of lin
    out[: n - 1] += lin[n:2 * n - 1]
    return out


def _counts(v, n: int) -> tuple[np.ndarray, int]:
    """v in its narrowest exact dtype (uint8 when every entry is below
    256, else int64) and its exact sum, if v is 1-D of length n with
    integer entries in [0, 2^63)."""
    v = np.asarray(v)
    if v.ndim != 1 or len(v) != n:
        raise BadParams("cyclic_convolve needs both vectors 1-D of length n")
    if v.dtype.kind not in "iu":
        raise BadParams("cyclic_convolve needs integer entries, got %s"
                        % v.dtype)
    top = int(v.max())
    if int(v.min()) < 0 or top >= _INT64_END:
        raise BadParams("cyclic_convolve needs entries in [0, 2^63)")
    v = v.astype(np.uint8 if top < 256 else np.int64, copy=False)
    return v, (int(v.sum(dtype=np.int64)) if top * n < _INT64_END
               else sum(v.tolist()))


def cyclic_convolve(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Exact c[k] = sum_i x[i] * y[(k - i) mod n] for 0 <= k < n.

    x and y are 1-D nonnegative integer vectors of length n with
    sum(x) sum(y) < 2^63.  Anything else, or a transform the checks in
    the module docstring cannot certify, raises BadParams.
    """
    n = operator.index(n)
    if n <= 0:
        raise BadParams("cyclic_convolve needs n >= 1")
    (x, mx), (y, my) = _counts(x, n), _counts(y, n)
    if mx * my >= _INT64_END:
        raise BadParams("cyclic_convolve needs sum(x) sum(y) < 2^63")
    return _convolve_fft(x, y, n)
