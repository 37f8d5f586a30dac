"""Exact cyclic convolution of 0/1 vectors by a certified float FFT.

This is the "transform" route behind representation-function histograms,
so counts must come out bit-exact.  It cuts each input into m = 1, 2 or 4
index blocks of length h = ceil(n / m), zero-pads them to a radix-2
length N = 2^k (N = n for one block of power-of-two length n, else the
least N >= 2h - 1, so that every block product fits) and multiplies numpy
rfft/irfft spectra in float64.  There is one route and no fallback: a
result is returned only when it is certified exact, and any failed check
raises BadParams.

* Inputs.  x and y are 1-D integer vectors of length n whose entries are
  all 0 or 1 (indicators), taken as uint8; anything else is refused
  before any transform runs.  Block sums are taken with dtype=int64
  (np.dot would accumulate in uint8 and wrap).
* Blocks.  x = sum_a z^(ah) x_a and y likewise (a < m; the last blocks
  may be short), so x y = sum_ab z^((a+b)h) x_a y_b.  Mod z^n - 1,
  z^(mh) = z^d with d = mh - n (0 <= d < m), so a product with a + b >= m
  lands in the same place as one with a + b - m, shifted by d.  The m^2
  products are grouped by t = a + b mod m into m outputs, one inverse
  transform each:
      G_t = sum_(a+b=t) X_a Y_b + w^d sum_(a+b=t+m) X_a Y_b
  (w^k = exp(-2 pi i k / N), the spectrum of a shift by d), added into
  the result at index offset t h mod n.  Its linear length, clipped to N,
  is at most n (the last block is d entries short), so it never wraps
  onto itself.  A shifted product may still run past N, and the length-N
  inverse transform wraps that excess onto the head of its output: at
  n = 1048573 (h = 2^18, d = 3, N = 2^19) x_2 y_2 in G_0 runs 2
  coefficients past N.  Those few coefficients are computed exactly on
  Python ints from the blocks' top entries (each a sum of at most d
  products), subtracted at the wrap and added at their own index.  One
  block is one rfft per side and one irfft, folded mod n.
* A priori.  Percival (Math. Comp. 72, 2003, Thm. 5.1) bounds the error
  of an FFT convolution of length 2^k by
      ||x||_2 ||y||_2 ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1)
  with e = 2^-53 the unit roundoff and b a bound on the error of each
  computed twiddle factor: b = 10e, which no argument gives (numpy
  multiplies two table entries, each libm sin/cos of a rounded angle);
  test_numpy_twiddles_within_the_assumed_error measures numpy's own w^j,
  rfft of the unit impulse e_1, within 2.5e of long double at
  N = 2^1..2^21 on numpy 2.4.6.  The bound counts k radix-2 levels, each
  applying to an entry at most one twiddle product (1 + e sqrt5)(1+b)
  and one addition 1+e; numpy's real transform runs radix-4 and radix-2
  passes.  A staged transform errs by at most its stages' local error
  factors times the product of their norms (Higham, Accuracy and
  Stability of Numerical Algorithms, 2nd ed., 2002, sec. 24.1).  A
  radix-4 pass has the norm of two radix-2 levels (2 = sqrt2 sqrt2) and,
  as a textbook butterfly, applies to an entry one twiddle product and
  two additions (its products by +-i are exact), within the two levels'
  factors.  That numpy's passes have those operation counts is assumed.
  Each G_t is a computed sum of m products: each carries at most m - 1
  more roundings 1+e.  Where d > 0 the wrapped products are summed and
  multiplied once by W: one more complex product 1 + e sqrt5 and one
  more twiddle error 1+b, whatever d is.  W is a table entry w^(dj)
  (j < 2^15) times one directly computed w^(di), each of an angle
  reduced into [-pi, pi), and lies within 4.9e of w^(d(i+j)) for
  d = 1..3 and N = 2^16..2^21 against a long-double reference.  The
  shift is unitary, and the inverse transform is linear, with Percival's
  bound on its error a sum of terms linear in its input and in the error
  already in that input.  So G_t errs by at most
      sum_a ||x_a|| ||y_(t-a mod m)||
          ((1+e)^(3k+m-1) (1+e sqrt5)^(3k+1+r) (1+b)^(3k+r) - 1),
  r = 1 if d > 0 else 0, and since b = t - a mod m is a bijection,
  Cauchy-Schwarz puts the sum of norms at most ||x|| ||y||.  The bound
  bounds the cyclic length-N result, spilled coefficients included.
  An indicator's squared norm is its point count, so the bound is taken
  on the support sizes, ||x||_2 ||y||_2 <= n, and must be below 1/4; a
  pair that fails it is refused.  At n <= 2^20 the factor times n is at
  most 9.3e-8 (one block at n = 2^20), 2.7e6 times below 1/4, so a
  looser per-pass constant would still certify; full indicators first
  fail at n = 2^41.
* A posteriori.  Every output of every inverse transform lies within 1/4
  of an integer, and its rounded mass is exactly the sum of
  sum(x_a) sum(y_b) over its products.
* Routing.  cyclic_convolve reads n only: four blocks where n >= 2^16 is
  not a power of two, else one (a power of two transforms directly).
  Both give the same certified integers.  Shorter transforms cost less
  per entry, so four blocks won at every length measured on a 2-core x86
  host (medians of 7-15 calls, two 2.5% indicators): at n = 1048573,
  0.12-0.14 s against 0.13-0.17 s on two blocks and 0.25-0.35 s on one;
  at n = 65537-524287 by 4-18% over two blocks on two threads and by
  13-28% on one CPU.  Below 2^16 four blocks lost at n <= 4099, where
  the thread start outweighs the transforms, and took 0.68-0.87 of the
  one-block time at n = 16411-65521; the 2^16 threshold is kept from its
  first measurement.
* Threads.  Where a second thread may run (the process is not a
  multiprocessing child, whose pool already keeps every core busy, and
  may run on at least two CPUs), m > 1 blocks share each step between
  the calling thread and one worker thread (numpy's FFT releases the
  GIL) through one fork-join, _both, which returns only once both
  threads are done: the worker takes the even-indexed forward transforms
  and the calling thread the odd ones, each forms the products over half
  the chunks, the m inverse transforms run two at a time, one on each,
  and each output is rounded in two halves, one on each.  An output's
  linear length is at most n, so its halves add into disjoint entries of
  the result.  Elsewhere the same calls run on the calling thread, in
  the same order.
* Working set.  Products are formed, and outputs rounded, in chunks of
  2^15 entries, written over the spectra and outputs they read, and every
  buffer is freed before the next is allocated: each inverse transform
  drops its spectrum, and the int64 result (which owns its n entries) is
  allocated after the first two.  One indicator histogram at n = 1048573
  on four blocks (N = 2^19, 4 MB per spectrum or float64 output) gathers
  the eight block spectra while the threads run their forward
  transforms, each with numpy 2's 2 MB float64 copy of a uint8 block;
  it holds all eight while the four outputs are formed over X_0..X_3,
  the peak (40.5-42.3 MB of numpy arrays on numpy 2.4, 38.1 MB on one
  thread; 42.1 MB on one block); then two outputs at a time, transformed
  back and rounded beside the result.

Cutting one long transform into cache-sized ones follows Bailey, "FFTs
in external or hierarchical memory", J. Supercomputing 4 (1990).
"""

from __future__ import annotations

import cmath
import contextlib
import math
import multiprocessing
import operator
import os

import numpy as np

from .errors import BadParams

_TWIDDLE_ERR = 10  # twiddle error bound, in units of 2^-53
_CHUNK = 1 << 15  # entries per step of the spectrum products and rounding
_SPLIT_MIN = 1 << 16  # shortest n split into blocks


def _fft_error_bound(k: int, adds: int = 0, turns: int = 0) -> float:
    """Percival's a-priori error factor for length 2^k, per unit of
    ||x||_2 ||y||_2 (constants in the module docstring), with `adds` more
    roundings of the spectrum (one per product added to another) and
    `turns` more products by a computed twiddle (one per shifted
    product)."""
    e = 2.0 ** -53
    return math.expm1((3 * k + adds) * math.log1p(e)
                      + (3 * k + 1 + turns) * math.log1p(e * math.sqrt(5))
                      + (3 * k + turns) * math.log1p(_TWIDDLE_ERR * e))


def _certify(sx: int, sy: int, size: int, blocks: int, turns: int) -> None:
    """Raise BadParams unless indicators of sx and sy points (their
    squared norms) pass the a-priori bound at transform length size over
    `blocks` index blocks (each output a sum of `blocks` products, `turns`
    products by a shift twiddle)."""
    bound = _fft_error_bound(size.bit_length() - 1, blocks - 1, turns)
    if float(sx * sy) * bound * bound >= 1 / 16:
        raise BadParams("the a-priori error bound does not certify a "
                        "length-%d FFT convolution" % size)


def _both(pool, first, second):
    """(first(), second()): first on the pool's one worker thread while
    second runs on the calling thread, or both in that order on the
    calling thread when pool is None.  An exception raised by either call
    reaches the caller only once both have ended."""
    if pool is None:
        return first(), second()
    job = pool.submit(first)
    try:
        got = second()
    finally:
        job.exception()  # waits for the worker without raising
    return job.result(), got


@contextlib.contextmanager
def _worker(wanted: bool):
    """A pool of one worker thread for _both, or None (_both then runs
    both calls on the calling thread) unless wanted and _second_thread()."""
    if not (wanted and _second_thread()):
        yield None
        return
    # imported here: a process that never starts a thread (a sweep's pool
    # worker) does not load it, which costs 0.65 MB of RSS at import
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(1)
    try:
        yield pool
    finally:
        pool.shutdown()


def _twiddles(size: int, d: int):
    """The function (i, count) -> [w^(d i), ..., w^(d (i + count - 1))]
    for w = exp(-2 pi sqrt(-1) / size), i a multiple of _CHUNK and count
    at most _CHUNK: a base table of w^(d j) (j < _CHUNK) built once, times
    one scalar w^(d i) computed directly.  Each exponent is reduced mod
    size into [-size/2, size/2) first, so no angle exceeds pi."""
    half = size // 2

    def angle(k):
        return -2 * math.pi * ((d * k + half) % size - half) / size

    base = np.exp(1j * angle(np.arange(min(_CHUNK, half + 1))))
    return lambda i, count: base[:count] * cmath.exp(1j * angle(i))


def _products(fx: list, fy: list, turn, pool) -> list:
    """The spectra G_t = sum_a X_a Y_((t - a) mod m), t < m, of the m
    block products, formed _CHUNK entries at a time, the first half of
    the chunks on the pool's worker thread when there is a pool.  A
    product with a + b >= m (it wraps past z^n) is multiplied by turn(i,
    count) (a _twiddles function; None for no shift).  G_t is written
    over fx[t], so no spectrum is allocated (and the inputs are spent)."""
    m = len(fx)

    def run(lo, hi):
        for i in range(lo, hi, _CHUNK):
            c = slice(i, i + _CHUNK)
            xs, ys = [v[c] for v in fx], [v[c] for v in fy]
            got = []
            for t in range(m):
                inner = xs[0] * ys[t]
                for a in range(1, t + 1):
                    inner += xs[a] * ys[t - a]
                if t + 1 < m:
                    outer = xs[t + 1] * ys[m - 1]
                    for a in range(t + 2, m):
                        outer += xs[a] * ys[t + m - a]
                    if turn is not None:
                        outer *= turn(i, len(outer))
                    inner += outer
                got.append(inner)
            for out, g in zip(fx, got):
                out[c] = g

    end = len(fx[0])
    cut = -(-end // (2 * _CHUNK)) * _CHUNK
    _both(pool, lambda: run(0, cut), lambda: run(cut, end))
    return fx


def _round_into(out: np.ndarray, part: np.ndarray, offset: int,
                length: int) -> int:
    """Round part, add part[j] into out[(offset + j) mod n] for j < length
    (offset mod n + length <= 2n: the added range wraps past the end of
    out at most once), and return the sum of every rounded entry of part;
    raise BadParams unless every entry lies within 1/4 of an integer.
    part is spent (overwritten by its rounding errors).  Works in chunks
    of _CHUNK entries, so no temporary is longer than a chunk."""
    n = len(out)
    total = 0
    for i in range(0, len(part), _CHUNK):
        chunk = part[i:i + _CHUNK]
        near = np.rint(chunk)
        chunk -= near
        if not (-0.25 < float(chunk.min()) and float(chunk.max()) < 0.25):
            raise BadParams("FFT convolution output not within 1/4 of an "
                            "integer")
        ints = near.astype(np.int64)
        total += int(ints.sum())
        ints = ints[:max(0, length - i)]
        start = (offset + i) % n
        wrap = start + len(ints) - n  # entries that run past the end
        if wrap > 0:
            out[:wrap] += ints[-wrap:]
            ints = ints[:-wrap]
        out[start:start + len(ints)] += ints
    return total


def _spill(u: np.ndarray, v: np.ndarray, start: int, stop: int) -> list:
    """The exact coefficients start..stop-1 of the linear product u v, on
    Python ints: the top few, each a sum over a few top entries."""
    return [sum(int(u[i]) * int(v[k - i])
                for i in range(max(0, k - len(v) + 1), min(len(u), k + 1)))
            for k in range(start, stop)]


def _convolve_fft(x: np.ndarray, y: np.ndarray, n: int,
                  blocks: int = 1) -> np.ndarray:
    """Cyclic convolution of 0/1 vectors of length n (unchecked here), over
    `blocks` (1, 2 or 4) index blocks, certified exact (see the module
    docstring)."""
    m = blocks
    h = -(-n // m)
    size = (n if m == 1 and n & (n - 1) == 0
            else 1 << (2 * h - 2).bit_length())
    # a product of blocks a + b >= m lands at (a + b) h = (a + b - m) h + d
    # mod n: in output a + b - m, shifted by d
    d = m * h - n
    # vecs[a] is block a of x, vecs[m + a] block a of y
    vecs = [v[a * h:(a + 1) * h] for v in (x, y) for a in range(m)]
    sums = [int(v.sum(dtype=np.int64)) for v in vecs]
    _certify(sum(sums[:m]), sum(sums[m:]), size, m, min(d, 1))
    with _worker(m > 1) as pool:
        specs = [None] * (2 * m)
        specs[0::2], specs[1::2] = _both(
            pool, lambda: [np.fft.rfft(v, size) for v in vecs[0::2]],
            lambda: [np.fft.rfft(v, size) for v in vecs[1::2]])
        turn = _twiddles(size, d) if d else None  # after the forward peak
        # output t's spectrum, written over X_t; dropping specs frees the
        # Y spectra
        spectra = dict(enumerate(_products(specs[:m], specs[m:], turn,
                                           pool)))
        del specs
        # each output's index offset, exact mass and linear length (at
        # most size); `fixes` moves each product coefficient past size,
        # which the length-size inverse transform wraps onto the output's
        # head, to its own index
        shapes, fixes = [], []
        for t in range(m):
            offset, mass, length = t * h % n, 0, 0
            for a in range(m):
                b = (t - a) % m
                u, v = vecs[a], vecs[m + b]
                if not (len(u) and len(v)):
                    continue
                mass += sums[a] * sums[m + b]
                lag = d if a + b >= m else 0
                end = len(u) + len(v) - 1 + lag
                length = max(length, min(size, end))
                if not lag:
                    continue
                for k, c in enumerate(_spill(u, v, size - lag, end - lag)):
                    fixes += [((offset + k) % n, -c),
                              ((offset + size + k) % n, c)]
            shapes.append((offset, mass, length))

        def inverse(t):
            # output t's inverse transform (None past the last output),
            # which drops its spectrum
            return lambda: (np.fft.irfft(spectra.pop(t), size) if t < m
                            else None)

        # the inverse transforms two at a time, one per thread
        out, cut = None, size // 2
        for t in range(0, m, 2):
            parts = _both(pool, inverse(t), inverse(t + 1))
            if out is None:  # allocated once the first spectra are freed
                out = np.zeros(n, dtype=np.int64)
            # each output rounded in two halves, one per thread; where
            # m > 1 its length is at most n, so the halves write disjoint
            # entries of out
            for (offset, mass, length), part in zip(shapes[t:t + 2], parts):
                if mass != sum(_both(
                        pool,
                        lambda: _round_into(out, part[:cut], offset,
                                            min(length, cut)),
                        lambda: _round_into(out, part[cut:], offset + cut,
                                            max(0, length - cut)))):
                    raise BadParams("FFT convolution lost mass")
            del parts, part
    for k, c in fixes:
        out[k] += c
    return out


def _second_thread() -> bool:
    """Whether one worker thread may run beside the caller: the process is
    not a multiprocessing child (a sweep's pool already keeps every core
    busy) and may run on at least two CPUs."""
    if multiprocessing.parent_process() is not None:
        return False
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2


def _block_count(n: int) -> int:
    """The index blocks cyclic_convolve takes at length n: 4 where
    n >= _SPLIT_MIN is not a power of two, else 1 (a power of two
    transforms directly at length n)."""
    return 1 if n < _SPLIT_MIN or n & (n - 1) == 0 else 4


def _indicator(v, n: int) -> np.ndarray:
    """v as uint8, if v is 1-D of length n with integer entries all 0 or
    1."""
    v = np.asarray(v)
    if v.ndim != 1 or len(v) != n:
        raise BadParams("cyclic_convolve needs both vectors 1-D of length n")
    if v.dtype.kind not in "iu":
        raise BadParams("cyclic_convolve needs integer entries, got %s"
                        % v.dtype)
    if int(v.min()) < 0 or int(v.max()) > 1:
        raise BadParams("cyclic_convolve needs entries 0 or 1")
    return v.astype(np.uint8, copy=False)


def cyclic_convolve(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Exact c[k] = #{i : x[i] = y[(k - i) mod n] = 1} for 0 <= k < n.

    x and y are 1-D integer vectors of length n whose entries are all 0
    or 1.  Anything else, or a transform the checks in the module
    docstring cannot certify, raises BadParams.
    """
    n = operator.index(n)
    if n <= 0:
        raise BadParams("cyclic_convolve needs n >= 1")
    return _convolve_fft(_indicator(x, n), _indicator(y, n), n,
                         _block_count(n))
