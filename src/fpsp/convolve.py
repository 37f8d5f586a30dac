"""Exact integer cyclic convolution by a certified float FFT over limbs.

This is the "transform" route behind representation-function histograms,
so counts must come out bit-exact.  It cuts each input into one or two
index blocks of length h = ceil(n / blocks), zero-pads them to a radix-2
length N = 2^k (N = n for one block of power-of-two length n, else
N >= 2h - 1, so that every block product is linear) and multiplies numpy
rfft/irfft spectra in float64.  There is one route and no fallback: a
result is returned only when it is certified exact, and any failed check
raises BadParams.

* Inputs.  x and y are 1-D integer vectors of length n with nonnegative
  entries and sum(x) sum(y) < 2^63 (checked on Python ints).  Every
  coefficient is at most that mass, so every partial sum below stays
  exact in int64.  Each input is kept in its narrowest exact dtype:
  uint8 when every entry is below 256 (indicators), else int64.  Sums
  and sums of squares are taken with dtype=int64 (np.dot would
  accumulate in uint8 and wrap).
* Limbs.  Each input is split into base-2^s limbs, x = sum_i x_i 2^(is)
  with 0 <= x_i < 2^s, and s is the widest width for which every limb
  pair passes the a-priori bound below.  The FFT of each limb block is
  taken once, each limb pair's products are certified on their own, and
  c = sum_ij c_ij 2^((i+j)s) is recombined by int64 shifts.  Indicator
  vectors (every use in this package) need one limb.
* Blocks.  Blocks are offsets in the index domain as limbs are shifts in
  the bit domain.  With two blocks, x = x_0 + z^h x_1 and y likewise, so
  x y = x_0 y_0 + z^h (x_0 y_1 + x_1 y_0) + z^2h x_1 y_1.  Mod z^n - 1,
  z^2h = z^d with d = 2h - n, 0 for even n and 1 for odd, so x_0 y_0 and
  z^d x_1 y_1 share one output of linear length at most 2h - 1 <= N:
  per limb pair, two inverse transforms, of G_1 = X_0 Y_0 + w^d X_1 Y_1
  (w^k = exp(-2 pi i k / N), the spectrum of a shift by d) and
  G_2 = X_0 Y_1 + X_1 Y_0, added into the result at index offset 0 (no
  wrap: 2h - 1 <= n) and h mod n.  One block is one rfft per side and one
  irfft, folded mod n.
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
  Each spectrum of two blocks is a computed sum fl(P + Q): each product
  carries one more rounding 1+e.  For odd n, Q = fl(W X_1 Y_1) carries
  one more complex product 1 + e sqrt5 and one more twiddle error 1+b:
  W is a table entry w^j (j < 2^15, within about 2e for N >= 2^17)
  times one directly computed w^i (within about 4e), so within about 8e
  of w^(i+j).  The shift is unitary, and the inverse transform is
  linear, with Percival's bound on its error a sum of terms linear in
  its input and in the error already in that input.  So an output
  holding the products of blocks (a, b) and (a', b') errs by at most
      (||x_a|| ||y_b|| + ||x_a'|| ||y_b'||)
          ((1+e)^(3k+1) (1+e sqrt5)^(3k+1+d) (1+b)^(3k+d) - 1),
  and by Cauchy-Schwarz both sums of norms are at most ||x|| ||y||.
  The bound is computed from the exact limb norms (sums of squares in
  int64, refused where they could overflow) and must be below 1/4.  For
  indicator vectors ||x||_2 ||y||_2 <= n <= 2^20 and the bound is about
  1e-7.
* A posteriori.  Every output of every inverse transform lies within 1/4
  of an integer, and its rounded mass is exactly the sum of
  sum(x_a) sum(y_b) over its products (limb by limb).
* Threads.  Two blocks run their transforms two at a time, on the
  calling thread and on one worker thread (numpy's FFT releases the
  GIL) that takes every other one: X_0 beside X_1, Y_0 beside Y_1, then
  G_1 beside G_2, and the calling thread rounds both: six transforms in
  three rounds for one limb pair.  The products are formed half on each
  thread.  cyclic_convolve takes two blocks only where a second thread
  may run (the process is not a multiprocessing child, whose pool already
  keeps every core busy, and may run on at least two CPUs) and where it
  pays (n >= 2^16, and n not a power of two, for which two blocks would
  not halve N); else one block, all on the calling thread.  Both give the
  same certified integers.  At n = 1048573 two blocks take length-2^20
  transforms in place of length-2^21 ones; on a 2-core x86 host one
  convolution of two 1% indicators there took 0.16-0.18 s, against
  0.18-0.21 s with a third inverse transform for X_1 Y_1 and 0.28-0.32 s
  on one block.  Below n = 2^16 the thread did not pay: 0.95 of the
  one-block time at n = 32749.
* Working set.  Products are formed, and outputs rounded, in chunks of
  2^15 entries, written over the spectra and outputs they read, and every
  buffer is freed before the next is allocated; the int64 result (which
  owns its n entries) is allocated once the inverse transforms have
  consumed their spectra.  One indicator histogram at n = 1048573 peaks
  at about 42 MB of numpy arrays on numpy 2 either way.  On one block
  (N = 2^21, 16 MB per spectrum or float64 output) that is one spectrum
  held while the other forward transform runs.  On two blocks (N = 2^20,
  8 MB each) it is two spectra held while two forward transforms run,
  each with numpy 2's 4 MB float64 copy of a uint8 block; then the two
  product spectra and their two outputs, then the two outputs and the
  result while they are rounded.

Splitting into limbs for floating-point FFT products follows Brent and
Zimmermann, Modern Computer Arithmetic (CUP 2010), chapters 2-3.
"""

from __future__ import annotations

import cmath
import math
import multiprocessing
import operator
import os

import numpy as np

from .errors import BadParams

_TWIDDLE_ERR = 10  # twiddle error bound, in units of 2^-53
_INT64_END = 1 << 63
_CHUNK = 1 << 15  # entries per step of the spectrum products and rounding
_SPLIT_MIN = 1 << 16  # shortest n split into two blocks on two threads


def _sum_squares(v: np.ndarray) -> int | None:
    """Exact sum of v[i]^2 (v >= 0), or None where int64 could overflow."""
    top = int(v.max())
    if top * top * len(v) >= _INT64_END:
        return None
    # accumulate in int64 without a widened copy of v
    return int(np.einsum("i,i->", v, v, dtype=np.int64))


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


def _limbs(v, s: int, bits: int) -> list:
    """The base-2^s digits of v's entries (below 2^bits), low first; v is
    an array or one Python int."""
    if s >= bits:
        return [v]
    mask = (1 << s) - 1
    return [(v >> (s * i)) & mask for i in range(-(-bits // s))]


def _split(x: np.ndarray, y: np.ndarray, size: int, blocks: int = 1,
           shift: int = 0) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """The widest limb width s for which every limb pair of x and y passes
    the a-priori bound at transform length size over `blocks` index
    blocks (the second one's outer product shifted by `shift`), with both
    limb lists.  A width that the digits of the largest entries already
    refuse (each digit is at most its limb's largest entry, and its
    square at most the limb's sum of squares) is passed over before any
    limb is built."""
    bound = _fft_error_bound(size.bit_length() - 1, blocks - 1, shift)
    tx, ty = int(x.max()), int(y.max())
    bx, by = max(tx.bit_length(), 1), max(ty.bit_length(), 1)
    for s in range(max(bx, by), 0, -1):
        dx, dy = max(_limbs(tx, s, bx)), max(_limbs(ty, s, by))
        if max(dx, dy) ** 2 * len(x) >= _INT64_END or \
                float(dx * dx * dy * dy) * bound * bound >= 1 / 16:
            continue
        lx, ly = _limbs(x, s, bx), _limbs(y, s, by)
        sx = [_sum_squares(v) for v in lx]
        sy = [_sum_squares(v) for v in ly]
        if None not in sx + sy and \
                float(max(sx) * max(sy)) * bound * bound < 1 / 16:
            return s, lx, ly
    raise BadParams("no limb width certifies a length-%d FFT convolution"
                    % size)


def _two_threads(fn, items: list, pool):
    """Yield (tag, fn(v)) for each (tag, v) taken off the front of items.
    With a pool, its one worker thread takes every other item, a step
    ahead of this thread, and is handed its next item as soon as its
    result is collected, before any result is yielded.  Taking an item
    drops the list's reference to v, and an exception raised on either
    thread reaches the caller."""
    def hand_off():
        tag, v = items.pop(0)
        return tag, pool.submit(fn, v)

    busy = hand_off() if pool is not None and items else None
    while busy is not None or items:
        ready = []
        if items:
            tag, v = items.pop(0)
            ready.append((tag, fn(v)))
            del v
        if busy is not None:
            ready.append((busy[0], busy[1].result()))
            busy = hand_off() if items else None
        while ready:
            yield ready.pop(0)


def _twiddles(size: int):
    """The function (i, count) -> [w^i, ..., w^(i + count - 1)] for
    w = exp(-2 pi sqrt(-1) / size), i a multiple of _CHUNK and count at
    most _CHUNK: a base table of w^j (j < _CHUNK) built once, times one
    scalar w^i computed directly."""
    base = np.exp(-2j * math.pi / size
                  * np.arange(min(_CHUNK, size // 2 + 1)))
    return lambda i, count: (base[:count]
                             * cmath.exp(-2j * math.pi * i / size))


def _products(fx: list, fy: list, turn, spent: bool, pool) -> list:
    """The spectra of one limb pair's block products, formed _CHUNK
    entries at a time, the first half of the chunks on the pool's worker
    thread when there is a pool: X_0 Y_0 for one block; for two,
    X_0 Y_0 + W X_1 Y_1 and X_0 Y_1 + X_1 Y_0, where W is 1 or, when turn
    is given (a _twiddles function), the twiddles of a shift by one.
    spent=True writes them over fx[0] and fy[0], so no spectrum is
    allocated (and the inputs are spent)."""
    outs = ([fx[0], fy[0]][:len(fx)] if spent
            else [np.empty_like(fx[0]) for _ in fx])

    def run(lo, hi):
        for i in range(lo, hi, _CHUNK):
            c = slice(i, i + _CHUNK)
            if len(fx) == 1:
                outs[0][c] = fx[0][c] * fy[0][c]
                continue
            outer = fx[1][c] * fy[1][c]
            if turn is not None:
                outer *= turn(i, len(outer))
            outer += fx[0][c] * fy[0][c]
            inner = fx[0][c] * fy[1][c]
            inner += fx[1][c] * fy[0][c]
            outs[0][c], outs[1][c] = outer, inner

    end = len(fx[0])
    cut = -(-end // (2 * _CHUNK)) * _CHUNK
    for _ in _two_threads(lambda span: run(*span),
                          [(0, (0, cut)), (1, (cut, end))], pool):
        pass
    return outs


def _round_into(out: np.ndarray, part: np.ndarray, shift: int, offset: int,
                length: int) -> int:
    """Round part, add part[j] << shift into out[(offset + j) mod n] for
    j < length, and return the sum of every rounded entry of part; raise
    BadParams unless every entry lies within 1/4 of an integer.  part is
    spent (overwritten by its rounding errors).  Works in chunks of at
    most min(_CHUNK, n) entries, so one chunk wraps at most once and no
    temporary is longer than a chunk."""
    n = len(out)
    step = min(_CHUNK, n)
    total = 0
    for i in range(0, len(part), step):
        chunk = part[i:i + step]
        near = np.rint(chunk)
        chunk -= near
        if float(np.abs(chunk, out=chunk).max()) >= 0.25:
            raise BadParams("FFT convolution output not within 1/4 of an "
                            "integer")
        ints = near.astype(np.int64)
        total += int(ints.sum())
        ints = ints[:max(0, length - i)]
        ints <<= shift
        at = (offset + i) % n
        head = min(len(ints), n - at)
        out[at:at + head] += ints[:head]
        out[:len(ints) - head] += ints[head:]
    return total


def _convolve_fft(x: np.ndarray, y: np.ndarray, n: int,
                  blocks: int = 1) -> np.ndarray:
    """Cyclic convolution of nonnegative uint8 or int64 vectors of length
    n with sum(x) sum(y) < 2^63, over `blocks` (1 or 2) index blocks,
    certified exact limb pair by limb pair (see the module docstring)."""
    h = -(-n // blocks)
    size = (n if blocks == 1 and n & (n - 1) == 0
            else 1 << (2 * h - 2).bit_length())
    # x_1 y_1 lands at 2h = d mod n, d = 2h - n: in x_0 y_0's output,
    # shifted by d (0 for even n, 1 for odd)
    d = 2 * h - n if blocks == 2 else 0
    s, lx, ly = _split(x, y, size, blocks, d)
    # vecs[l * blocks + a] is block a of limb l of x, then of y
    vecs = [v[a * h:(a + 1) * h] for v in lx + ly for a in range(blocks)]
    sums = [int(v.sum(dtype=np.int64)) for v in vecs]
    # each output: its index offset and the block pairs (a, b) it holds,
    # with the shift of each product within it
    outputs = ([(0, [(0, 0, 0), (1, 1, d)]), (h, [(0, 1, 0), (1, 0, 0)])]
               if blocks == 2 else [(0, [(0, 0, 0)])])
    pool = None
    if blocks > 1:
        # imported here: a process that never splits (a sweep's pool
        # worker) does not load it, which costs 0.65 MB of RSS at import
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(1)
    try:
        specs = dict(_two_threads(lambda v: np.fft.rfft(v, size),
                                  list(enumerate(vecs)), pool))
        turn = _twiddles(size) if d else None  # after the forward peak
        # one spectrum per limb pair and output, tagged with its bit
        # shift, index offset, exact mass and linear length
        todo = []
        for i in range(len(lx)):
            for j in range(len(ly)):
                xi = range(i * blocks, (i + 1) * blocks)
                yj = range((len(lx) + j) * blocks, (len(lx) + j + 1) * blocks)
                prods = _products([specs[k] for k in xi],
                                  [specs[k] for k in yj], turn,
                                  len(lx) == len(ly) == 1, pool)
                for (offset, pairs), prod in zip(outputs, prods):
                    mass = sum(sums[xi[a]] * sums[yj[b]] for a, b, _ in pairs)
                    length = max(len(vecs[xi[a]]) + len(vecs[yj[b]]) + lag
                                 for a, b, lag in pairs) - 1
                    todo.append(((s * (i + j), offset, mass,
                                  min(size, length)), prod))
                del prods, prod
        # drop the input spectra: for one limb pair only the products,
        # written over the inputs, are left
        del specs
        out = None
        for (shift, offset, mass, length), part in _two_threads(
                lambda sp: np.fft.irfft(sp, size), todo, pool):
            if out is None:  # allocated once the first spectra are freed
                out = np.zeros(n, dtype=np.int64)
            if _round_into(out, part, shift, offset, length) != mass:
                raise BadParams("FFT convolution lost mass")
            del part
    finally:
        if pool is not None:
            pool.shutdown()
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
    """The index blocks cyclic_convolve takes at length n: 2, on two
    threads, where a second thread may run and n >= _SPLIT_MIN is not a
    power of two (so that two blocks halve the transform length); else 1."""
    return 2 if n >= _SPLIT_MIN and n & (n - 1) and _second_thread() else 1


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
    return _convolve_fft(x, y, n, _block_count(n))
