"""Exact convolution of 0/1 vectors: the certified float FFT against the
schoolbook and NTT oracles of tests/oracles.py, bit for bit, its refusal
of any other input, and its a-priori error bound on point counts."""

import os
import sys
import threading
import math
import time
from fractions import Fraction
from multiprocessing import get_context

import numpy as np
import pytest

from fpsp import convolve
from fpsp.convolve import (_block_count, _certify, _convolve_fft,
                           _fft_error_bound, cyclic_convolve)
from fpsp.errors import BadParams
from fpsp.rng import CounterRng
from oracles import _convolve_ntt, convolve_naive


def _norm_product(x, y):
    """||x||_2 ||y||_2 in float, from sums of squares on Python ints."""
    return (sum(int(v) ** 2 for v in x) * sum(int(v) ** 2 for v in y)) ** 0.5


def test_lengths_small_sweep():
    # every length 1..40 takes the direct power-of-two transform (length
    # 1 included) or the pad-and-fold path
    for n in range(1, 41):
        r = CounterRng(n, "conv-small")
        x = r.integers(0, 2, n)
        y = r.integers(0, 2, n)
        got = cyclic_convolve(x, y, n)
        want = convolve_naive(x, y, n)
        assert np.array_equal(got, want), "length %d" % n


def test_awkward_prime_lengths():
    for n in (17, 97, 101, 257, 1009):
        r = CounterRng(n, "conv-awkward")
        x = r.integers(0, 2, n)
        y = r.integers(0, 2, n)
        assert np.array_equal(cyclic_convolve(x, y, n),
                              convolve_naive(x, y, n)), n


def test_negative_entries_refused():
    with pytest.raises(BadParams):
        cyclic_convolve([-(1 << 30), 0, 0, 0], [1 << 30, 0, 0, 0], 4)


def test_float_entries_refused():
    with pytest.raises(BadParams):
        cyclic_convolve([0.5, 1.7], [1, 1], 2)


def test_two_dimensional_input_refused():
    with pytest.raises(BadParams):
        cyclic_convolve(np.ones((2, 2), dtype=np.int64),
                        np.ones((2, 2), dtype=np.int64), 2)


def test_non_indicators_refused_before_any_transform(monkeypatch):
    # an entry other than 0 or 1 in any integer dtype, float entries, a
    # 2-D input or a length mismatch, on either side, raises BadParams
    # before any rfft runs
    calls = []
    rfft = np.fft.rfft

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    n = 1000
    ones = np.zeros(n, dtype=np.uint8)
    ones[::7] = 1

    def with_entry(value, dtype):
        v = ones.astype(dtype)
        v[500] = value
        return v

    for bad in (with_entry(2, np.int64), with_entry(255, np.uint8),
                with_entry(-1, np.int64), ones.astype(np.float64),
                np.ones((2, n // 2), dtype=np.uint8), ones[:-1]):
        for x, y in ((bad, ones), (ones, bad)):
            with pytest.raises(BadParams, match="cyclic_convolve needs"):
                cyclic_convolve(x, y, n)
    assert calls == []
    assert np.array_equal(cyclic_convolve(ones, ones, n),
                          convolve_naive(ones, ones, n))
    assert calls


def test_certify_takes_point_counts():
    # An indicator's squared norm is its point count.  At N = 2^21, on one
    # block and on four (with and without the shift twiddle), two
    # 2^20-point indicators pass, and of two count pairs 10^-9 inside and
    # outside the bound the first passes and the second is refused, each
    # as the bound compared exactly on Fractions says.  Full indicators of
    # length N first fail at N = 2^41, so only a direct call reaches a
    # refusal.
    size = 1 << 21
    for blocks, turns in ((1, 0), (4, 0), (4, 1)):
        bound = Fraction(_fft_error_bound(21, blocks - 1, turns))
        edge = math.isqrt(int(1 / (16 * bound * bound)))
        verdicts = []
        for sx, sy in ((1 << 20, 1 << 20), (edge - edge // 10 ** 9, edge),
                       (edge + edge // 10 ** 9, edge)):
            verdicts.append(sx * sy * bound * bound < Fraction(1, 16))
            if verdicts[-1]:
                _certify(sx, sy, size, blocks, turns)
            else:
                with pytest.raises(BadParams, match="a-priori"):
                    _certify(sx, sy, size, blocks, turns)
        assert verdicts == [True, True, False], (blocks, turns)
    _certify(1 << 40, 1 << 40, 1 << 40, 1, 0)
    with pytest.raises(BadParams, match="a-priori"):
        _certify(1 << 41, 1 << 41, 1 << 41, 1, 0)


def test_numpy_integer_length():
    got = cyclic_convolve(np.array([1, 0]), np.array([0, 1]), np.int64(2))
    assert got.tolist() == [0, 1]


def test_indicator_autocorrelation_identity():
    # for indicators, sum of the cyclic convolution is |X| * |Y|
    r = CounterRng(1, "conv-ind")
    n = 128
    x = (r.integers(0, 2, n) > 0).astype(np.int64)
    y = (r.integers(0, 2, n) > 0).astype(np.int64)
    c = cyclic_convolve(x, y, n)
    assert int(c.sum()) == int(x.sum()) * int(y.sum())
    assert (c >= 0).all()


def test_length_one_and_errors():
    assert cyclic_convolve(np.array([1]), np.array([1]), 1).tolist() == [1]
    with pytest.raises(BadParams):
        cyclic_convolve(np.array([1, 0]), np.array([1]), 2)
    with pytest.raises(BadParams):
        cyclic_convolve(np.array([], dtype=np.int64),
                        np.array([], dtype=np.int64), 0)


def test_seeded_random_lengths_loop():
    # 60 random (length, density) instances, empty and full vectors
    # included
    rng = CounterRng(42, "conv-loop")
    for trial in range(60):
        n = 1 + int(rng.below(300))
        cut = int(rng.below(n + 1))
        x = (rng.integers(0, n, n) < cut).astype(np.int64)
        y = (rng.integers(0, n, n) < cut).astype(np.int64)
        assert np.array_equal(cyclic_convolve(x, y, n),
                              convolve_naive(x, y, n)), (trial, n, cut)


def test_fft_ntt_naive_bit_identical():
    # power-of-two lengths (direct), pad-and-fold lengths, and p - 1 for
    # p in {101, 257, 1009, 10007}
    lengths = (2, 8, 64, 1024, 3, 17, 97, 1009, 100, 256, 1008, 10006)
    for n in lengths:
        r = CounterRng(n, "conv-fft")
        x = r.integers(0, 2, n)
        y = r.integers(0, 2, n)
        if n > 1024:  # keep the schoolbook loop short: at most 40 x[i]
            keep = np.zeros(n, dtype=bool)
            keep[r.integers(0, n, 40)] = True
            x[~keep] = 0
        fft = _convolve_fft(x, y, n)
        assert fft.dtype == np.int64
        assert np.array_equal(fft, _convolve_ntt(x, y, n)), n
        assert np.array_equal(fft, convolve_naive(x, y, n)), n
        assert np.array_equal(cyclic_convolve(x, y, n), fft), n


def test_fft_taken_on_large_indicators():
    # 2^16-scale indicator pairs: n = 65536 transforms directly, n = 65537
    # pads to 2^18; both pass the a-priori bound with a margin of more
    # than 10^6 and match the NTT
    for n in (65536, 65537):
        r = CounterRng(n, "conv-fft-large")
        x = np.zeros(n, dtype=np.int64)
        y = np.zeros(n, dtype=np.int64)
        x[r.integers(0, n, 5000)] = 1
        y[r.integers(0, n, 20000)] = 1
        size = n if n == 65536 else 1 << 18
        assert 4 * _norm_product(x, y) * _fft_error_bound(
            size.bit_length() - 1) < 1e-6, n
        fft = _convolve_fft(x, y, n)
        assert int(fft.sum()) == int(x.sum()) * int(y.sum())
        assert np.array_equal(fft, _convolve_ntt(x, y, n)), n


def test_narrow_and_shared_inputs_bit_identical():
    # 0/1 entries as uint8 or int64, and one array passed for both sides
    # against a distinct copy (the in-place spectrum product must not
    # alias), give the same int64 counts; every result owns its n entries
    # (no view of the padded transform buffer)
    for n in (1024, 1009, 65537):
        r = CounterRng(n, "conv-narrow")
        x = np.zeros(n, dtype=np.int64)
        y = np.zeros(n, dtype=np.int64)
        x[r.integers(0, n, n // 10)] = 1
        y[r.integers(0, n, n // 5)] = 1
        want = cyclic_convolve(x, y, n)
        got = cyclic_convolve(x.astype(np.uint8), y.astype(np.uint8), n)
        assert got.dtype == np.int64 and np.array_equal(got, want), n
        assert got.flags.owndata and want.flags.owndata, n
        for v in (x, x.astype(np.uint8)):
            shared = cyclic_convolve(v, v, n)
            assert shared.dtype == np.int64 and shared.flags.owndata
            assert np.array_equal(shared, cyclic_convolve(v, v.copy(), n))
        if n <= 1024:
            assert np.array_equal(want, convolve_naive(x, y, n)), n


def test_transform_memory_bounded():
    """One transform-route histogram at p = 1048573 peaks at most 12 MB of
    traced numpy arrays above a base taken on the running numpy: one
    length-N/2+1 complex spectrum and its irfft at N = 2^21.  The base is
    32 MB on numpy 2 and 64 MB on numpy 1.x, whose irfft pads the
    spectrum to length N.

    The route cuts each uint8 indicator into four blocks, and every
    transform has length 2^19 (4 MB per spectrum or float64 output).  The
    forward transforms run two at a time, one per thread, each with the
    2 MB float64 copy numpy 2's rfft makes of a uint8 block, until all
    eight block spectra are held.  The four output
    spectra G_t = sum_a X_a Y_(t-a mod 4) are then formed 32 Ki entries at
    a time over X_0..X_3, each thread holding its chunk's four outputs and
    their product temporaries beside the eight spectra: the peak,
    41.5-42.3 MB on numpy 2.4 (38.2 MB on one CPU, where one thread forms
    them all).  The Y spectra are then dropped, and the four outputs are
    transformed back and rounded beside the 8 MB int64 result (at most
    35.3 MB).  int64 indicators alone would add 14 MB, and out-of-place
    temporaries more (80 MB in all on numpy 2 on one block)."""
    import tracemalloc
    from fpsp.energy import rep_fn
    from fpsp.field import make_field
    from fpsp.sets import generate
    size = 1 << 21
    np.fft.irfft(np.zeros(5, dtype=np.complex128), 8)
    tracemalloc.start()
    try:
        np.fft.irfft(np.zeros(size // 2 + 1, dtype=np.complex128), size)
        base = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    f = make_field(1048573)
    a = generate(f, "random", size=6000, seed=1, zero_free=True)
    b = generate(f, "random", size=6000, seed=2, zero_free=True)
    tracemalloc.start()
    try:
        r = rep_fn(a, b, "sum", method="transform")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= base + 12 * 2 ** 20, (peak, base)
    assert r.counts.flags.owndata and r.counts.nbytes == 8 * f.p
    assert int(r.counts.sum()) == r.mass


@pytest.fixture
def two_cpus(monkeypatch):
    """A second thread may run, whatever CPUs the tests are pinned to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


# n from 1 up to the transform route's lengths p - 1 and p at p = 1048573:
# odd and even, powers of two and their neighbours; four blocks shift the
# wrapped products by d = 4h - n = 3 (n = 1, 5, 65537, 1048573), 2 (n = 2,
# 6), 1 (n = 3, 7, 999) and 0
BLOCK_LENGTHS = (1, 2, 3, 5, 6, 7, 999, 1000, 1024, 65537, 1048572, 1048573)


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
def test_one_and_two_blocks_bit_identical(n):
    # The route on one, two and four blocks gives the same int64 counts
    # on uint8 indicators (on two and four blocks with the wrapped
    # products folded in, shifted by d), and all match an independent
    # oracle: the NTT up to n = 65537, else the schoolbook convolution on
    # an x of at most 40 points.
    r = CounterRng(n, "conv-blocks")
    ntt = n <= 65537

    def draw(count):  # an indicator of at most count points
        v = np.zeros(n, dtype=np.uint8)
        v[r.integers(0, n, count)] = 1
        return v

    x, y = draw(n if ntt else 40), draw(n if ntt else n // 8)
    one = _convolve_fft(x, y, n, 1)
    assert one.dtype == np.int64, n
    for blocks in (2, 4):
        got = _convolve_fft(x, y, n, blocks)
        assert got.dtype == np.int64, (n, blocks)
        assert got.flags.owndata and len(got) == n, (n, blocks)
        assert np.array_equal(got, one), (n, blocks)
    if ntt:
        want = _convolve_ntt(x.astype(np.int64), y.astype(np.int64), n)
    else:
        want = convolve_naive(x, y, n)
    assert np.array_equal(one, want), n


@pytest.mark.parametrize("n", (524309, 786433, 1048573))
def test_four_blocks_move_aliased_coefficients(n, monkeypatch):
    # The top three entries of every block are set on both sides.  At
    # n = 1048573 (h = 2^18, d = 3, N = 2^19) the wrapped product x_2 y_2,
    # shifted by d, runs two coefficients past N; the length-N inverse
    # transform wraps them onto the head of its output, and they are moved
    # back, computed exactly from the blocks' top entries: c[2h - 3] = 2
    # and c[2h - 2] = 1.  At n = 524309 and 786433 (N = 2^19 >= 2h + 2)
    # no output spills.
    spilled = []
    spill = convolve._spill

    def spy(*args):
        got = spill(*args)
        spilled.extend(got)
        return got

    monkeypatch.setattr(convolve, "_spill", spy)
    h = -(-n // 4)
    r = CounterRng(n, "conv-spill")
    x = np.zeros(n, dtype=np.uint8)
    y = np.zeros(n, dtype=np.uint8)
    x[r.integers(0, n, 20)] = 1
    y[r.integers(0, n, n // 8)] = 1
    for a in range(4):
        top = min(n, (a + 1) * h)
        x[top - 3:top] = y[top - 3:top] = 1
    got = _convolve_fft(x, y, n, 4)
    assert spilled == ([2, 1] if n == 1048573 else []), n
    assert np.array_equal(got, convolve_naive(x, y, n)), n


@pytest.mark.parametrize("n", (70000, 70001))
def test_two_blocks_fold_into_two_inverse_transforms(n, monkeypatch,
                                                     two_cpus):
    # m blocks take 2m rfft and m irfft, half of each on the worker
    # thread: the m^2 block products fold into m inverse transforms,
    # grouped by a + b mod m, at even n (no shift) and odd n (a shift by
    # d = mh - n: 1 for two blocks, 3 for four).
    r = CounterRng(n, "conv-count")
    calls = {"rfft": [], "irfft": []}

    def spy(name):
        fn = getattr(np.fft, name)

        def run(*args, **kwargs):
            calls[name].append(threading.current_thread()
                               is threading.main_thread())
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(np.fft, "rfft", spy("rfft"))
    monkeypatch.setattr(np.fft, "irfft", spy("irfft"))
    x, y = r.integers(0, 2, n), r.integers(0, 2, n)
    want = _convolve_fft(x, y, n, 1)
    for m in (2, 4):
        for seen in calls.values():
            seen.clear()
        assert np.array_equal(_convolve_fft(x, y, n, m), want), (n, m)
        for (name, seen), count in zip(calls.items(), (2 * m, m)):
            assert seen.count(True) == seen.count(False) == count // 2, \
                (n, m, name, seen)


def test_error_bound_counts_adds_and_one_turn(monkeypatch):
    # Each of the m outputs sums m block products: m - 1 more roundings.
    # Where d > 0 the wrapped ones are multiplied by one shift twiddle,
    # one more product whatever d is (turns = 1).
    seen = []
    bound = convolve._fft_error_bound

    def spy(k, adds=0, turns=0):
        seen.append((k, adds, turns))
        return bound(k, adds, turns)

    monkeypatch.setattr(convolve, "_fft_error_bound", spy)
    for n, blocks, want in ((1048573, 4, (19, 3, 1)),
                            (1048572, 4, (19, 3, 0)),
                            (70001, 4, (16, 3, 1)),
                            (1048573, 2, (20, 1, 1)),
                            (1048572, 2, (20, 1, 0)),
                            (1048573, 1, (21, 0, 0))):
        x = np.zeros(n, dtype=np.uint8)
        x[[0, 1, n - 1]] = 1
        seen.clear()
        assert _convolve_fft(x, x, n, blocks)[:3].tolist() == [3, 2, 1]
        assert seen == [want], (n, blocks)
        # an indicator's norms are at most n: far inside the 1/4 bound
        assert n * bound(*want) < 1e-6


@pytest.mark.parametrize("n, blocks", ((1000, 1), (65521, 1), (1 << 20, 1),
                                       (65537, 4), (524309, 4), (1048573, 4)))
def test_dense_indicators_within_the_a_priori_bound(n, blocks, monkeypatch):
    # At lengths the route takes on one block and on four, the largest
    # distance of an inverse transform's output from its nearest integer,
    # before rounding, stays below the a-priori bound the route certified
    # (_fft_error_bound(k, m - 1, turns) ||x|| ||y||) on two dense (1/2)
    # indicators.  The observed-to-bound ratio is printed.
    factors, errors = [], []
    bound, round_into = convolve._fft_error_bound, convolve._round_into

    def spy_bound(k, adds=0, turns=0):
        factors.append(bound(k, adds, turns))
        return factors[-1]

    def spy_round(out, part, offset, length):
        if len(part):
            errors.append(float(np.abs(part - np.rint(part)).max()))
        return round_into(out, part, offset, length)

    monkeypatch.setattr(convolve, "_fft_error_bound", spy_bound)
    monkeypatch.setattr(convolve, "_round_into", spy_round)
    r = CounterRng(n, "conv-margin")
    x = r.integers(0, 2, n).astype(np.uint8)
    y = r.integers(0, 2, n).astype(np.uint8)
    assert _block_count(n) == blocks
    got = cyclic_convolve(x, y, n)
    assert int(got.sum()) == int(x.sum()) * int(y.sum())
    limit = factors[0] * _norm_product(x, y)
    assert len(factors) == 1 and max(errors) < limit, (max(errors), limit)
    print("n=%d blocks=%d observed %.3g, bound %.3g, ratio %.3g"
          % (n, blocks, max(errors), limit, max(errors) / limit))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0 ** -60,
                    reason="long double is no wider than float64 here")
def test_shift_twiddles_within_the_assumed_error():
    # the twiddles of a shift by d = 1, 2 or 3, chunk by chunk as the
    # products take them, lie within _TWIDDLE_ERR units of 2^-53 of
    # exp(-2 pi i d j / N) computed in long double, at every transform
    # length of the route
    pi = 4 * np.arctan(np.longdouble(1))
    chunk = convolve._CHUNK
    for k in range(16, 22):
        size = 1 << k
        m = size // 2 + 1
        for d in (1, 2, 3):
            turn = convolve._twiddles(size, d)
            got = np.concatenate([turn(i, min(chunk, m - i))
                                  for i in range(0, m, chunk)])
            exps = (d * np.arange(m)) % size
            angle = -2 * pi * exps.astype(np.longdouble) / size
            err = np.hypot(got.real - np.cos(angle),
                           got.imag - np.sin(angle))
            assert float(err.max()) < convolve._TWIDDLE_ERR * 2.0 ** -53, \
                (k, d)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0 ** -60,
                    reason="long double is no wider than float64 here")
def test_numpy_twiddles_within_the_assumed_error():
    # rfft of the unit impulse e_1 at length N returns w^j (j <= N/2,
    # w = exp(-2 pi i / N)) through numpy's own twiddles; at every N =
    # 2^1..2^21 they lie within _TWIDDLE_ERR units of 2^-53 of w^j
    # computed in long double (at most 2.5 units on numpy 2.4.6)
    pi = 4 * np.arctan(np.longdouble(1))
    for k in range(1, 22):
        size = 1 << k
        impulse = np.zeros(size)
        impulse[1] = 1
        got = np.fft.rfft(impulse)
        angle = -2 * pi * np.arange(size // 2 + 1, dtype=np.longdouble) / size
        err = np.hypot(got.real - np.cos(angle), got.imag - np.sin(angle))
        assert float(err.max()) < convolve._TWIDDLE_ERR * 2.0 ** -53, k


def _fft_threads(n):
    """The block count cyclic_convolve picks for length n, and whether its
    forward transforms ran on the main thread (True), another (False) or
    both.  Top-level, so a Pool worker can run it."""
    seen = set()
    rfft = np.fft.rfft

    def spy(*args, **kwargs):
        seen.add(threading.current_thread() is threading.main_thread())
        return rfft(*args, **kwargs)

    x = np.zeros(n, dtype=np.uint8)
    x[:3] = 1
    np.fft.rfft = spy
    try:
        got = cyclic_convolve(x, x, n)
    finally:
        np.fft.rfft = rfft
    assert got[:5].tolist() == [1, 2, 3, 2, 1]
    return _block_count(n), seen


def test_second_thread_only_with_two_cpus_outside_a_pool(monkeypatch):
    # The block count follows n alone: four blocks from _SPLIT_MIN up,
    # except at a power of two, which transforms directly.  Only whether
    # the worker thread runs depends on the CPUs the process may use.
    n = 65537  # the shortest length that splits: >= 2^16, not a power of 2
    for cpus, threads in (({0, 1}, {True, False}), ({0}, {True})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert _fft_threads(n) == (4, threads), cpus
    for n, blocks in ((convolve._SPLIT_MIN - 1, 1), (65536, 1),
                      (1 << 20, 1), (65537, 4), (524287, 4), (524309, 4),
                      (1048572, 4), (1048573, 4)):
        assert _block_count(n) == blocks, n


def test_no_second_thread_in_a_pool_worker():
    # a sweep's pool workers already keep every core busy: they take the
    # same four blocks, all on the calling thread
    with get_context("spawn").Pool(1) as pool:
        got = pool.apply_async(_fft_threads, (65537,)).get(timeout=120)
    assert got == (4, {True})


def test_two_blocks_under_frequent_thread_switches(two_cpus):
    # the worker thread forms the first half of every product and the
    # calling thread the second, in place in shared spectra, and both
    # round disjoint index ranges of the last outputs into one result;
    # with thread switches forced often, repeated runs on two and four
    # blocks still equal the one-block route
    n = 70001
    r = CounterRng(11, "conv-switch")
    x = r.integers(0, 2, n).astype(np.uint8)
    y = r.integers(0, 2, n).astype(np.uint8)
    want = _convolve_fft(x, y, n, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for blocks in (2, 4):
                assert np.array_equal(_convolve_fft(x, y, n, blocks), want)
    finally:
        sys.setswitchinterval(interval)


def test_worker_failures_reach_the_caller(monkeypatch, two_cpus):
    # the worker runs every other inverse transform (the first holds
    # X_0 Y_0 and the wrapped products); a rounding failure in its output
    # is refused, and an exception raised in the worker is raised to the
    # caller, on two blocks and on four
    n = 1000
    r = CounterRng(7, "conv-worker")
    x, y = r.integers(0, 2, n), r.integers(0, 2, n)
    irfft = np.fft.irfft
    calls = []

    def off_by(shift):
        def spy(*args, **kwargs):
            out = irfft(*args, **kwargs)
            worker = threading.current_thread() is not threading.main_thread()
            calls.append(worker)
            if worker:
                out[3] += shift
            return out
        return spy

    def refuse(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise BadParams("refused in the worker")
        return irfft(*args, **kwargs)

    for blocks in (2, 4):
        calls.clear()
        monkeypatch.setattr(np.fft, "irfft", off_by(0.0))
        assert np.array_equal(_convolve_fft(x, y, n, blocks),
                              convolve_naive(x, y, n))
        assert calls.count(True) == calls.count(False) == blocks // 2
        for spy, match in ((off_by(0.3), "within 1/4"),
                           (off_by(-0.3), "within 1/4"),
                           (off_by(1.0), "lost mass"),
                           (refuse, "refused in the worker")):
            monkeypatch.setattr(np.fft, "irfft", spy)
            with pytest.raises(BadParams, match=match):
                _convolve_fft(x, y, n, blocks)


def _tagged(tag, seen, wait=0.0):
    """A call that waits `wait` seconds, then records (tag, whether it ran
    on the main thread) in seen and returns tag."""
    def run():
        time.sleep(wait)
        seen.append((tag, threading.current_thread()
                     is threading.main_thread()))
        return tag
    return run


def test_both_without_a_pool_runs_in_order_on_the_caller():
    seen = []
    got = convolve._both(None, _tagged("first", seen), _tagged("second", seen))
    assert got == ("first", "second")
    assert seen == [("first", True), ("second", True)]


def test_both_runs_first_on_the_worker(two_cpus):
    seen = []
    with convolve._worker(True) as pool:
        assert pool is not None
        got = convolve._both(pool, _tagged("first", seen),
                             _tagged("second", seen))
    assert got == ("first", "second")
    assert sorted(seen) == [("first", False), ("second", True)]


def test_both_raises_only_after_both_calls_end(two_cpus):
    # the failing call ends at once; the other is still running, and is
    # recorded as done before the exception reaches the caller, whichever
    # thread failed
    def fail():
        raise BadParams("failed")

    with convolve._worker(True) as pool:
        for slow_on in ("worker", "caller"):
            seen = []
            slow = _tagged(slow_on, seen, 0.2)
            with pytest.raises(BadParams, match="failed"):
                convolve._both(pool, *((slow, fail) if slow_on == "worker"
                                       else (fail, slow)))
            assert seen == [(slow_on, slow_on == "caller")]


def _near_integers(r, count):
    """count integers in [0, 100) and the same plus noise below 1/4."""
    ints = r.integers(0, 100, count)
    return ints, ints + (r.integers(0, 401, count) - 200) / 1000


def test_round_into_wraps_the_tail_to_the_head():
    # entry j of a part is added at (offset + j) mod n for j < length, so
    # a range that runs past the end of out continues at its head, inside
    # one chunk or across chunks; the entries from length on are rounded
    # and counted in the total but not added
    out = np.zeros(10, dtype=np.int64)
    part = np.arange(1, 8) + 0.1
    assert convolve._round_into(out, part, 6, 6) == 28
    assert out.tolist() == [5, 6, 0, 0, 0, 0, 1, 2, 3, 4]
    chunk = convolve._CHUNK
    r = CounterRng(3, "conv-wrap")
    for n, offset, length, extra in ((3 * chunk // 2, chunk + 5,
                                      chunk + 100, 9),
                                     (2 * chunk + 3, 2 * chunk + 2, 40, 0),
                                     (chunk + 1, 0, chunk + 1, chunk)):
        ints, part = _near_integers(r, length + extra)
        want = np.zeros(n, dtype=np.int64)
        np.add.at(want, (offset + np.arange(length)) % n, ints[:length])
        out = np.zeros(n, dtype=np.int64)
        assert convolve._round_into(out, part, offset, length) == ints.sum()
        assert np.array_equal(out, want), (n, offset, length)


def test_wrapping_output_rounded_in_halves_on_two_threads(two_cpus):
    # the last of four outputs at n = 70001 (offset 3h, length up to the
    # transform length 2^16 <= n) runs past the end of the result; its two
    # halves, rounded at once on the worker and the calling thread as the
    # route rounds them, give the result and total of one rounding of the
    # whole output on one thread
    n, size = 70001, 1 << 16
    offset, cut = 3 * 17501, size // 2
    r = CounterRng(4, "conv-halves")
    base = r.integers(0, 1000, n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with convolve._worker(True) as pool:
            for length in (size, size - 7, cut - 3):
                ints, part = _near_integers(r, size)
                one, two = base.copy(), base.copy()
                total = convolve._round_into(one, part.copy(), offset,
                                             length)
                halves = convolve._both(
                    pool,
                    lambda: convolve._round_into(two, part[:cut], offset,
                                                 min(length, cut)),
                    lambda: convolve._round_into(two, part[cut:],
                                                 offset + cut,
                                                 max(0, length - cut)))
                assert sum(halves) == total == ints.sum(), length
                assert np.array_equal(two, one), length
    finally:
        sys.setswitchinterval(interval)
