"""Exact convolution: the certified float FFT, its NTT fallback and the
schoolbook oracle, bit for bit."""

import numpy as np
import pytest

from fpsp.convolve import (_convolve_fft, _convolve_ntt, _fft_error_bound,
                           convolve_naive, cyclic_convolve)
from fpsp.errors import BadParams
from fpsp.rng import CounterRng


def test_lengths_small_sweep():
    # every length 1..40 hits at least one of: the trivial branch, the
    # direct power-of-two transform, the pad-and-fold path
    for n in range(1, 41):
        r = CounterRng(n, "conv-small")
        x = r.integers(0, 50, n)
        y = r.integers(0, 50, n)
        got = cyclic_convolve(x, y, n)
        want = convolve_naive(x, y, n)
        assert np.array_equal(got, want), "length %d" % n


def test_awkward_prime_lengths():
    for n in (17, 97, 101, 257, 1009):
        r = CounterRng(n, "conv-awkward")
        x = r.integers(0, 1000, n)
        y = r.integers(0, 1000, n)
        assert np.array_equal(cyclic_convolve(x, y, n),
                              convolve_naive(x, y, n)), n


def test_large_entries_no_overflow():
    # coefficients up to 10^6 * 10^6 * 64 = 6.4e16, inside the CRT modulus
    # ~7.5e17 but far outside a single 30-bit prime: catches any missing
    # CRT recombination
    r = CounterRng(0, "conv-big")
    n = 64
    x = r.integers(0, 10 ** 6, n)
    y = r.integers(0, 10 ** 6, n)
    got = cyclic_convolve(x, y, n)
    want = np.array([sum(int(x[i]) * int(y[(k - i) % n]) for i in range(n))
                     for k in range(n)], dtype=np.int64)
    assert np.array_equal(got, want)
    assert want.max() > 998244353  # the check is only meaningful past one prime
    # the FFT's a-priori bound refuses these entries, so the NTT answers
    bound = np.sqrt(float(np.dot(x, x)) * float(np.dot(y, y))) \
        * _fft_error_bound(6)
    assert bound >= 0.25
    assert _convolve_fft(x, y, n) is None


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
    assert cyclic_convolve(np.array([7]), np.array([6]), 1).tolist() == [42]
    with pytest.raises(BadParams):
        cyclic_convolve(np.array([1, 2]), np.array([1]), 2)
    with pytest.raises(BadParams):
        cyclic_convolve(np.array([], dtype=np.int64),
                        np.array([], dtype=np.int64), 0)


def test_seeded_random_lengths_loop():
    # 60 random (length, values) instances, mixed magnitudes
    rng = CounterRng(42, "conv-loop")
    for trial in range(60):
        n = 1 + int(rng.below(300))
        hi = 2 + int(rng.below(5000))
        x = rng.integers(0, hi, n)
        y = rng.integers(0, hi, n)
        assert np.array_equal(cyclic_convolve(x, y, n),
                              convolve_naive(x, y, n)), (trial, n, hi)


def test_fft_ntt_naive_bit_identical():
    # power-of-two lengths (direct), pad-and-fold lengths, and p - 1 for
    # p in {101, 257, 1009, 10007}; indicators and small integer entries
    lengths = (2, 8, 64, 1024, 3, 17, 97, 1009, 100, 256, 1008, 10006)
    for n in lengths:
        r = CounterRng(n, "conv-fft")
        for hi in (2, 50):
            x = r.integers(0, hi, n)
            y = r.integers(0, hi, n)
            if n > 1024:  # keep the schoolbook loop short: at most 40 x[i]
                keep = np.zeros(n, dtype=bool)
                keep[r.integers(0, n, 40)] = True
                x[~keep] = 0
            fft = _convolve_fft(x, y, n)
            assert fft is not None, (n, hi)
            assert fft.dtype == np.int64
            assert np.array_equal(fft, _convolve_ntt(x, y, n)), (n, hi)
            assert np.array_equal(fft, convolve_naive(x, y, n)), (n, hi)
            assert np.array_equal(cyclic_convolve(x, y, n), fft), (n, hi)


def test_fft_taken_on_large_indicators():
    # 2^16-scale indicator pairs: n = 65536 transforms directly, n = 65537
    # pads to 2^18; both certify and match the NTT
    for n in (65536, 65537):
        r = CounterRng(n, "conv-fft-large")
        x = np.zeros(n, dtype=np.int64)
        y = np.zeros(n, dtype=np.int64)
        x[r.integers(0, n, 5000)] = 1
        y[r.integers(0, n, 20000)] = 1
        fft = _convolve_fft(x, y, n)
        assert fft is not None, n
        assert int(fft.sum()) == int(x.sum()) * int(y.sum())
        assert np.array_equal(fft, _convolve_ntt(x, y, n)), n
