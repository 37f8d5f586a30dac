"""Seeded differential fuzz: the transform route (certified float FFT, NTT
fallback) and the "auto" choice against the enumeration, and the FFT
against the NTT, over random primes and sizes plus the edge cases p = 3,
a full field, |A| = 1, 0 in the sets and small sets at p = 1048573; and
the batched CounterRng draws against a scalar `below` oracle."""

import copy

import numpy as np

from fpsp.convolve import _convolve_fft, _convolve_ntt
from fpsp.energy import rep_fn
from fpsp.field import is_prime, make_field
from fpsp.rng import CounterRng
from fpsp.sets import FSet, combine, generate

P_LARGE = 1048573
NTT_MAX_P = 5000  # the NTT oracle is slow past a few thousand points


def _random_set(f, rng, n, tag):
    return generate(f, "random", size=n, seed=int(rng.below(1 << 30)),
                    instance_id=tag)


def _cases():
    """(field, B, C) triples: fixed edge cases, then seeded random ones."""
    rng = CounterRng(0, "fuzz-cases")
    for p in (3, 5, 7):
        f = make_field(p)
        full = generate(f, "explicit", elements=range(p))
        one = generate(f, "explicit", elements=[p - 1])
        zero = generate(f, "explicit", elements=[0])
        yield f, full, full
        yield f, one, full
        yield f, zero, one
        yield f, one, one
    for trial in range(40):
        p = 3 + int(rng.below(3000))
        while not is_prime(p):
            p += 1
        f = make_field(p)
        cap = min(p, 300)
        b = _random_set(f, rng, 1 + int(rng.below(cap)), "fz-b%d" % trial)
        c = _random_set(f, rng, 1 + int(rng.below(cap)), "fz-c%d" % trial)
        if trial % 3 == 0:
            b = FSet(f, b.mask | (np.arange(p) == 0))
        yield f, b, c
    f = make_field(P_LARGE)
    b = _random_set(f, rng, 1 + int(rng.below(60)), "fz-large-b")
    c = _random_set(f, rng, 1 + int(rng.below(60)), "fz-large-c")
    yield f, FSet(f, b.mask | (np.arange(P_LARGE) == 0)), c


def _nonzero(a):
    mask = a.mask.copy()
    mask[0] = False
    return FSet(a.field, mask)


def _indicator(n, elems):
    v = np.zeros(n, dtype=np.int64)
    v[elems] = 1
    return v


def test_transform_and_auto_match_enumeration():
    for i, (f, b, c) in enumerate(_cases()):
        tag = (i, f.p, b.size, c.size)
        bz, cz = _nonzero(b), _nonzero(c)
        for kind, x, y in (("difference", b, c), ("sum", b, c),
                           ("ratio", bz, cz)):
            if x.size == 0 or y.size == 0:
                continue
            want = rep_fn(x, y, kind, method="naive").counts
            for method in ("transform", "auto"):
                got = rep_fn(x, y, kind, method=method).counts
                assert np.array_equal(got, want), tag + (kind, method)
        for op in ("sum", "diff", "prod", "ratio"):
            y = cz if op == "ratio" else c
            if y.size == 0:
                continue
            want = combine(b, y, op, method="pairwise").mask
            for method in ("transform", "auto"):
                got = combine(b, y, op, method=method).mask
                assert np.array_equal(got, want), tag + (op, method)
        if f.p > NTT_MAX_P:
            continue
        # the two convolutions behind those routes, over Z_p and Z_{p-1}
        be, ce = b.elements(), c.elements()
        for n, xe, ye in ((f.p, be, ce),
                          (f.p - 1, f.dlog_table[bz.elements()],
                           f.dlog_table[cz.elements()])):
            x, y = _indicator(n, xe), _indicator(n, ye)
            if n == 1:
                continue
            fft = _convolve_fft(x, y, n)
            assert fft is not None, tag + (n,)
            assert np.array_equal(fft, _convolve_ntt(x, y, n)), tag + (n,)


# Spans that reject about a quarter of all 64-bit words (2^62 + 1 and
# 3 * 2^61 + 1), the int64 edges, and small and field-sized ones.
RNG_SPANS = (1, 2, 3, 7, 1048573, (1 << 32) + 1, (1 << 62) + 1,
             3 * (1 << 61) + 1, (1 << 63) - 1, 1 << 63)
RNG_SIZES = (0, 1, 2, 3, 5, 7, 13, 33, 101)


def _integers_oracle(rng, lo, hi, size):
    return np.array([lo + rng.below(hi - lo) for _ in range(size)],
                    dtype=np.int64)


def _subset_oracle(rng, population, k):
    """The partial Fisher-Yates of `subset`, one `below` per step."""
    swapped, picked = {}, []
    for i in range(k):
        j = i + rng.below(population - i)
        picked.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return np.array(sorted(picked), dtype=np.int64)


def _position(rng):
    """Bytes of the stream consumed so far."""
    return 32 * rng._counter - len(rng._buf)


def test_batched_rng_matches_scalar_oracle():
    drive = CounterRng(0, "fuzz-rng")

    def pick(seq):
        return seq[drive.below(len(seq))]

    rejected = 0
    for trial in range(400):
        fast, slow = CounterRng(trial, "rng"), CounterRng(trial, "rng")
        lead = 1 + trial % 31  # leaves 31 .. 1 bytes of the first block
        assert fast.bytes(lead) == slow.bytes(lead)
        for step in range(8):
            op = pick(("bytes", "u64", "below", "integers", "subset"))
            span, size = pick(RNG_SPANS), pick(RNG_SIZES)
            start = _position(fast)
            if op == "bytes":
                got, want = fast.bytes(size), slow.bytes(size)
            elif op == "u64":
                got, want = fast.u64(), slow.u64()
            elif op == "below":
                got, want = fast.below(span), slow.below(span)
            elif op == "integers":
                lo = pick((0, 1, -5, -(1 << 62), -(1 << 63) + 1))
                lo = min(lo, (1 << 63) - span)
                got = fast.integers(lo, lo + span, size)
                want = _integers_oracle(slow, lo, lo + span, size)
                assert got.dtype == np.int64
            elif op == "subset":
                k = min(size, span)
                got = fast.subset(span, k)
                want = _subset_oracle(slow, span, k)
                assert got.dtype == np.int64
            if isinstance(got, np.ndarray):
                got, want = got.tolist(), want.tolist()
            tag = (trial, step, op, span, size)
            assert got == want, tag
            # same stream position: the next 64 bytes agree
            assert copy.copy(fast).bytes(64) == copy.copy(slow).bytes(64), tag
            if op == "integers":
                rejected += (_position(fast) - start) // 8 - size
            elif op == "subset":
                rejected += (_position(fast) - start) // 8 - k
    assert rejected >= 100  # words the batched paths drew and threw away
