"""Seeded differential fuzz: the transform route (certified float FFT, NTT
fallback) and the "auto" choice against the enumeration, and the FFT
against the NTT, over random primes and sizes plus the edge cases p = 3,
a full field, |A| = 1, 0 in the sets and small sets at p = 1048573; the
batched CounterRng draws against a scalar `below` oracle; and the fast
paths of the per-instance quantities (grouped moments, mu over gathered
values, the cached mu(g*h), the chunked pair counter) against their
direct forms."""

import copy
import math
from fractions import Fraction

import numpy as np

from fpsp.convolve import _convolve_fft, _convolve_ntt
from fpsp.energy import RepFn, moment, rep_fn
from fpsp.field import is_prime, make_field
from fpsp.functions import make_fn, mu, mu_product, pointwise_product
from fpsp.rng import CounterRng
from fpsp.sets import FSet, _pair_count, combine, generate

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


def _shuffle_oracle(rng, arr):
    """The Fisher-Yates of `shuffle`, one `below` per step."""
    for i in range(len(arr) - 1, 0, -1):
        j = rng.below(i + 1)
        arr[i], arr[j] = arr[j], arr[i]


def test_batched_shuffle_matches_scalar_oracle():
    for trial, n in enumerate((0, 1, 2, 3, 5, 8, 33, 101, 1000, 0, 1, 7)):
        fast, slow = CounterRng(trial, "shuffle"), CounterRng(trial, "shuffle")
        lead = trial % 32  # start anywhere in a block
        assert fast.bytes(lead) == slow.bytes(lead)
        base = fast.integers(-1000, 1000, n)
        assert np.array_equal(base, slow.integers(-1000, 1000, n))
        got, want = base.copy(), base.copy()
        fast.shuffle(got)
        _shuffle_oracle(slow, want)
        assert got.tolist() == want.tolist(), (trial, n)
        assert sorted(got.tolist()) == sorted(base.tolist())
        # same stream position: the next 64 bytes agree
        assert fast.bytes(64) == slow.bytes(64), (trial, n)


def _fuzz_primes(rng, trials):
    for _ in range(trials):
        p = 3 + int(rng.below(2000))
        while not is_prime(p):
            p += 1
        yield make_field(p)


def test_grouped_moment_matches_per_element_sum():
    rng = CounterRng(0, "fuzz-moment")
    f = make_field(1009)
    # counts up to 3e5: their 4th powers (up to 8.1e21) exceed 2^63
    for trial in range(30):
        top = (3, 50, 300_000)[trial % 3]
        counts = rng.integers(0, top + 1, f.p)
        if trial % 5 == 0:
            counts[:] = 0
        r = RepFn(f, "difference", counts, 1, 1)
        elems = counts[counts > 0].tolist()
        if top > 1 << 16 and elems:
            assert max(elems) ** 4 > 1 << 63
        for n in (1, 2, 3, 4, Fraction(8, 2)):
            want = sum(int(v) ** int(n) for v in elems)
            got = moment(r, n)
            assert type(got) is int and got == want, (trial, n)
        assert moment(r, 1.5) == math.fsum(float(v) ** 1.5 for v in elems)
    for f, b, c in _cases():
        if b.size and c.size:
            r = rep_fn(b, c, "difference")
            for n in (1, 2, 3, 4):
                want = sum(int(v) ** n for v in r.counts.tolist())
                assert moment(r, n) == want, (f.p, n)


def _mu_oracle(fn, domain=None):
    """The length-p bincount form of mu."""
    p = fn.field.p
    dom = np.arange(1, p) if domain is None else domain.elements()
    dom = dom[dom > 0]
    if len(dom) == 0:
        return 0
    return int(np.bincount(fn.values[dom], minlength=p).max())


def _fuzz_tables(f, rng, tag):
    seed = int(rng.below(1 << 30))
    return [make_fn(f, "random", seed=seed, instance_id=tag),
            make_fn(f, "power", k=2 + int(rng.below(12))),
            make_fn(f, "identity"), make_fn(f, "const", c=f.p - 1)]


def _fuzz_domains(f, rng, tag):
    empty = generate(f, "explicit", elements=[])
    zero = generate(f, "explicit", elements=[0])
    full = generate(f, "explicit", elements=range(f.p))
    some = _random_set(f, rng, 1 + int(rng.below(f.p - 1)), tag)
    with_zero = FSet(f, some.mask | (np.arange(f.p) == 0))
    return [empty, zero, full, some, with_zero]


def test_mu_matches_bincount_and_product_oracle():
    rng = CounterRng(0, "fuzz-mu")
    for trial, f in enumerate(_fuzz_primes(rng, 12)):
        tables = _fuzz_tables(f, rng, "mu-g%d" % trial)
        domains = _fuzz_domains(f, rng, "mu-d%d" % trial)
        for g in tables:
            for dom in (None, *domains):
                assert mu(g, dom) == _mu_oracle(g, dom), (f.p, g, dom)
                assert mu(g, dom) == _mu_oracle(g, dom)  # cached value
            for h in tables:
                gh = pointwise_product(g, h)
                for dom in (None, *domains):
                    want = _mu_oracle(gh, dom)
                    assert mu_product(g, h, dom) == want, (f.p, g, h, dom)
                    assert mu_product(g, h, dom) == want  # cached value


def test_mu_product_cache_follows_each_h():
    # A fresh h each round, dropped before the next: a reused id must not
    # hand back the product multiplicity of a dead table.
    f = make_field(211)
    g = make_fn(f, "power", k=6)
    for seed in range(40):
        h = make_fn(f, "random", seed=seed, instance_id="mu-h")
        want = _mu_oracle(pointwise_product(g, h))
        assert mu_product(g, h) == want, seed
        del h


def _pair_count_oracle(alpha, t, beta, p, support):
    rows = len(alpha) if np.ndim(alpha) else len(beta)
    want = np.zeros(p, dtype=np.int64)
    for i in range(rows):
        a = alpha[i] if np.ndim(alpha) else alpha
        b = 0 if beta is None else beta[i]
        np.add.at(want, (a * t + b) % p, 1)
    return want > 0 if support else want


def test_pair_count_matches_add_at_loop():
    rng = CounterRng(0, "fuzz-pair-count")
    p = 1009
    long_t = 2_000_001  # one row per chunk: several chunks
    for rows, width in ((0, 7), (5, 0), (1, 1), (7, 40), (300, 50),
                        (3, long_t)):
        t = rng.integers(0, p, width)
        alphas = rng.integers(0, p, rows)
        betas = rng.integers(0, p, rows)
        for alpha, beta in ((alphas, betas), (alphas, None), (1, betas),
                            (p - 1, betas)):
            for support in (False, True):
                got = _pair_count(alpha, t, beta, p, support)
                want = _pair_count_oracle(alpha, t, beta, p, support)
                assert got.dtype == want.dtype, (rows, width, support)
                assert np.array_equal(got, want), (rows, width, support)
