"""Seeded differential fuzz: the transform route (certified float FFT)
and the "auto" choice against the enumeration, and the FFT against the
NTT oracle of tests/oracles.py, over random primes and sizes plus the
edge cases p = 3, a full field, |A| = 1, 0 in the sets and small sets at
p = 1048573, and on two index blocks at seeded primes past 2^16; the
batched CounterRng draws against a scalar `below` oracle; the fast paths
of the per-instance quantities (grouped moments, mu over gathered
values, the cached mu(g*h)) against their direct forms; and the pair
counter's sparse and dense routes, with every consumer of its counts,
against np.add.at histograms and the dense computations they
replaced."""

import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fpsp import convolve, sets
from fpsp.convolve import _convolve_fft
from fpsp.energy import (RepFn, dyadic_buckets, energy_popular, level_counts,
                         level_set, moment, popular_diff, popular_sum_core,
                         rep_fn, select_dyadic_k)
from fpsp.errors import BadP, EmptySet
from fpsp.field import is_prime, make_field
from fpsp.functions import (_unit_image, f_image, make_fn, mu, mu_product,
                            pointwise_product)
from fpsp.incidence import (TRIPLES_CAP, _dedup_pairs, _proof_pairs,
                            bilinear_hist, proof_incidences)
from fpsp.rng import CounterRng
from fpsp.sets import FSet, _pair_count, combine, generate
from fpsp.verify import (_energy_and_incidences, count_N_shifted, count_X,
                         holder_weighted_sum, quad_energy, solution_count_M)
from oracles import _convolve_ntt, solution_count_M_brute

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


def _routes_agree(f, b, c, tag):
    """rep_fn and combine by the transform and "auto" equal the
    enumeration on (B, C) (0 left out where a ratio needs it)."""
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
    return bz, cz


def test_transform_and_auto_match_enumeration():
    for i, (f, b, c) in enumerate(_cases()):
        tag = (i, f.p, b.size, c.size)
        bz, cz = _routes_agree(f, b, c, tag)
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
            assert np.array_equal(fft, _convolve_ntt(x, y, n)), tag + (n,)


def test_two_block_transform_matches_enumeration(monkeypatch):
    # seeded primes in (65537, 2^18]: the transform cuts both indicators
    # into four blocks, the route's rule at these lengths, and (forced)
    # into two, on two threads (forced, whatever the CPU count), at odd
    # n = p, where the wrapped products are folded in shifted by
    # d = mh - p, and even n = p - 1, where four blocks shift by d = 0 or 2
    monkeypatch.setattr(convolve, "_second_thread", lambda: True)
    block_count = convolve._block_count
    rng = CounterRng(1, "fuzz-two-blocks")
    for trial in range(3):
        p = 65538 + int(rng.below((1 << 18) - 65538))
        while not is_prime(p):
            p += 1
        assert block_count(p) == block_count(p - 1) == 4
        f = make_field(p)
        b = _random_set(f, rng, 1 + int(rng.below(400)), "fz2-b%d" % trial)
        c = _random_set(f, rng, 1 + int(rng.below(400)), "fz2-c%d" % trial)
        if trial % 2 == 0:
            b = FSet(f, b.mask | (np.arange(p) == 0))
        for blocks in (2, 4):
            monkeypatch.setattr(convolve, "_block_count",
                                lambda n, blocks=blocks: blocks)
            _routes_agree(f, b, c, (trial, p, blocks, b.size, c.size))


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


def test_batched_below_each_matches_scalar_oracle():
    # descending spans n, n-1, ..., 2, which `subset` reaches only when it
    # draws nearly the whole population
    for trial, n in enumerate((0, 1, 2, 3, 5, 8, 33, 101, 1000, 0, 1, 7)):
        fast, slow = CounterRng(trial, "shuffle"), CounterRng(trial, "shuffle")
        lead = trial % 32  # start anywhere in a block
        assert fast.bytes(lead) == slow.bytes(lead)
        base = fast.integers(-1000, 1000, n)
        assert np.array_equal(base, slow.integers(-1000, 1000, n))
        spans = np.arange(n, 1, -1, dtype=np.uint64)
        got = fast._below_each(spans)
        assert got.dtype == np.uint64
        want = [slow.below(int(s)) for s in spans.tolist()]
        assert got.tolist() == want, (trial, n)
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


def _pair_count_oracle(alpha, t, beta, p):
    rows = len(alpha) if np.ndim(alpha) else len(beta)
    want = np.zeros(p, dtype=np.int64)
    for i in range(rows):
        a = alpha[i] if np.ndim(alpha) else alpha
        b = 0 if beta is None else beta[i]
        np.add.at(want, (a * t + b) % p, 1)
    return want


def _same_hist(got, want, support, tag):
    """A Hist against a dense oracle histogram, bit for bit, in both forms
    and at points on and off the support."""
    nz = np.flatnonzero(want)
    assert got.values.dtype == np.int64, tag
    assert np.array_equal(got.values, nz), tag
    if support:
        assert got.counts is None, tag
        return
    assert got.counts.dtype == np.int64, tag
    assert np.array_equal(got.counts, want[nz]), tag
    assert got.dense.dtype == np.int64, tag
    assert np.array_equal(got.dense, want), tag
    xs = np.r_[nz, np.arange(0, len(want), max(1, len(want) // 97))]
    assert np.array_equal(got.at(xs), want[xs]), tag


def test_pair_count_matches_add_at_loop():
    rng = CounterRng(0, "fuzz-pair-count")
    long_t = 2_000_001  # one row per chunk: several chunks
    # (rows, width) on both sides of the p/8 crossover: at p = 1009, 126
    # cells sort and 128 take the bincount; at p = 1048573, 131071 and
    # 131072
    shapes = {1009: ((0, 7), (5, 0), (1, 1), (9, 14), (8, 16), (7, 40),
                     (300, 50), (3, long_t)),
              P_LARGE: ((0, 0), (1, 1), (1, 131071), (512, 256))}
    for p, dims in shapes.items():
        for rows, width in dims:
            t = rng.integers(0, p, width)
            alphas = rng.integers(0, p, rows)
            betas = rng.integers(0, p, rows)
            if rows >= 2 and width:
                # values landing on 0: a zero row, and a row through 0
                alphas[0] = betas[0] = 0
                betas[1] = -alphas[1] * t[0] % p
            sparse = sets.SPARSE_DIV * rows * width <= p
            for alpha, beta in ((alphas, betas), (alphas, None), (1, betas),
                                (p - 1, betas)):
                want = _pair_count_oracle(alpha, t, beta, p)
                for support in (False, True):
                    got = _pair_count(alpha, t, beta, p, support)
                    tag = (p, rows, width, support)
                    assert (got._dense is None) == sparse, tag
                    _same_hist(got, want, support, tag)


def test_pair_count_on_two_threads_matches_add_at_loop(monkeypatch):
    # From PAIR_THREAD_MIN cells the calling thread and a worker each take
    # half the rows, through their own half of one cell buffer, into their
    # own bincount or mask.  With the minimum lowered to 0, a second
    # thread allowed and thread switches forced often, every shape below
    # (odd row counts, several chunks per thread, one row in all) still
    # gives the oracle's counts and support, and the worker thread ran.
    import sys
    import threading
    rng = CounterRng(1, "fuzz-pair-threads")
    monkeypatch.setattr(sets, "PAIR_THREAD_MIN", 0)
    monkeypatch.setattr(convolve, "_second_thread", lambda: True)
    threads = set()
    bincount = np.bincount

    def spy(*args, **kwargs):
        threads.add(threading.current_thread() is threading.main_thread())
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for p, rows, width in ((1009, 1, 200), (1009, 7, 40),
                               (1009, 5, 1_000_001), (P_LARGE, 513, 256),
                               (P_LARGE, 4, 1_500_000)):
            t = rng.integers(0, p, width)
            alphas = rng.integers(0, p, rows)
            betas = rng.integers(0, p, rows)
            for alpha, beta in ((alphas, betas), (alphas, None),
                                (1, betas)):
                want = _pair_count_oracle(alpha, t, beta, p)
                for support in (False, True):
                    got = _pair_count(alpha, t, beta, p, support)
                    _same_hist(got, want, support, (p, rows, width, support))
    finally:
        sys.setswitchinterval(interval)
    assert threads == {True, False}


# SPARSE_DIV settings: every kernel call sorts, the measured rule, and
# every call with at least one cell takes the dense bincount.
ROUTES = (0, sets.SPARSE_DIV, 1 << 62)


def _explicit(f, elems):
    return generate(f, "explicit", elements=elems)


def _kernel_cases():
    """(field, A, B, C): A inside F_p^*, B and C any sets, including the
    full field at p = 3, |A| = 1, 0 in B, an empty C, ties on the
    popularity bars, and sizes on both sides of the p/8 crossover at
    p = 1009 and p = 1048573."""
    rng = CounterRng(0, "fuzz-kernel-cases")
    f = make_field(3)
    full, star = _explicit(f, range(3)), _explicit(f, [1, 2])
    yield f, _explicit(f, [2]), full, full
    yield f, star, full, star
    f = make_field(7)
    yield f, _explicit(f, [3]), _explicit(f, [0, 1, 5]), _explicit(f, [])
    # 2 r(x) |B-C| = |B||C| at x = 2: a tie on the popular-difference bar
    yield f, _explicit(f, [3]), _explicit(f, range(3)), _explicit(f, range(4))
    # r(x) |C+C| = |C|^2 / 2 for C = {0, 1, 2, 4}: a tie on the popular-sum
    # bar at eps = 1/2
    f = make_field(11)
    quad = _explicit(f, [0, 1, 2, 4])
    yield f, _explicit(f, [5]), quad, quad
    for trial, (na, nb, nc) in enumerate(((1, 5, 6), (3, 7, 9), (2, 12, 20),
                                          (6, 30, 25))):
        f = make_field(1009)
        a = _random_set(f, rng, na, "k-a%d" % trial)
        a = _nonzero(a) if a.size > 1 else _explicit(f, [1 + trial])
        b = _random_set(f, rng, nb, "k-b%d" % trial)
        b = FSet(f, b.mask | (np.arange(f.p) == 0))  # 0 in B
        yield f, a, b, _random_set(f, rng, nc, "k-c%d" % trial)
    f = make_field(P_LARGE)
    yield (f, _nonzero(_random_set(f, rng, 3, "kl-a")),
           _random_set(f, rng, 60, "kl-b"), _random_set(f, rng, 80, "kl-c"))
    # 160000 cells, with the small supports of intervals
    yield (f, _explicit(f, [7, 11]), generate(f, "interval", start=1, size=400),
           generate(f, "interval", start=5000, size=400))


def _rep_oracle(b, c, kind):
    f = b.field
    be, ce = b.elements(), c.elements()
    if kind == "difference":
        vals = be[:, None] - ce
    elif kind == "sum":
        vals = be[:, None] + ce
    else:
        vals = be[:, None] * f.inv_table[ce]
    want = np.zeros(f.p, dtype=np.int64)
    np.add.at(want, vals.ravel() % f.p, 1)
    return want


def _same_set(got, mask, tag):
    assert got.size == int(mask.sum()), tag
    assert np.array_equal(got.mask, mask), tag
    assert np.array_equal(got.elements(), np.flatnonzero(mask)), tag


def _check_rep_consumers(r, w, tag):
    """Every energy consumer of r against its dense form on w = r as a
    length-p array, as the consumers computed before the sparse route."""
    f = r.field
    nz = w[w > 0]
    assert np.array_equal(r.counts, w), tag
    _same_set(r.support(), w > 0, tag)
    assert r.support_size() == len(nz), tag
    # E_n over the count values v with their multiplicities (the exact
    # grouped sum is pinned against the per-element one above)
    vals, mult = np.unique(nz, return_counts=True)
    groups = list(zip(vals.tolist(), mult.tolist()))
    for n in (1, 2, 3, 4):
        assert moment(r, n) == sum(v ** n * m for v, m in groups), tag
    for n in (Fraction(4, 3), 1.5) if len(nz) <= 50_000 else ():
        e = float(n)  # a per-element Python sum: skipped on huge supports
        terms = itertools.chain.from_iterable([float(v) ** e] * m
                                              for v, m in groups)
        assert moment(r, n) == math.fsum(terms), tag
    top = int(w.max())
    for k in sorted({1, 2, 3, top // 2 + 1, top, top + 1} - {0}):
        lv = level_set(r, k)
        _same_set(lv.x, w >= k, tag + (k,))
        assert lv.n_k == int((w >= k).sum()), tag + (k,)
    srt = np.sort(nz)  # #{x : r(x) >= k} = |nz| - #{v in nz : v < k}
    want_n = [f.p] + (len(srt) - np.searchsorted(srt, np.arange(1, top + 1))
                      ).tolist()
    assert level_counts(r).tolist() == want_n, tag
    buckets = dyadic_buckets(r)
    want_b = [(d, (w >= d) & (w < 2 * d))
              for d in (1 << j for j in range(top.bit_length()))]
    want_b = [(d, m) for d, m in want_b if m.any()]
    assert [bk.delta for bk in buckets] == [d for d, _ in want_b], tag
    for bk, (d, m) in zip(buckets, want_b):
        _same_set(bk.members, m, tag + (d,))
        assert bk.size == int(m.sum()), tag
    if top == 0:
        for fn in (select_dyadic_k, energy_popular):
            with pytest.raises(EmptySet):
                fn(r)
        return
    dyadic = [1 << j for j in range(top.bit_length())]
    scores = [k ** 4 * want_n[k] for k in dyadic]
    assert select_dyadic_k(r) == dyadic[scores.index(max(scores))], tag
    for n, key in ((Fraction(4, 3), lambda d, m: int(m.sum()) ** 3 * d ** 4),
                   (1.5, lambda d, m: int(m.sum()) * d ** 1.5)):
        keys = [key(d, m) for d, m in want_b]
        d, m = want_b[keys.index(max(keys))]
        delta, members = energy_popular(r, n)
        assert delta == d, tag
        _same_set(members, m, tag)


def _popular_sum_core_oracle(c, eps):
    w = _rep_oracle(c, c, "sum")
    supp = int((w > 0).sum())
    num, den = eps.numerator, eps.denominator
    pmask = (w * supp * den >= num * c.size * c.size) & (w > 0)
    ce = c.elements()
    good = np.zeros(c.field.p, dtype=bool)
    for cp in ce.tolist():
        if den * int(pmask[(cp + ce) % c.field.p].sum()) >= \
                (den - num) * c.size:
            good[cp] = True
    return pmask, good


def _count_N_oracle(b, c, pmask):
    p = b.field.p
    diffs = (b.elements()[:, None] - c.elements()) % p
    seen = np.zeros(p, dtype=bool)
    seen[diffs] = True
    nvec = pmask[diffs].sum(axis=0)
    if (pmask & ~seen).any():
        return None
    return {"N": b.size * int(np.dot(nvec, nvec)), "mass": int(nvec.sum())}


def test_rep_consumers_match_dense_oracle(monkeypatch):
    """rep_fn and every consumer of its histogram, with the kernel forced
    to the sort, at its measured rule, forced to the dense bincount, and
    through the transform, against the dense computation."""
    for i, (f, a, b, c) in enumerate(_kernel_cases()):
        bz, cz = _nonzero(b), _nonzero(c)
        methods = ("naive", "transform") if f.p <= 1009 else ("naive",)
        for div in ROUTES:
            monkeypatch.setattr(sets, "SPARSE_DIV", div)
            for kind, x, y in (("difference", b, c), ("sum", b, c),
                               ("ratio", bz, cz), ("sum", c, c)):
                w = _rep_oracle(x, y, kind)
                for method in methods:
                    tag = (i, f.p, div, kind, method)
                    _check_rep_consumers(rep_fn(x, y, kind, method), w, tag)
            tag = (i, f.p, div)
            if b.size == 0 or c.size == 0:
                with pytest.raises(EmptySet):
                    popular_diff(b, c)
                continue
            w = _rep_oracle(b, c, "difference")
            pmask = (2 * w * int((w > 0).sum()) >= b.size * c.size) & (w > 0)
            pset = popular_diff(b, c)
            _same_set(pset, pmask, tag)
            assert count_N_shifted(b, c, pset) == _count_N_oracle(b, c,
                                                                  pmask), tag
            stray = FSet(f, pmask | (np.arange(f.p) == f.p - 1))
            want = _count_N_oracle(b, c, stray.mask)
            if want is None:
                with pytest.raises(BadP):
                    count_N_shifted(b, c, stray)
            else:
                assert count_N_shifted(b, c, stray) == want, tag
            d = combine(b, b, "diff")
            if pset.size * d.size <= 10 ** 6:
                rpd = _rep_oracle(pset, d, "difference")
                assert count_X(pset, b) == int(np.dot(rpd, rpd)), tag
            wb, wc = _rep_oracle(b, b, "difference"), _rep_oracle(c, c,
                                                                  "difference")
            both = (wb > 0) & (wc > 0)
            assert holder_weighted_sum(b, c)["lhs"] == sum(
                u ** 3 * v for u, v in zip(wb[both].tolist(),
                                           wc[both].tolist())), tag
            for kind, (x, y) in (("sum", (b, c)), ("prod", (bz, cz))):
                if x.size and y.size:
                    for xs in (level_set(rep_fn(x, y, "difference" if kind
                                                == "sum" else "ratio"),
                                         1).x, _nonzero(c)):
                        assert solution_count_M(a, x, y, xs, kind) == \
                            solution_count_M_brute(a, x, y, xs, kind), tag
            for eps in (Fraction(1, 5), Fraction(1, 2)):
                want_p, want_core = _popular_sum_core_oracle(c, eps)
                got_p, got_core = popular_sum_core(c, eps)
                _same_set(got_p, want_p, tag + (eps,))
                _same_set(got_core, want_core, tag + (eps,))


def _image_oracle(ga, gha, b):
    p = b.field.p
    want = np.zeros(p, dtype=bool)
    want[(ga[:, None] * b.elements() + gha[:, None]) % p] = True
    return want


def test_kernel_consumers_match_dense_oracle(monkeypatch):
    """combine, f_image, _unit_image, bilinear_hist and the two sums of
    squares over it on every route of the kernel, against np.add.at and
    brute set operations.  The lemma chain's shared enumeration of both
    sums must match the two separate calls, with and without repeated
    kernel pairs (g = h = 1 repeats a pair whenever |A| >= 2)."""
    repeats = 0
    for i, (f, a, b, c) in enumerate(_kernel_cases()):
        p = f.p
        if p < P_LARGE:
            g = make_fn(f, "random", seed=i, instance_id="kc-g")
            h = make_fn(f, "random", seed=i, instance_id="kc-h")
        else:  # a random table takes 0.3 s to draw at this p
            g, h = make_fn(f, "power", k=3 + i), make_fn(f, "power", k=2)
        one = make_fn(f, "const", c=1)
        bz, cz = _nonzero(b), _nonzero(c)
        ae = a.elements()
        for div in ROUTES:
            monkeypatch.setattr(sets, "SPARSE_DIV", div)
            tag = (i, p, div)
            be = b.elements()[:, None]
            for op, y in (("sum", c.elements()), ("diff", -c.elements()),
                          ("prod", c.elements()),
                          ("ratio", f.inv_table[cz.elements()])):
                want = np.zeros(p, dtype=bool)
                want[(be + y if op in ("sum", "diff") else be * y) % p] = True
                _same_set(combine(b, cz if op == "ratio" else c, op,
                                  method="pairwise"), want, tag + (op,))
            ga = g.values[ae]
            _same_set(f_image(g, h, a, bz),
                      _image_oracle(ga, ga * h.values[ae] % p, bz), tag)
            for sign in (1, -1):
                _same_set(_unit_image(a, bz, sign),
                          _image_oracle(sign * ae % p, ae, bz), tag + (sign,))
            for variant, third in (("sum_E1", c), ("prod_E1", c),
                                   ("sum_E2", bz), ("prod_E2", bz)):
                x = cz if variant.startswith("prod") else c
                alpha, beta, ts = _proof_pairs(variant, a, x, third, g, h)
                want = _pair_count_oracle(alpha, ts, beta, p)
                _same_hist(bilinear_hist(alpha, beta, ts, p), want, False,
                           tag + (variant,))
                assert quad_energy(variant, a, x, third, g, h) == \
                    int(np.dot(want, want)), tag + (variant,)
                ua, ub = _dedup_pairs(alpha, beta, p)
                want = _pair_count_oracle(ua, ts, ub, p)
                assert proof_incidences(variant, a, x, third, g, h) == \
                    int(np.dot(want, want)), tag + (variant,)
                for gg, hh in ((g, h), (one, one)):
                    both = (quad_energy(variant, a, x, third, gg, hh),
                            proof_incidences(variant, a, x, third, gg, hh))
                    assert _energy_and_incidences(
                        variant, a, x, third, gg, hh, TRIPLES_CAP) == both, \
                        tag + (variant,)
                    repeats += both[0] != both[1]
    assert repeats > 0
