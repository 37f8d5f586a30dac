"""Representation histograms and the selection machinery on top of them.

The F_7, B = {1,2,3} instance is the hand-checked anchor: its difference
histogram is 0->3, +-1->2, +-2->1, giving E_2 = 19 and E_4 = 115, level
counts (7,5,3,1), dyadic level k* = 2 with X_2 = {0,1,6}.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fpsp.energy import (dyadic_buckets, energy_popular, level_counts,
                         level_set, moment, normalize_eps, popular_diff,
                         popular_sum_core, rep_fn, select_dyadic_k)
from fpsp.errors import (BadEpsilon, BadExponent, BadParams, EmptySet,
                         ZeroDivisor)
from fpsp.field import make_field
from fpsp.rng import CounterRng
from fpsp.sets import combine, generate

F7 = make_field(7)
F101 = make_field(101)
B123 = generate(F7, "explicit", elements=[1, 2, 3])


def test_worked_difference_histogram():
    r = rep_fn(B123, B123, "difference")
    assert r.counts.tolist() == [3, 2, 1, 0, 0, 1, 2]
    assert r.mass == 9
    assert int(r.counts.sum()) == 9
    assert r.support().elements().tolist() == [0, 1, 2, 5, 6]
    assert r.support_size() == 5


def test_worked_moments():
    r = rep_fn(B123, B123, "difference")
    assert moment(r, 1) == 9
    assert moment(r, 2) == 19
    assert moment(r, 4) == 115
    assert moment(r, Fraction(4, 1)) == 115 and isinstance(moment(r, 4), int)
    e43 = moment(r, Fraction(4, 3))
    assert abs(e43 - (3 ** (4 / 3) + 2 * 2 ** (4 / 3) + 2)) < 1e-9
    with pytest.raises(BadExponent):
        moment(r, 0)
    with pytest.raises(BadExponent):
        moment(r, Fraction(1, 2))


def test_moment_of_a_dense_histogram_reads_no_sparse_form():
    # An integral moment of a dense histogram counts its multiplicities
    # off the length-p array as it stands: at p = 1048573, 600 x 600
    # differences (above p/8 cells, so dense) allocate nothing near the
    # support's values and counts (two int64 arrays of about 2.7 MiB),
    # and give the moments of the sparse form
    import tracemalloc
    f = make_field(1048573)
    b = generate(f, "random", size=600, seed=3)
    c = generate(f, "random", size=600, seed=4)
    r = rep_fn(b, c, "difference", method="naive")
    assert r.hist._values is None  # the dense route
    tracemalloc.start()
    try:
        got = [moment(r, k) for k in (1, 2, 4)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16, peak
    nz = r.hist.counts.tolist()
    assert got == [sum(v ** k for v in nz) for k in (1, 2, 4)]
    assert got[0] == 600 * 600


def test_worked_levels_and_dyadic_k():
    r = rep_fn(B123, B123, "difference")
    n = level_counts(r)
    assert n.tolist() == [7, 5, 3, 1]
    ls = level_set(r, 2)
    assert ls.n_k == 3 and ls.x.elements().tolist() == [0, 1, 6]
    assert select_dyadic_k(r) == 2  # 16*3 beats 1*5
    with pytest.raises(BadParams):
        level_set(r, 0)


def test_level_counts_are_suffix_sums():
    rng = CounterRng(0, "levels")
    for trial in range(25):
        b = generate(F101, "random", size=1 + int(rng.below(40)), seed=trial,
                     instance_id="lv-b%d" % trial)
        c = generate(F101, "random", size=1 + int(rng.below(40)), seed=trial,
                     instance_id="lv-c%d" % trial)
        r = rep_fn(b, c, "sum")
        n = level_counts(r)
        assert n[0] == 101
        hist = np.bincount(r.counts, minlength=len(n))
        for k in range(1, len(n)):
            assert n[k] == hist[k:].sum(), (trial, k)
        assert (np.diff(n) <= 0).all()


def test_mass_identity_all_kinds():
    rng = CounterRng(1, "mass")
    for trial in range(30):
        nb = 1 + int(rng.below(30))
        nc = 1 + int(rng.below(30))
        b = generate(F101, "random", size=nb, seed=trial,
                     instance_id="m-b%d" % trial, zero_free=True)
        c = generate(F101, "random", size=nc, seed=trial,
                     instance_id="m-c%d" % trial, zero_free=True)
        for kind in ("difference", "ratio", "sum"):
            r = rep_fn(b, c, kind)
            assert int(r.counts.sum()) == nb * nc, (trial, kind)
            comb = combine(b, c, {"difference": "diff", "ratio": "ratio",
                                  "sum": "sum"}[kind])
            assert np.array_equal(r.counts > 0, comb.mask), (trial, kind)


def test_naive_transform_agree():
    rng = CounterRng(2, "methods")
    for trial in range(30):
        p = (101, 257, 1009)[trial % 3]
        f = make_field(p)
        b = generate(f, "random", size=1 + int(rng.below(p - 2)), seed=trial,
                     instance_id="mt-b%d" % trial, zero_free=True)
        c = generate(f, "random", size=1 + int(rng.below(p - 2)), seed=trial,
                     instance_id="mt-c%d" % trial, zero_free=True)
        for kind, op in (("difference", "diff"), ("ratio", "ratio"),
                         ("sum", "sum")):
            r1 = rep_fn(b, c, kind, method="naive")
            r2 = rep_fn(b, c, kind, method="transform")
            assert np.array_equal(r1.counts, r2.counts), (trial, kind, p)
            # combine is the support of the same count on either route
            for method in ("pairwise", "transform"):
                comb = combine(b, c, op, method=method)
                assert np.array_equal(comb.mask, r1.counts > 0), \
                    (trial, kind, p, method)


def test_ratio_kind_zero_rejected():
    z = generate(F7, "explicit", elements=[0, 1])
    ok = generate(F7, "explicit", elements=[1, 2])
    with pytest.raises(ZeroDivisor):
        rep_fn(ok, z, "ratio")
    with pytest.raises(ZeroDivisor):
        rep_fn(z, ok, "ratio")
    # index 0 is structurally empty for the ratio kind
    r = rep_fn(ok, ok, "ratio")
    assert r.counts[0] == 0


def test_popular_diff_worked():
    pset = popular_diff(B123, B123)
    # threshold |B||C| / (2|B-C|) = 9/10 < 1, so everything survives
    assert pset.elements().tolist() == [0, 1, 2, 5, 6]
    with pytest.raises(EmptySet):
        popular_diff(B123, generate(F7, "explicit", elements=[]))


def test_popular_diff_exact_threshold():
    # arrange 2 r(x) |B-C| == |B||C| exactly on the boundary: inclusion
    rng = CounterRng(3, "popdiff")
    for trial in range(25):
        b = generate(F101, "random", size=2 + int(rng.below(30)), seed=trial,
                     instance_id="pd-b%d" % trial)
        c = generate(F101, "random", size=2 + int(rng.below(30)), seed=trial,
                     instance_id="pd-c%d" % trial)
        r = rep_fn(b, c, "difference")
        d = combine(b, c, "diff")
        pset = popular_diff(b, c)
        for x in range(101):
            want = 2 * int(r.counts[x]) * d.size >= b.size * c.size \
                and r.counts[x] > 0
            assert bool(pset.mask[x]) == want, (trial, x)


def test_popular_sum_core_worked():
    # B+B = {2..6} with r = (1,2,3,2,1); eps = 2/3 keeps r >= 2 exactly
    pset, core = popular_sum_core(B123, Fraction(2, 3))
    assert pset.elements().tolist() == [3, 4, 5]
    assert core.elements().tolist() == [1, 2, 3]


def test_popular_sum_core_exact_boundary():
    # eps = 5/9 puts the threshold exactly at r = 1: the comparison is >=,
    # so the whole sumset survives
    pset, _ = popular_sum_core(B123, Fraction(5, 9))
    assert pset.elements().tolist() == [2, 3, 4, 5, 6]


def test_popular_sum_core_float_eps_exact():
    # a float eps keeps its binary value (0.1 = m / 2^55), whose denominator
    # times r(x) |C+C| passes 2^63 from |C| = 16 on
    c = generate(F101, "random", size=32, seed=1)
    r = rep_fn(c, c, "sum")
    support = np.flatnonzero(r.counts).tolist()
    for eps in (0.1, 0.2, Fraction(1, 10)):
        num, den = Fraction(eps).numerator, Fraction(eps).denominator
        want = [x for x in support if int(r.counts[x]) * len(support) * den
                >= num * c.size * c.size]
        assert popular_sum_core(c, eps)[0].elements().tolist() == want, eps


def test_normalize_eps():
    assert normalize_eps(Fraction(1, 4), 100) == Fraction(1, 4)
    assert normalize_eps(None, 8) == Fraction(1, 3)  # 1/log2(8)
    got = normalize_eps(0.25, 10)
    assert got == Fraction(1, 4)
    # a string is read exactly, as `--eps` is; a float keeps its binary value
    for text in ("0.1", "1/10", "1e-1"):
        assert normalize_eps(text, 10) == Fraction(1, 10), text
    assert normalize_eps(0.1, 10) == Fraction(0.1) != Fraction(1, 10)
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), 0.0, -0.5):
        with pytest.raises(BadEpsilon):
            normalize_eps(bad, 10)
    with pytest.raises(BadEpsilon):
        normalize_eps(None, 2)  # default needs |C| >= 3


def test_dyadic_buckets_worked():
    r = rep_fn(B123, B123, "difference")
    buckets = dyadic_buckets(r)
    assert [(bk.delta, bk.members.elements().tolist()) for bk in buckets] \
        == [(1, [2, 5]), (2, [0, 1, 6])]


def test_dyadic_buckets_partition_support():
    rng = CounterRng(4, "buckets")
    for trial in range(25):
        b = generate(F101, "random", size=2 + int(rng.below(60)), seed=trial,
                     instance_id="db-%d" % trial)
        r = rep_fn(b, b, "sum")
        seen = np.zeros(101, dtype=int)
        for bk in dyadic_buckets(r):
            m = bk.members.mask
            assert (r.counts[m] >= bk.delta).all(), trial
            assert (r.counts[m] < 2 * bk.delta).all(), trial
            seen += m
        assert np.array_equal(seen > 0, r.counts > 0), trial
        assert seen.max(initial=0) <= 1, trial


def test_energy_popular_worked_and_exact_argmax():
    r = rep_fn(B123, B123, "difference")
    delta, pp = energy_popular(r, Fraction(4, 3))
    # 2 * 1^(4/3) vs 3 * 2^(4/3): exact cross-powers 8*1 < 27*16
    assert delta == 2 and pp.elements().tolist() == [0, 1, 6]

    rng = CounterRng(5, "epop")
    for trial in range(25):
        b = generate(F101, "random", size=2 + int(rng.below(50)), seed=trial,
                     instance_id="ep-%d" % trial)
        r = rep_fn(b, b, "difference")
        delta, pp = energy_popular(r, Fraction(4, 3))
        best = max(dyadic_buckets(r),
                   key=lambda bk: (bk.members.size ** 3 * bk.delta ** 4,
                                   -bk.delta))
        assert delta == best.delta, trial
        assert pp.size == best.members.size, trial


def test_empty_rep_fn():
    e = generate(F7, "explicit", elements=[])
    r = rep_fn(e, B123, "difference")
    assert int(r.counts.sum()) == 0
    assert level_counts(r).tolist() == [7]
    with pytest.raises(EmptySet):
        select_dyadic_k(r)  # no support, no level to pick
