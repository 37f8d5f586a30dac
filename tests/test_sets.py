"""Set families, combine (both engines), affine maps, file round trips."""

import numpy as np
import pytest

from fpsp.errors import (BadParams, FieldMismatch, ParseError, ZeroDilation,
                         ZeroDivisor)
from fpsp.field import make_field
from fpsp.rng import CounterRng
from fpsp.sets import (FSet, Hist, _pair_count, _pair_counts, _pair_transform,
                       affine, combine, generate, parse_set_text,
                       read_set_file, subgroup_orders, write_set_file)

F7 = make_field(7)
F101 = make_field(101)


def test_interval_and_wrap():
    a = generate(F7, "interval", start=1, size=3)
    assert a.elements().tolist() == [1, 2, 3]
    w = generate(F7, "interval", start=5, size=4)  # 5,6,0,1
    assert w.elements().tolist() == [0, 1, 5, 6]
    with pytest.raises(BadParams):
        generate(F7, "interval", start=5, size=4, zero_free=True)


def test_ap_family():
    a = generate(F101, "ap", start=1, step=10, size=5)
    assert a.elements().tolist() == [1, 11, 21, 31, 41]
    with pytest.raises(BadParams):
        generate(F101, "ap", start=1, step=0, size=2)
    with pytest.raises(BadParams):
        generate(F101, "ap", start=1, size=3)  # missing step


def test_gp_family():
    a = generate(F7, "gp", start=1, ratio=3, size=6)
    # 3 is a primitive root mod 7, so the orbit is all of F_7^*
    assert a.elements().tolist() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(BadParams):
        generate(F7, "gp", start=1, ratio=6, size=3)  # 6 has order 2
    with pytest.raises(BadParams):
        generate(F7, "gp", start=0, ratio=3, size=2)
    with pytest.raises(BadParams):
        generate(F7, "gp", start=1, ratio=0, size=2)
    # against the multiply-by-ratio loop, parameters beyond int64 included:
    # a size within the ratio's order gives the loop's orbit, a larger one
    # repeats and raises
    for f, start, ratio in ((F101, 5, 3), (F101, 7, 10), (F101, -4, -2),
                            (make_field(1048573), 10 ** 20, -10 ** 19 - 2)):
        for size in (0, 1, 9, 10, 50, 100):
            want, x = set(), start % f.p
            for _ in range(size):
                want.add(x)
                x = x * ratio % f.p
            if len(want) < size:
                with pytest.raises(BadParams):
                    generate(f, "gp", start=start, ratio=ratio, size=size)
            else:
                got = generate(f, "gp", start=start, ratio=ratio, size=size)
                assert got.elements().tolist() == sorted(want)


def test_mul_subgroup():
    assert subgroup_orders(F7) == [1, 2, 3, 6]
    g2 = generate(F7, "mul_subgroup", order=2)
    assert g2.elements().tolist() == [1, 6]
    g3 = generate(F7, "mul_subgroup", order=3)
    # squares: the subgroup of index 2
    assert g3.elements().tolist() == [1, 2, 4]
    with pytest.raises(BadParams):
        generate(F7, "mul_subgroup", order=4)  # 4 does not divide 6
    for order in subgroup_orders(F101):
        s = generate(F101, "mul_subgroup", order=order)
        assert s.size == order
        els = s.elements()
        # closure under multiplication
        prods = set((int(x) * int(y)) % 101 for x in els for y in els)
        assert prods == set(els.tolist()), order


def test_random_family_and_zero_free():
    a = generate(F101, "random", size=20, seed=1)
    b = generate(F101, "random", size=20, seed=1)
    assert np.array_equal(a.mask, b.mask)
    c = generate(F101, "random", size=20, seed=2)
    assert not np.array_equal(a.mask, c.mask)
    for s in range(30):
        zf = generate(F101, "random", size=50, seed=s, zero_free=True)
        assert zf.is_zero_free and zf.size == 50
    with pytest.raises(BadParams):
        generate(F101, "random", size=101, seed=0, zero_free=True)


def test_explicit_and_duplicates():
    a = generate(F7, "explicit", elements=[3, 1, 2])
    assert a.elements().tolist() == [1, 2, 3]
    with pytest.raises(BadParams):
        generate(F7, "explicit", elements=[1, 1, 2])
    assert generate(F7, "explicit", elements=[9]).elements().tolist() == [2]


def test_fset_basics():
    a = generate(F7, "interval", start=1, size=3)
    assert a.size == 3
    assert bool(a.mask[2]) and not bool(a.mask[5])
    assert a.is_zero_free
    z = generate(F7, "explicit", elements=[])
    assert z.size == 0 and z.elements().tolist() == []
    # masks are frozen
    with pytest.raises(ValueError):
        a.mask[0] = True


def _brute_combine(a, b, op, p):
    ae, be = a.elements().tolist(), b.elements().tolist()
    if op == "sum":
        vals = {(x + y) % p for x in ae for y in be}
    elif op == "diff":
        vals = {(x - y) % p for x in ae for y in be}
    elif op == "prod":
        vals = {x * y % p for x in ae for y in be}
    else:
        vals = {x * pow(y, p - 2, p) % p for x in ae for y in be}
    return vals


def test_fset_copies_a_callers_mask():
    # FSet(field, m) copies m: the caller may change m afterwards, and the
    # set's own mask is read-only
    m = np.zeros(101, dtype=bool)
    m[[1, 5]] = True
    a = FSet(F101, m)
    m[7] = True
    assert a.elements().tolist() == [1, 5] and a.size == 2
    assert m.flags.writeable and not a.mask.flags.writeable
    with pytest.raises(ValueError):
        a.mask[7] = True


def test_dense_support_allocates_one_mask():
    # Hist.support, the route every dense combine returns through, takes
    # the mask it computes without copying it: one length-p bool array
    import tracemalloc
    p = 1048573
    f = make_field(p)
    dense = np.zeros(p, dtype=np.int64)
    dense[::3] = 2
    hist = Hist(p, dense=dense)
    tracemalloc.start()
    try:
        sup = hist.support(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p <= peak < p + p // 2, peak
    assert sup.size == len(range(0, p, 3)) and 3 in sup and 1 not in sup
    assert not sup.mask.flags.writeable


def test_from_elements_allocates_one_mask():
    # FSet.from_elements takes the mask it builds without copying it: one
    # length-p bool array for a 64-element random set
    import tracemalloc
    p = 1048573
    f = make_field(p)
    tracemalloc.start()
    try:
        a = generate(f, "random", size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p <= peak < p + p // 2, peak
    assert a.size == 64 and not a.mask.flags.writeable


def test_transform_support_gathers_bools():
    # with support=True, prod and ratio read the support off the
    # convolution as a bool gather through the discrete logs (0 set
    # apart), equal to counts > 0, and Hist.support keeps that mask
    f = make_field(1009)
    r = CounterRng(4, "support-gather")
    for with_zero in (False, True):
        mask = r.integers(0, 5, f.p) == 0
        mask[0] = with_zero
        b = FSet(f, mask)
        c = generate(f, "random", size=300, seed=5, zero_free=True)
        for op in ("prod", "ratio"):
            got = _pair_transform(b, c, op, support=True)
            want = _pair_transform(b, c, op)
            assert got.dtype == bool and want.dtype == np.int64
            assert np.array_equal(got, want > 0), (with_zero, op)
            assert bool(got[0]) == with_zero
            assert Hist(f.p, dense=got).support(f).mask is got
            assert Hist(f.p, dense=got).counts is None  # support only


def test_support_only_hist_has_no_counts_on_any_route():
    # combine's support-only count keeps no counts on either route, with
    # the enumeration's sparse (25 cells <= p/8) and dense forms, and
    # refuses a sum of squares it cannot give
    f = make_field(1009)
    for size in (5, 299):
        x = generate(f, "interval", start=1, size=size)
        for op in ("sum", "diff", "prod", "ratio"):
            want = _pair_counts(x, x, op, "pairwise", "pairwise")
            for method in ("pairwise", "transform"):
                tag = (size, op, method)
                hist = _pair_counts(x, x, op, method, "pairwise",
                                    support=True)
                assert hist.counts is None, tag
                with pytest.raises(BadParams):
                    hist.sum_squares()
                assert hist.support(f) == want.support(f), tag
    dense = _pair_count(np.arange(1, 300), np.arange(1, 300), None, f.p,
                        support=True)
    assert dense.counts is None
    with pytest.raises(BadParams):
        dense.sum_squares()


def test_combine_against_brute_200():
    """200 seeded instances x 4 ops, auto/pairwise/transform all agree
    with a python-set oracle."""
    rng = CounterRng(0, "combine-oracle")
    fields = [make_field(11), F101, make_field(257)]
    for trial in range(200):
        f = fields[trial % 3]
        p = f.p
        na = 1 + int(rng.below(p - 1))
        nb = 1 + int(rng.below(p - 1))
        a = generate(f, "random", size=na, seed=trial,
                     instance_id="co-a%d" % trial)
        b = generate(f, "random", size=nb, seed=trial,
                     instance_id="co-b%d" % trial, zero_free=True)
        for op in ("sum", "diff", "prod", "ratio"):
            want = _brute_combine(a, b, op, p)
            auto = combine(a, b, op)
            assert set(auto.elements().tolist()) == want, (trial, op)
            pw = combine(a, b, op, method="pairwise")
            tf = combine(a, b, op, method="transform")
            assert np.array_equal(pw.mask, auto.mask), (trial, op)
            assert np.array_equal(tf.mask, auto.mask), (trial, op)


def test_combine_ratio_zero_denominator():
    a = generate(F7, "interval", start=1, size=3)
    z = generate(F7, "explicit", elements=[0, 1])
    with pytest.raises(ZeroDivisor):
        combine(a, z, "ratio")
    # 0 in the numerator is fine: 0/y = 0 (and 0*y = 0), on both routes
    for op in ("prod", "ratio"):
        for method in ("pairwise", "transform"):
            got = combine(z, a, op, method=method)
            assert set(got.elements().tolist()) == \
                _brute_combine(z, a, op, 7), (op, method)
            assert got.mask[0]
    for method in ("pairwise", "transform"):
        assert combine(z, z, "prod", method=method).elements().tolist() \
            == [0, 1]


def test_combine_field_mismatch():
    a = generate(F7, "interval", start=1, size=3)
    b = generate(F101, "interval", start=1, size=3)
    with pytest.raises(FieldMismatch):
        combine(a, b, "sum")


def test_affine():
    a = generate(F7, "explicit", elements=[1, 2, 3])
    m = affine(a, 2, 1)
    assert m.elements().tolist() == [0, 3, 5]
    assert m.size == a.size
    with pytest.raises(ZeroDilation):
        affine(a, 7, 1)  # 7 = 0 mod 7
    # invertibility: undo with the inverse dilation
    back = affine(m, F7.inverse(2), (-1 * F7.inverse(2)) % 7)
    assert np.array_equal(back.mask, a.mask)


def test_set_file_round_trip(tmp_path):
    a = generate(F101, "random", size=17, seed=9, instance_id="io")
    path = str(tmp_path / "a.set")
    write_set_file(path, a)
    b = read_set_file(path)
    assert b.field.p == 101
    assert np.array_equal(a.mask, b.mask)
    c = read_set_file(path, F101)
    assert np.array_equal(a.mask, c.mask)
    with pytest.raises(ParseError):
        read_set_file(path, F7)


def test_parse_set_text_errors():
    with pytest.raises(ParseError):
        parse_set_text("1\n2\n")  # missing header
    with pytest.raises(ParseError):
        parse_set_text("p=7\n3\n3\n")  # duplicate = not increasing
    with pytest.raises(ParseError):
        parse_set_text("p=7\n2\n1\n")  # out of order
    with pytest.raises(ParseError):
        parse_set_text("p=7\n7\n")  # out of range
    with pytest.raises(ParseError):
        parse_set_text("p=seven\n")
    p, els = parse_set_text("# comment\np=7\n\n1\n2 # trailing\n")
    assert (p, els) == (7, [1, 2])


def test_combine_empty_operand():
    a = generate(F7, "explicit", elements=[])
    b = generate(F7, "interval", start=1, size=3)
    for op in ("sum", "diff", "prod"):
        assert combine(a, b, op).size == 0
        assert combine(b, a, op).size == 0
