"""Function tables on F_p^*: constructors, mu, products, the image map."""

import numpy as np
import pytest

from fpsp.errors import (BadParams, FieldMismatch, ParseError, ZeroInA,
                         ZeroInCodomain)
from fpsp.field import make_field
from fpsp import functions, rng
from fpsp.functions import (FnTable, f_image, make_fn, mu, mu_product,
                            parse_fn_spec, read_fn_file, write_fn_file)
from fpsp.incidence import bilinear_hist
from fpsp.rng import CounterRng
from fpsp.sets import generate
from oracles import pointwise_product

F7 = make_field(7)
F101 = make_field(101)


def test_power_tables_on_f7():
    sq = make_fn(F7, "power", k=2)
    assert [sq(x) for x in range(1, 7)] == [1, 4, 2, 2, 4, 1]
    cu = make_fn(F7, "power", k=3)
    assert [cu(x) for x in range(1, 7)] == [1, 1, 6, 1, 6, 6]
    # negative exponents act through the group
    inv = make_fn(F7, "power", k=-1)
    assert all(x * inv(x) % 7 == 1 for x in range(1, 7))
    assert make_fn(F7, "power", k=6)(3) == 1  # x^{p-1} = 1


def test_mu_values():
    assert mu(make_fn(F7, "identity")) == 1
    assert mu(make_fn(F7, "power", k=2)) == 2
    assert mu(make_fn(F7, "power", k=3)) == 3
    assert mu(make_fn(F7, "const", c=5)) == 6
    # gcd rule: mu(x^k) on the full group is gcd(k, p-1)
    import math
    for k in range(1, 13):
        assert mu(make_fn(F101, "power", k=k)) == math.gcd(k, 100), k


def test_mu_domain_restricted():
    sq = make_fn(F7, "power", k=2)
    dom = generate(F7, "explicit", elements=[1, 6])
    assert mu(sq, dom) == 2  # (+-1)^2 collide
    dom2 = generate(F7, "explicit", elements=[1, 2, 3])
    assert mu(sq, dom2) == 1  # 1,4,2 all distinct
    empty = generate(F7, "explicit", elements=[])
    assert mu(sq, empty) == 0
    zero_only = generate(F7, "explicit", elements=[0])
    assert mu(sq, zero_only) == 0  # 0 is outside the domain of g
    with pytest.raises(FieldMismatch):
        mu(sq, generate(F101, "interval", start=1, size=3))


def test_mu_product_with_a_constant_h_is_mu_of_g(monkeypatch):
    # A nonzero constant h keeps g's fibers: the whole-domain mu(g*h) is
    # mu(g), which g keeps once computed, so no product is counted.  A
    # table that is constant on F_p^* but for one entry is not constant.
    bincounts = []
    real = functions._count_max
    monkeypatch.setattr(functions, "_count_max",
                        lambda *args: bincounts.append(1) or real(*args))
    for p, spec in ((7, "power:3"), (101, "random:5"), (1009, "random:6"),
                    (1009, "power:4")):
        f = make_field(p)
        g = parse_fn_spec(f, spec)
        mu(g)
        for c in (1, 2, p - 1):
            h = make_fn(f, "const", c=c)
            bincounts.clear()
            got = mu_product(g, h)
            assert bincounts == [], (p, spec, c)
            assert got == mu(g) == mu(pointwise_product(g, h)), (p, spec, c)
        vals = np.full(p, 3)
        vals[p - 1] = 4
        h = FnTable(f, vals)
        assert mu_product(g, h) == mu(pointwise_product(g, h)), (p, spec)
        assert bincounts, (p, spec)


def test_zero_in_codomain_rejected():
    with pytest.raises(ZeroInCodomain):
        make_fn(F7, "const", c=0)
    with pytest.raises(ZeroInCodomain):
        make_fn(F7, "const", c=7)
    with pytest.raises(ZeroInCodomain):
        # x + 1 hits 0 at x = p-1
        make_fn(F7, "affine", u=1, v=1)
    # u*x with u nonzero never vanishes on F_p^*
    neg = make_fn(F7, "affine", u=6, v=0)
    assert [neg(x) for x in range(1, 7)] == [6, 5, 4, 3, 2, 1]


def test_affine_rule_checked_before_the_table():
    # u x + v maps F_p^* into F_p^* only when exactly one of u and v is
    # 0 mod p; any other pair is refused with the rule, before any table
    # is built
    for u, v in ((3, 4), (0, 0), (0, 101), (-1, 1)):
        with pytest.raises(ZeroInCodomain,
                           match="exactly one of u and v must be 0 mod p"):
            make_fn(F101, "affine", u=u, v=v)
    with pytest.raises(ZeroInCodomain, match=r"affine:3,4 takes the value 0"):
        parse_fn_spec(F101, "affine:3,4")
    assert parse_fn_spec(F101, "affine:0,5").values[1:].tolist() == [5] * 100
    for spec in ("affine:3,0", "affine:3,202"):
        assert parse_fn_spec(F101, spec).values[1:].tolist() == \
            [3 * x % 101 for x in range(1, 101)], spec
    # at p = 1048573 the refusal allocates nothing near one 4 MB table
    import tracemalloc
    big = make_field(1048573)
    tracemalloc.start()
    try:
        with pytest.raises(ZeroInCodomain):
            make_fn(big, "affine", u=3, v=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_table_call_and_slot_zero():
    t = make_fn(F7, "identity")
    with pytest.raises(BadParams):
        t(0)
    with pytest.raises(BadParams):
        t(14)  # canonical residue 0
    assert t.values[0] == 0  # normalized unused slot
    with pytest.raises(ValueError):
        t.values[3] = 1  # frozen


def test_random_tables_deterministic():
    a = make_fn(F101, "random", seed=4)
    b = make_fn(F101, "random", seed=4)
    assert a == b
    c = make_fn(F101, "random", seed=5)
    assert a != c
    assert (a.values[1:] > 0).all()
    d = make_fn(F101, "random", seed=4, instance_id="other")
    assert a != d  # the instance id splits the stream


def test_parse_fn_spec_grammar():
    assert parse_fn_spec(F7, "id")(3) == 3
    assert parse_fn_spec(F7, "const:5")(2) == 5
    assert parse_fn_spec(F7, "power:2")(3) == 2
    assert parse_fn_spec(F7, "affine:2,0")(3) == 6
    assert parse_fn_spec(F101, "random:9") == make_fn(F101, "random", seed=9)
    for bad in ("", "identity", "power:", "power:x", "affine:1",
                "affine:1,1,1", "nonsense:3"):
        with pytest.raises(ParseError):
            parse_fn_spec(F7, bad)
    # syntactically fine, semantically not a map into F_p^*: the sharper
    # error type passes through untranslated
    with pytest.raises(ZeroInCodomain):
        parse_fn_spec(F7, "const:0")


def test_fn_file_round_trip(tmp_path):
    fn = make_fn(F101, "random", seed=11)
    path = str(tmp_path / "g.fn")
    write_fn_file(path, fn)
    back = read_fn_file(path, F101)
    assert back == fn
    with pytest.raises(ParseError):
        read_fn_file(path, F7)
    short = tmp_path / "short.fn"
    short.write_text("p=7\n1\n2\n")
    with pytest.raises(ParseError):
        read_fn_file(str(short), F7)
    bad_header = tmp_path / "bad_header.fn"
    bad_header.write_text("p=abc\n1\n2\n")
    with pytest.raises(ParseError):
        read_fn_file(str(bad_header), F7)


def test_pointwise_product():
    sq = make_fn(F7, "power", k=2)
    ident = make_fn(F7, "identity")
    cube = pointwise_product(sq, ident)
    assert cube == make_fn(F7, "power", k=3)
    assert "power:2" in cube.label and "id" in cube.label
    with pytest.raises(FieldMismatch):
        pointwise_product(sq, make_fn(F101, "identity"))


def test_f_image_worked():
    a = generate(F7, "explicit", elements=[1, 2, 3])
    g = make_fn(F7, "identity")
    h = make_fn(F7, "const", c=1)
    img = f_image(g, h, a, a)
    # {a(1+b)}: 1*{2,3,4}, 2*{2,3,4}, 3*{2,3,4} = {2,3,4,4,6,1,6,2,5}
    assert img.elements().tolist() == [1, 2, 3, 4, 5, 6]


def test_f_image_zero_value_kept():
    # b = -h(a) gives the value 0, which belongs to the image
    a = generate(F7, "explicit", elements=[1])
    b = generate(F7, "explicit", elements=[6])
    g = make_fn(F7, "identity")
    h = make_fn(F7, "const", c=1)
    img = f_image(g, h, a, b)
    assert img.elements().tolist() == [0]


def test_f_image_zero_in_inputs():
    g = make_fn(F7, "identity")
    h = make_fn(F7, "const", c=1)
    z = generate(F7, "explicit", elements=[0, 1])
    ok = generate(F7, "explicit", elements=[1, 2])
    with pytest.raises(ZeroInA):
        f_image(g, h, z, ok)
    with pytest.raises(BadParams):
        f_image(g, h, ok, z)


def _image_brute(g, h, a, b):
    """Oracle: g(a)(h(a)+b) evaluated pair by pair in Python."""
    p = a.field.p
    bl = b.elements().tolist()
    out = set()
    for x in a.elements().tolist():
        gx, hx = g(x), h(x)
        out.update(gx * ((hx + y) % p) % p for y in bl)
    return out


def test_f_image_matches_brute_loop():
    from fpsp.rng import CounterRng
    rng = CounterRng(2, "fimg")
    for trial in range(40):
        na = 1 + int(rng.below(20))
        nb = 1 + int(rng.below(20))
        a = generate(F101, "random", size=na, seed=trial,
                     instance_id="fa%d" % trial, zero_free=True)
        b = generate(F101, "random", size=nb, seed=trial,
                     instance_id="fb%d" % trial, zero_free=True)
        g = make_fn(F101, "random", seed=trial, instance_id="fg%d" % trial)
        h = make_fn(F101, "random", seed=trial, instance_id="fh%d" % trial)
        img = f_image(g, h, a, b)
        assert set(img.elements().tolist()) == _image_brute(g, h, a, b), \
            trial
        # the image is the support of the kernel g(a) * b + g(a)h(a)
        ga = g.values[a.elements()]
        hist = bilinear_hist(ga, ga * h.values[a.elements()] % 101,
                             b.elements(), 101)
        assert np.array_equal(hist.values, img.elements()), trial
        assert np.array_equal(hist.dense > 0, img.mask), trial


def test_f_image_memory_bounded():
    """The image is enumerated in bounded chunks, not all |A||B| cells at
    once: 3000 x 3000 at p = 1048573 (9e6 cells, about 145 MB of int64
    temporaries when built as one table) peaks under 64 MB."""
    import tracemalloc
    f = make_field(1048573)
    a = generate(f, "random", size=3000, seed=1, zero_free=True)
    b = generate(f, "random", size=3000, seed=2, zero_free=True)
    g = make_fn(f, "power", k=3)
    h = make_fn(f, "power", k=2)
    tracemalloc.start()
    try:
        img = f_image(g, h, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    assert set(img.elements().tolist()) == _image_brute(g, h, a, b)


def test_fn_table_explicit_values():
    vals = np.arange(7, dtype=np.int64)
    vals[0] = 3  # junk in slot 0 gets normalized away
    t = FnTable(F7, vals)
    assert t.values[0] == 0
    with pytest.raises(BadParams):
        FnTable(F7, np.arange(6))  # wrong length
    # a caller's int32 residues are copied, unless copy=False hands them
    # over (as make_fn does): then the table is that array, read-only
    own = np.arange(7, dtype=np.int32)
    assert FnTable(F7, own).values is not own and own.flags.writeable
    assert FnTable(F7, own, copy=False).values is own
    assert not own.flags.writeable


def _old_make_fn(field, kind, **kw):
    """(values, label) as make_fn built them over np.arange(p) for every
    kind, with FnTable's `% p` copy and zero check; values None where
    that check refuses.  Table entries reduce mod p on Python ints, which
    the old int64 conversion did only below 2^63."""
    p = field.p
    xs = np.arange(p, dtype=np.int64)
    if kind == "const":
        vals = np.full(p, kw["c"] % p, dtype=np.int64)
        label = "const:%d" % (kw["c"] % p)
    elif kind == "identity":
        vals, label = xs.copy(), "id"
    elif kind == "power":
        vals = np.array([pow(int(x), kw["k"] % (p - 1), p) for x in xs])
        label = "power:%d" % kw["k"]
    elif kind == "affine":
        u, v = kw["u"] % p, kw["v"] % p
        vals, label = (u * xs + v) % p, "affine:%d,%d" % (u, v)
    elif kind == "random":
        vals = np.zeros(p, dtype=np.int64)
        vals[1:] = CounterRng(kw["seed"], "fn:p=%d" % p).integers(1, p, p - 1)
        label = "random:%d" % kw["seed"]
    else:
        arr = np.array([v % p for v in kw["table"]], dtype=np.int64)
        vals = np.zeros(p, dtype=np.int64)
        vals[p - len(arr):] = arr  # p - 1 values start at index 1
        label = "table"
    vals = np.asarray(vals, dtype=np.int64) % p
    if (vals[1:] == 0).any():
        return None, label
    vals[0] = 0
    return vals, label


def test_every_kind_matches_the_old_construction():
    # values, label and the ZeroInCodomain refusal of every kind, at a
    # small and a large p; tables reduce negative, >= p and beyond-int64
    # entries, given as p - 1 or p values
    for p in (101, 65537):
        f = make_field(p)
        xs = list(range(1, p))
        cases = [("const", dict(c=c)) for c in (1, p - 1, p + 3, -5, 0, p)]
        cases += [("identity", {})]
        cases += [("power", dict(k=k)) for k in (0, 1, 2, 3, -1, p - 1)]
        cases += [("affine", dict(u=u, v=v))
                  for u, v in ((1, 0), (2, 5), (p + 3, -1), (0, 4), (1, 1),
                               (0, 0))]
        cases += [("random", dict(seed=s)) for s in (0, 11)]
        cases += [("table", dict(table=t)) for t in (
            [x * 3 for x in xs], [-x for x in xs], [x + p for x in xs],
            [x + (p << 70) for x in xs], [0] + xs, [5] + xs,
            [(1 << 70) * x for x in xs], xs[:-1] + [p],
            xs[:-1] + [p << 70])]
        for kind, kw in cases:
            want, label = _old_make_fn(f, kind, **kw)
            if want is None:
                with pytest.raises(ZeroInCodomain):
                    make_fn(f, kind, **kw)
                continue
            got = make_fn(f, kind, **kw)
            assert got.label == label, (p, kind, kw)
            assert got.values.dtype == np.int32
            assert got.values.tolist() == want.tolist(), (p, kind, kw)
        # numpy tables: negative and >= p entries still reduce
        arr = np.array(xs, dtype=np.int64)
        for table in (arr - p, arr + 5 * p, np.concatenate(([9], arr))):
            assert np.array_equal(make_fn(f, "table", table=table).values,
                                  make_fn(f, "identity").values)


def test_wide_and_non_integer_tables():
    # a uint64 entry past 2^63 reduces exactly (2^64 - 1 = 78 mod 101),
    # as a Python int does; float entries are refused, not truncated
    top = 2 ** 64 - 1
    for n in (100, 101):
        t = make_fn(F101, "table", table=np.full(n, top, dtype=np.uint64))
        assert t(1) == t(100) == top % 101 == 78
        assert t == make_fn(F101, "table", table=[top] * n)
        assert t.values.dtype == np.int32 and t.values[0] == 0
    assert FnTable(F101, np.full(101, top, dtype=np.uint64))(5) == 78
    for bad in (np.full(100, 3.7), np.full(100, 3.0), [3.7] * 100,
                np.ones(100, dtype=bool)):
        with pytest.raises(BadParams):
            make_fn(F101, "table", table=bad)
    with pytest.raises(BadParams):
        FnTable(F101, np.full(101, 3.7))


P_BIG = 1048573  # entries near 2^20: a product of two passes 2^31


def test_products_of_table_entries_are_exact_at_large_p():
    # Every product of two int32 table entries is taken in int64:
    # mu_product (whole domain and on a domain), f_image and the four
    # proof kernels, against Python-int oracles.
    from collections import Counter

    from fpsp.incidence import proof_kernel
    p = P_BIG
    f = make_field(p)
    neg = make_fn(f, "const", c=p - 1)
    cube, inv = make_fn(f, "power", k=3), make_fn(f, "power", k=-3)
    gen = CounterRng(26, "widen")
    a, b, c, x = (generate(f, "explicit", elements=sorted(set(
        (p - 1 - gen.integers(0, 1 << 19, n)).tolist())))
        for n in (30, 20, 25, 15))
    vals = {t.label: t.values.tolist() for t in (neg, cube, inv)}
    assert max(vals[neg.label]) * max(vals[cube.label]) >= 2 ** 31

    def fiber(xs):
        return max(Counter(xs).values(), default=0)

    for g, h in ((neg, cube), (cube, cube), (cube, neg), (cube, inv)):
        gv, hv = vals[g.label], vals[h.label]
        whole = fiber(u * v % p for u, v in zip(gv[1:], hv[1:]))
        assert mu_product(g, h) == whole, (g, h)
        for dom in (a, b):
            ae = dom.elements().tolist()
            assert mu_product(g, h, dom) == fiber(
                gv[e] * hv[e] % p for e in ae), (g, h)
        img = {gv[e] * (hv[e] + y) % p for e in a.elements().tolist()
               for y in b.elements().tolist()}
        assert set(f_image(g, h, a, b).elements().tolist()) == img, (g, h)
    assert mu_product(neg, cube) == 3  # -x^3; gcd(3, p - 1) = 3
    assert mu_product(cube, inv, a) == a.size  # x^3 x^-3 = 1

    def pairs(variant, g, h, col):
        out = []
        for e in a.elements().tolist():
            ga, ha = vals[g.label][e], vals[h.label][e]
            for y in col:
                if variant == "sum_E1":
                    out.append((ga, ga * (ha + y) % p))
                elif variant == "prod_E1":
                    out.append((ga * y % p, ga * ha % p))
                elif variant == "sum_E2":
                    out.append((pow(ga, -1, p), -(ha + y) % p))
                else:
                    iy = pow(y, -1, p)
                    out.append((pow(ga * y, -1, p), -(ha * iy) % p))
        return out

    for g, h in ((cube, neg), (neg, cube)):
        for variant in ("sum_E1", "prod_E1", "sum_E2", "prod_E2"):
            third = c if variant.endswith("E1") else b
            col, ts = (third, x) if third is c else (x, third)
            want = pairs(variant, g, h, col.elements().tolist())
            kern = proof_kernel(variant, a, x, third, g, h)
            alpha, beta, got_ts = kern.alpha, kern.beta, kern.ts
            assert alpha.dtype == beta.dtype == np.int64, variant
            assert list(zip(alpha.tolist(), beta.tolist())) == want, variant
            hist = bilinear_hist(alpha, beta, got_ts, p)
            cells = Counter((u * t + v) % p for u, v in want
                            for t in ts.elements().tolist())
            assert dict(zip(hist.values.tolist(),
                            hist.counts.tolist())) == cells, variant
            once = Counter((u * t + v) % p for u, v in set(want)
                           for t in ts.elements().tolist())
            assert kern.incidences() == \
                sum(n * n for n in once.values()), variant


def test_table_construction_memory():
    # At p = 1048573 every kind keeps one 4 MB int32 table.  const and
    # identity peak at that one table, which FnTable keeps without a copy,
    # plus 64 KiB for Python objects.  random draws into its table in
    # place, a bounded batch at a time: one table plus 2 MiB + 64 KiB
    # (0.85 MiB over the table measured, numpy 2.4).  An in-range int64
    # table (p or p - 1 entries) peaks at two tables, the int32 copy of
    # the caller's array and the concatenation or check beside it, plus
    # 64 KiB.  power and affine compute in int64, in place: power peaks
    # at the ladder's two int64 arrays (base and product, four tables;
    # 16.0 MiB measured), affine at its one int64 array and FnTable's
    # copy (three tables; 12.0 MiB measured), each plus 64 KiB.  The
    # ladder squares the arange make_fn hands it, so a caller frame that
    # holds its arguments through a call (CPython 3.10) adds nothing.
    import tracemalloc
    p = P_BIG
    f = make_field(p)
    table = 4 * p
    in_range = np.arange(p, dtype=np.int64)
    in_range[0] = 1
    cases = [("const", dict(c=p - 1), table),
             ("identity", {}, table),
             ("table", dict(table=in_range), 2 * table),
             ("table", dict(table=in_range[1:]), 2 * table),
             ("random", dict(seed=11), table + 2 * 2 ** 20),
             ("power", dict(k=3), 4 * table),
             ("power", dict(k=-3), 4 * table),
             ("affine", dict(u=2, v=0), 3 * table),
             ("affine", dict(u=-5 - p, v=2 * p), 3 * table)]
    for kind, kw, bound in cases:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn = make_fn(f, kind, **kw)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert peak < bound + 2 ** 16, (kind, peak)
        assert table <= kept < table + 2 ** 16, (kind, kept)
        assert fn.values.dtype == np.int32 and fn.values.nbytes == table
        del fn


def _traced_peak(call):
    """(call(), the peak of traced memory above the start during it)."""
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_whole_domain_mu_counts_in_bounded_scratch():
    # At p = 1048573 the whole-domain mu(g) and mu(g*h) count into one
    # int64 array of length p, a bounded chunk of entries (and of
    # products) at a time, so each peaks at that array plus 2 MiB + 64 KiB;
    # a bincount over the table (or the product table) needs two length-p
    # arrays.  Both agree with that bincount.
    p = P_BIG
    f = make_field(p)
    g, h = make_fn(f, "random", seed=11), make_fn(f, "random", seed=12)
    # drawn in bounded calls, the table is the stream's one-call draw
    assert np.array_equal(g.values[1:], CounterRng(11, "fn:p=%d" % p)
                          .integers(1, p, p - 1))
    want_g = int(np.bincount(g.values[1:]).max())
    prod = np.multiply(g.values[1:], h.values[1:], dtype=np.int64) % p
    want_gh = int(np.bincount(prod).max())
    del prod
    bound = 8 * p + 2 * 2 ** 20 + 2 ** 16
    got, peak = _traced_peak(lambda: mu(g))
    assert got == want_g and peak <= bound, (got, want_g, peak)
    got, peak = _traced_peak(lambda: mu_product(g, h))
    assert got == want_gh and peak <= bound, (got, want_gh, peak)
    # the largest fiber may sit in the last chunk, at the last entry
    vals = np.arange(p, dtype=np.int32)
    vals[-3:] = p - 1
    assert mu(FnTable(f, vals)) == 3


def test_random_parts_join_to_one_draw_under_rejection():
    # span 2^62 + 1 rejects about a quarter of all words, so every part
    # falls short and the join moves values and draws the shortfall from
    # the word where the parts end.  However [0, size) is cut, the joined
    # values are one integers(lo, hi, size) call's, bit for bit.  size
    # spans several rng._CHUNK batches and is not a multiple of 4 words.
    lo, hi = -5, (1 << 62) - 4
    size = 3 * rng._CHUNK + 7
    key = (8, "parts")
    want = CounterRng(*key).integers(lo, hi, size)
    cuts = {k: rng._word_ranges(size, k) for k in (1, 2, 3, 7)}
    cuts["unaligned"] = [(0, 5), (5, 40001), (40001, size)]
    for name, ranges in cuts.items():
        assert len(ranges) == (3 if name == "unaligned" else name)
        dest = np.full(size, -1, dtype=np.int64)
        parts = [(start, CounterRng(*key, word=start).accepted(
                      dest[start:], lo, hi, stop - start))
                 for start, stop in ranges]
        assert sum(got for _, got in parts) < 0.8 * size  # words rejected
        rng._join(dest, key, lo, hi, parts)
        assert np.array_equal(dest, want), name
