"""Function tables on F_p^*: constructors, mu, products, the image map."""

import numpy as np
import pytest

from fpsp.errors import (BadParams, FieldMismatch, ParseError, ZeroInA,
                         ZeroInCodomain)
from fpsp.field import make_field
from fpsp import functions
from fpsp.functions import (FnTable, f_image, make_fn, mu, mu_product,
                            parse_fn_spec, pointwise_product, read_fn_file,
                            write_fn_file)
from fpsp.incidence import bilinear_hist
from fpsp.rng import CounterRng
from fpsp.sets import generate

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
    real = functions._bincount_max
    monkeypatch.setattr(functions, "_bincount_max",
                        lambda vals: bincounts.append(1) or real(vals))
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
            assert got.values.dtype == np.int64
            assert got.values.tolist() == want.tolist(), (p, kind, kw)
        # numpy tables: negative and >= p entries still reduce
        arr = np.array(xs, dtype=np.int64)
        for table in (arr - p, arr + 5 * p, np.concatenate(([9], arr))):
            assert np.array_equal(make_fn(f, "table", table=table).values,
                                  make_fn(f, "identity").values)
