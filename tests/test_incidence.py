"""Point-plane incidences in F_p^3 and the proof configurations.

The last test here is a documented defect witness: the plain collinearity
bound max(|A|, |C|, |X|) on the first proof configuration is falsifiable
once the vertical fibers of the point set can stack mu_A(g) shifted
copies of C, and the mu-corrected bound max(|A|, mu_A |C|, |X|) is the
one that actually holds.
"""

import numpy as np
import pytest

from fpsp.errors import BadParams, EmptySet, SizeCap, ZeroDivisor, ZeroInA
from fpsp.field import make_field
from fpsp.functions import make_fn
from fpsp.incidence import (VARIANTS, _dedup_pairs, _proof_pairs,
                            bilinear_hist, build_proof_config, incidences,
                            make_config, max_collinear, normalize_planes,
                            proof_incidences, rudnev_ratio,
                            structural_collinear)
from fpsp.rng import CounterRng
from fpsp.sets import generate

F101 = make_field(101)


def _random_planes(field, m, seed):
    rng = CounterRng(seed, "planes-p%d" % field.p)
    rows = []
    while len(rows) < m:
        row = [int(rng.below(field.p)) for _ in range(4)]
        if any(row[:3]):
            rows.append(row)
    return np.array(rows, dtype=np.int64)


def test_full_space_every_plane_holds_p_squared():
    for p in (3, 5, 7):
        f = make_field(p)
        pts = np.array([(x, y, z) for x in range(p) for y in range(p)
                        for z in range(p)], dtype=np.int64)
        pls = _random_planes(f, 6, seed=p)
        cfg = make_config(f, pts, pls)
        # a plane with nonzero normal has exactly p^2 points of F_p^3 on it
        assert incidences(cfg) == cfg.n_planes * p * p, p


def test_incidences_brute_agreement():
    rng = CounterRng(0, "inc-brute")
    for trial in range(20):
        p = (11, 101)[trial % 2]
        f = make_field(p)
        n = 2 + int(rng.below(40))
        m = 2 + int(rng.below(40))
        pts = np.stack([rng.integers(0, p, n) for _ in range(3)], axis=1)
        pls = _random_planes(f, m, seed=1000 + trial)
        cfg = make_config(f, pts, pls)
        want = 0
        for x, y, z in cfg.points:
            for a, b, c, d in cfg.planes:
                if (a * x + b * y + c * z + d) % p == 0:
                    want += 1
        assert incidences(cfg) == want, trial


def test_normalize_planes_merges_scalar_multiples():
    f = F101
    base = np.array([[2, 4, 6, 8]], dtype=np.int64)
    tripled = base * 3 % 101
    both = np.concatenate([base, tripled])
    assert len(normalize_planes(f, both)) == 1
    got = normalize_planes(f, base)[0]
    assert got[0] == 1  # leading coefficient scaled to 1
    with pytest.raises(BadParams):
        normalize_planes(f, np.array([[0, 0, 0, 5]], dtype=np.int64))


def test_make_config_dedups_points():
    pts = np.array([[1, 2, 3], [1, 2, 3], [4, 5, 6]], dtype=np.int64)
    cfg = make_config(F101, pts, _random_planes(F101, 2, 7))
    assert cfg.n_points == 2


def test_max_collinear_diagonal_and_plane():
    for p in (5, 7, 11):
        f = make_field(p)
        diag = np.array([(t, t, t) for t in range(p)], dtype=np.int64)
        assert max_collinear(diag, f) == p
    # generic position: 4 points, no 3 on a line
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   dtype=np.int64)
    assert max_collinear(pts, F101) == 2
    assert max_collinear(pts[:1], F101) == 1
    with pytest.raises(EmptySet):
        max_collinear(np.zeros((0, 3), dtype=np.int64), F101)
    with pytest.raises(SizeCap):
        max_collinear(np.zeros((10, 3), dtype=np.int64), F101, cap=5)


def test_max_collinear_brute_agreement():
    # oracle: count collinear triples by rank, track the best line greedily
    rng = CounterRng(1, "mc-brute")
    p = 11
    f = make_field(p)
    for trial in range(15):
        n = 3 + int(rng.below(12))
        pts = np.unique(
            np.stack([rng.integers(0, p, n) for _ in range(3)], axis=1),
            axis=0)
        best = 1 if len(pts) == 1 else 2
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = (pts[j] - pts[i]) % p
                cnt = 2
                for k in range(len(pts)):
                    if k in (i, j):
                        continue
                    e = (pts[k] - pts[i]) % p
                    # collinear iff cross product vanishes mod p
                    cross = ((d[1] * e[2] - d[2] * e[1]) % p,
                             (d[2] * e[0] - d[0] * e[2]) % p,
                             (d[0] * e[1] - d[1] * e[0]) % p)
                    if cross == (0, 0, 0):
                        cnt += 1
                best = max(best, cnt)
        assert max_collinear(pts, f) == best, trial


def test_proof_incidences_matches_materialized():
    rng = CounterRng(2, "proof-vs-mat")
    g = make_fn(F101, "power", k=2)
    h = make_fn(F101, "random", seed=3)
    for trial, variant in enumerate(VARIANTS * 3):
        a = generate(F101, "random", size=3 + int(rng.below(8)), seed=trial,
                     instance_id="pm-a%d" % trial, zero_free=True)
        x = generate(F101, "random", size=2 + int(rng.below(8)), seed=trial,
                     instance_id="pm-x%d" % trial, zero_free=True)
        third = generate(F101, "random", size=2 + int(rng.below(8)),
                         seed=trial, instance_id="pm-t%d" % trial,
                         zero_free=True)
        fast = proof_incidences(variant, a, x, third, g, h)
        cfg = build_proof_config(variant, a, x, third, g, h)
        assert fast == incidences(cfg), (variant, trial)


def _generic_collinear(variant, a, x, third, g, h, cap):
    """The oracle: materialize R and scan it."""
    cfg = build_proof_config(variant, a, x, third, g, h, cap=cap)
    return max_collinear(cfg.points, a.field, cap=cap)


def _collinear_case(variant, a, x, third, g, h):
    """Check structural == generic, and the cap at n and n - 1 on both."""
    alpha, beta, ts = _proof_pairs(variant, a, x, third, g, h)
    n_pairs = len(_dedup_pairs(alpha, beta, a.field.p)[0])
    n = n_pairs * len(ts)
    want = _generic_collinear(variant, a, x, third, g, h, n)
    assert structural_collinear(variant, a, x, third, g, h, cap=n) == want
    for route in (structural_collinear, _generic_collinear):
        with pytest.raises(SizeCap):
            route(variant, a, x, third, g, h, cap=n - 1)
    return want, len(ts), n_pairs


def test_structural_collinear_matches_generic():
    rng = CounterRng(5, "structural-vs-generic")
    by_side = {"slice": 0, "t_axis": 0}
    fields = {p: make_field(p) for p in (3, 5, 7, 11, 13, 101)}
    for trial in range(48):
        variant = VARIANTS[trial % 4]
        f = fields[(3, 5, 7, 11, 13, 101)[int(rng.below(6))]]
        p = f.p

        def draw(tag, zero_free, most=6):
            size = 1 + int(rng.below(min(most, p - 1)))
            return generate(f, "random", size=size, seed=trial,
                            instance_id="sc-%s%d" % (tag, trial),
                            zero_free=zero_free)

        prod = variant.startswith("prod")
        a = draw("a", True)
        x = draw("x", prod)
        third = draw("t", False)
        # colliding g and separating h stack several pairs on one line
        g = (make_fn(f, "power", k=2), make_fn(f, "identity"),
             make_fn(f, "const", c=1))[int(rng.below(3))]
        h = make_fn(f, "random", seed=trial)
        k, n_t, n_pairs = _collinear_case(variant, a, x, third, g, h)
        by_side["slice" if k > n_t else "t_axis"] += 1
    # both sides of max(|T|, maxcol(PAIRS)) decide some instance
    assert min(by_side.values()) > 0, by_side


def test_structural_collinear_edge_cases():
    f = F101
    ex = lambda *v: generate(f, "explicit", elements=v)  # noqa: E731
    g2, gid = make_fn(f, "power", k=2), make_fn(f, "identity")
    hr, h1 = make_fn(f, "random", seed=0), make_fn(f, "const", c=1)
    a, c, x = ex(3, 98, 7), ex(1, 2, 5, 9), ex(2, 4)
    for variant in VARIANTS:
        # 0 in C for the E1 shapes (third = C)
        _collinear_case(variant, a, x, ex(0, 1, 2), g2, hr)
        # |A| = 1, and |T| = 1 (X for E1, the third set for E2)
        _collinear_case(variant, ex(3), x, c, g2, hr)
        _collinear_case(variant, a, ex(4), ex(6), g2, hr)
        # |PAIRS| = 1: one a and one element on the pair side
        k, n_t, n_pairs = _collinear_case(variant, ex(3), ex(4), ex(6), gid,
                                          h1)
        assert (k, n_t, n_pairs) == (1, 1, 1)
    for variant in ("sum_E1", "sum_E2"):
        # 0 in X is allowed for the sum shapes
        _collinear_case(variant, a, ex(0, 1, 2), c, g2, hr)
    # the defect witness: one vertical line carries two shifted copies of C
    k, _, _ = _collinear_case("sum_E1", ex(3, 98), ex(1),
                              generate(f, "interval", start=1, size=10),
                              g2, hr)
    assert k == 20
    # p = 3: every set is tiny and every collision is forced
    f3 = make_field(3)
    one, both = (generate(f3, "explicit", elements=v) for v in ([1], [1, 2]))
    for variant in VARIANTS:
        for g in (make_fn(f3, "identity"), make_fn(f3, "power", k=2)):
            for third in (one, both, generate(f3, "explicit",
                                              elements=[0, 1, 2])):
                _collinear_case(variant, both, both, third, g,
                                make_fn(f3, "identity"))


def test_proof_pairs_zero_rules():
    g = make_fn(F101, "identity")
    h = make_fn(F101, "const", c=1)
    a = generate(F101, "explicit", elements=[1, 2])
    x0 = generate(F101, "explicit", elements=[0, 1])
    c = generate(F101, "explicit", elements=[1, 2])
    with pytest.raises(ZeroDivisor):
        proof_incidences("prod_E1", a, x0, c, g, h)
    with pytest.raises(ZeroDivisor):
        proof_incidences("prod_E2", a, x0, c, g, h)
    # sum variants tolerate 0 in X; prod_E1 tolerates 0 in C
    assert proof_incidences("sum_E1", a, x0, c, g, h) > 0
    c0 = generate(F101, "explicit", elements=[0, 1])
    assert proof_incidences("prod_E1", a, c, c0, g, h) > 0
    a0 = generate(F101, "explicit", elements=[0, 1])
    with pytest.raises(ZeroInA):
        proof_incidences("sum_E1", a0, x0, c, g, h)
    with pytest.raises(BadParams):
        proof_incidences("no_such", a, c, c, g, h)


def test_bilinear_hist_mass_and_cap():
    alpha = np.array([1, 2, 3], dtype=np.int64)
    beta = np.array([0, 5, 9], dtype=np.int64)
    ts = np.array([1, 2, 3, 4], dtype=np.int64)
    hist = bilinear_hist(alpha, beta, ts, 101)
    assert int(hist.sum()) == 12
    with pytest.raises(SizeCap):
        bilinear_hist(alpha, beta, ts, 101, cap=11)


def test_rudnev_ratio_fields():
    g = make_fn(F101, "identity")
    h = make_fn(F101, "const", c=1)
    a = generate(F101, "mul_subgroup", order=10)
    x = generate(F101, "interval", start=1, size=10)
    cfg = build_proof_config("sum_E1", a, x, x, g, h)
    row = rudnev_ratio(cfg)
    assert row["n_points"] == cfg.n_points
    assert row["incidences"] == incidences(cfg)
    assert row["bound"] > 0 and row["ratio"] >= 0
    assert row["provenance"] == "sum_E1"
    assert isinstance(row["hyp_r_le_s"], bool)


def test_literal_collinearity_bound_is_falsifiable():
    """mu_A(g) = 2 stacks two shifted copies of C on one vertical line.

    A = {3, -3} with g = x^2 collapses to a single alpha = 9; h takes
    different values on the two preimages, so the fiber carries
    {9(c + h(3))} union {9(c + h(-3))}: 20 distinct third coordinates
    here.  That beats max(|A|, |C|, |X|) = 10 but not the corrected
    max(|A|, mu_A |C|, |X|) = 20.
    """
    f = F101
    a = generate(f, "explicit", elements=[3, 98])
    x = generate(f, "explicit", elements=[1])
    c = generate(f, "interval", start=1, size=10)
    g = make_fn(f, "power", k=2)
    h = make_fn(f, "random", seed=0)
    assert h(3) != h(98)  # the seed matters only through this
    cfg = build_proof_config("sum_E1", a, x, c, g, h)
    k = max_collinear(cfg.points, f)
    literal = max(a.size, c.size, x.size)
    corrected = max(a.size, 2 * c.size, x.size)
    assert k > literal, "defect witness evaporated: k=%d" % k
    assert k <= corrected
    assert k == 20


def test_materialize_cap():
    g = make_fn(F101, "identity")
    h = make_fn(F101, "const", c=1)
    a = generate(F101, "interval", start=1, size=30)
    x = generate(F101, "interval", start=1, size=30)
    with pytest.raises(SizeCap):
        build_proof_config("sum_E1", a, x, a, g, h, cap=100)
