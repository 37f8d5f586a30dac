"""Acceptance gate: nine criteria, one verdict line each.

Every criterion prints exactly one "criterion N (...): PASS/FAIL" line
(visible with -s, or in the captured output of a failing test) and then
asserts.  Seeds and grids are fixed here once; they were not tuned
against outcomes.

Known honest failure: criterion 3 asserts, among the exact chain checks,
the plain collinearity bound max_collinear(R1) <= max(|A|, |C|, n_k).
That bound is falsifiable: when the fiber function (g for the sum kind,
g*h for the prod kind) takes one value at two points a1 != a2 of A and h
separates them, the vertical line over (t, alpha) carries the union of
two shifted copies of C, up to 2|C| points, which can exceed the plain
bound while staying within the fiber-corrected
max(|A|, mu_A(g) * |C|, n_k).  On the fixed grid below a handful of
instances do exactly that; the corrected bound and every other exact
check hold on all of them.  The criterion is asserted as stated and left
red rather than weakened; the explanation above is the write-up, and
tests/test_incidence.py pins a two-point counterexample.
"""

import math
import time
from fractions import Fraction

import numpy as np

from fpsp.energy import moment, rep_fn
from fpsp.field import make_field
from fpsp.functions import f_image, make_fn, parse_fn_spec
from fpsp.incidence import (incidences, make_config, max_collinear,
                            normalize_planes, rudnev_ratio)
from fpsp.rng import CounterRng
from fpsp.sets import combine, generate
from fpsp.sweep import build_instance_sets, report_json, run_sweep
from fpsp.verify import (QUAD_VARIANTS, ThmInstance, composite_N_check,
                         count_X, lemma_chain_check, quad_energy,
                         theorem_ratio)
from oracles import count_X_brute, quad_energy_brute

import pathlib

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print("criterion %d (%s): %s -- %s"
          % (num, name, "PASS" if ok else "FAIL", detail))
    return ok


# -- 1: rep_fn oracle equivalence ------------------------------------------


def test_c1_rep_fn_naive_vs_transform():
    t0 = time.perf_counter()
    # 200 instances per kind; heavier primes get fewer draws
    schedule = [101] * 80 + [257] * 60 + [1009] * 40 + [65537] * 20
    fields = {p: make_field(p) for p in (101, 257, 1009, 65537)}
    checked = 0
    for kind in ("difference", "ratio", "sum"):
        for i, p in enumerate(schedule):
            f = fields[p]
            rng = CounterRng(i, "acc1|%s|%d" % (kind, p))
            cap = min(2000, p - 1)
            nb = 2 + int(rng.below(cap - 1))
            nc = 2 + int(rng.below(cap - 1))
            b = generate(f, "random", size=nb, seed=i, zero_free=True,
                         instance_id="acc1b|%s|%d" % (kind, p))
            c = generate(f, "random", size=nc, seed=i, zero_free=True,
                         instance_id="acc1c|%s|%d" % (kind, p))
            naive = rep_fn(b, c, kind, method="naive")
            trans = rep_fn(b, c, kind, method="transform")
            assert (naive.counts == trans.counts).all(), (kind, p, i)
            checked += 1
    el = time.perf_counter() - t0
    ok = checked == 600
    assert _verdict(1, "rep oracle equivalence", ok,
                    "%d/600 instances bit-exact in %.1fs" % (checked, el))


# -- 2: energy identities ---------------------------------------------------


def test_c2_energy_identities():
    f7 = make_field(7)
    b123 = generate(f7, "explicit", elements=[1, 2, 3])
    e4 = moment(rep_fn(b123, b123, "difference"), 4)
    f101, f257 = make_field(101), make_field(257)
    n_mass = n_cs = 0
    for seed in range(100):
        f = f101 if seed % 2 else f257
        rng = CounterRng(seed, "acc2")
        b = generate(f, "random", size=3 + int(rng.below(40)), seed=seed,
                     instance_id="acc2b", zero_free=True)
        c = generate(f, "random", size=3 + int(rng.below(40)), seed=seed,
                     instance_id="acc2c", zero_free=True)
        r = rep_fn(b, c, "difference")
        if int(r.counts.sum()) == b.size * c.size:
            n_mass += 1
        e2 = moment(r, 2)
        support = int((r.counts > 0).sum())
        if e2 * support >= (b.size * c.size) ** 2:
            n_cs += 1
    ok = n_mass == 100 and n_cs == 100 and e4 == 115
    assert _verdict(2, "energy identities", ok,
                    "mass %d/100, E2 Cauchy-Schwarz %d/100, E4 oracle %d"
                    % (n_mass, n_cs, e4))


# -- 3: lemma chain grid (known honest red, see module docstring) -----------


def test_c3_lemma_chain_grid():
    t0 = time.perf_counter()
    profiles = {101: [(4, 8, 8), (8, 16, 8), (8, 32, 16)],
                1009: [(4, 8, 8), (8, 16, 8), (8, 32, 16), (16, 64, 16)]}
    g_specs = ("id", "power:2", "random:11")
    h_specs = ("const:1", "random:12")
    n_chains = 0
    failures = []
    for p, triples in profiles.items():
        field = make_field(p)
        fns = {s: parse_fn_spec(field, s) for s in g_specs + h_specs}
        for fam in ("interval", "random", "mul_subgroup"):
            for (na, nb, nc) in triples:
                sets = build_instance_sets(field, fam, na, nb, nc, seed=0)
                for gs in g_specs:
                    for hs in h_specs:
                        for kind in ("sum", "prod"):
                            rep = lemma_chain_check(
                                sets["A"], sets["B"], sets["C"],
                                fns[gs], fns[hs], kind,
                                triples_cap=64_000_000)
                            n_chains += 1
                            failures += [
                                (p, fam, (na, nb, nc), gs, hs, kind,
                                 chk.name)
                                for chk in rep.failures()]
    el = time.perf_counter() - t0
    assert n_chains >= 200
    by_check: dict = {}
    for fl in failures:
        by_check[fl[-1]] = by_check.get(fl[-1], 0) + 1
    ok = not failures
    detail = ("%d chains all green in %.0fs" % (n_chains, el) if ok else
              "%d/%d chains fail, by check: %s, in %.0fs (plain line "
              "bound is falsifiable; corrected mu bound held everywhere; "
              "see module docstring)"
              % (len(failures), n_chains, by_check, el))
    assert _verdict(3, "lemma chain grid", ok, detail), failures


# -- 4: shifted-difference composite chain ----------------------------------


def test_c4_composite_chain():
    f101, f257 = make_field(101), make_field(257)
    n_ok = n_eq = 0
    for seed in range(100):
        f = f257 if seed % 3 == 0 else f101
        rng = CounterRng(seed, "acc4")
        nb = 4 + int(rng.below(20))
        b = generate(f, "random", size=nb, seed=seed, instance_id="acc4b")
        if seed % 10 == 0:
            c = b  # Hoelder equality case
        else:
            c = generate(f, "random", size=4 + int(rng.below(20)),
                         seed=seed, instance_id="acc4c")
        rep = composite_N_check(b, c)
        if rep.ok:
            n_ok += 1
        if c is b:
            hq = [k for k in rep.checks if k.name == "holder_quartic"][0]
            if hq.lhs == hq.rhs:
                n_eq += 1
    ok = n_ok == 100 and n_eq == 10
    assert _verdict(4, "composite N chain", ok,
                    "%d/100 chains green, %d/10 exact Hoelder equalities"
                    % (n_ok, n_eq))


# -- 5: the classical bound with explicit constants -------------------------


def test_c5_vinh_exact():
    n_pass = 0
    for seed in range(50):
        p = 101 if seed % 2 else 257
        f = make_field(p)
        rng = CounterRng(seed, "acc5")
        lo = math.isqrt(p) + 1
        size = lo + int(rng.below(p - lo))
        a = generate(f, "random", size=size, seed=seed, instance_id="acc5")
        row = theorem_ratio("Vinh_1_2", ThmInstance(a=a, seed=seed))
        assert row.na ** 2 >= p  # the |A| >= sqrt(p) precondition
        if row.exact_pass:
            n_pass += 1
    ok = n_pass == 50
    assert _verdict(5, "Vinh explicit bound", ok,
                    "%d/50 instances pass exactly" % n_pass)


# -- 6: incidence sanity -----------------------------------------------------


def test_c6_incidence_sanity():
    # a nonzero-normal plane holds exactly p^2 points of F_p^3
    plane_ok = True
    for p in (3, 5, 7):
        f = make_field(p)
        pts = np.array([(x, y, z) for x in range(p) for y in range(p)
                        for z in range(p)], dtype=np.int64)
        rng = CounterRng(p, "acc6-planes")
        rows = []
        while len(rows) < 5:
            cand = [int(rng.below(p)) for _ in range(4)]
            if any(cand[:3]):
                rows.append(cand)
        cfg = make_config(f, pts, np.array(rows, dtype=np.int64))
        plane_ok &= incidences(cfg) == cfg.n_planes * p * p
        diag = np.array([(t, t, t) for t in range(p)], dtype=np.int64)
        plane_ok &= max_collinear(diag, f) == p
    f = make_field(101)
    below2 = 0
    worst = 0.0
    for seed in range(100):
        rng = CounterRng(seed, "c6-random-config")
        n = 50 + int(rng.below(951))
        pts = np.stack([rng.integers(0, 101, n + 64) for _ in range(3)],
                       axis=1)
        pts = np.unique(pts, axis=0)[:n]
        raw = np.stack([rng.integers(0, 101, 2 * n + 64)
                        for _ in range(4)], axis=1)
        raw = raw[(raw[:, :3] != 0).any(axis=1)]
        pls = normalize_planes(f, raw)[:n]
        assert len(pts) == n and len(pls) == n, seed
        row = rudnev_ratio(make_config(f, pts, pls))
        assert row["hyp_r_le_s"] and row["hyp_r_le_p2"], seed
        worst = max(worst, row["ratio"])
        below2 += row["ratio"] < 2.0
    ok = plane_ok and below2 >= 99
    assert _verdict(6, "incidence sanity", ok,
                    "plane/diagonal identities %s; ratio < 2.0 on %d/100 "
                    "random configs (worst %.3f)"
                    % ("hold" if plane_ok else "FAIL", below2, worst))


# -- 7: exponent behavior on subgroups, against the golden CSV ---------------


def test_c7_subgroup_growth_slope():
    field = make_field(1009)
    g = make_fn(field, "identity")
    h = make_fn(field, "const", c=1)
    lines = ["order,na,n_image,n_sumset,lhs"]
    nas, lhss = [], []
    for order in (7, 14, 28, 56):
        a = generate(field, "mul_subgroup", order=order)
        fimg = f_image(g, h, a, a)
        ss = combine(a, a, "sum")
        lhs = max(fimg.size, ss.size)
        # for a subgroup the two wings coincide: x + y = x(1 + y/x)
        assert fimg.size == ss.size
        lines.append("%d,%d,%d,%d,%d"
                     % (order, a.size, fimg.size, ss.size, lhs))
        nas.append(a.size)
        lhss.append(lhs)
    text = "\n".join(lines) + "\n"
    golden = (GOLDEN / "c7_subgroup_growth.csv").read_text()
    slope = float(np.polyfit(np.log(nas), np.log(lhss), 1)[0])
    floor = 11.0 / 9.0 - 0.15
    ok = text == golden and slope >= floor
    assert _verdict(7, "subgroup growth slope", ok,
                    "slope %.3f >= %.3f, golden CSV %s"
                    % (slope, floor, "matches" if text == golden
                       else "DIFFERS"))


# -- 8: sweep determinism -----------------------------------------------------


def test_c8_sweep_determinism():
    cfg = {"primes": [101], "families": ["interval", "random"],
           "sizes": [[4, 8, 8]], "seeds": [0, 1],
           "chains": ["lemma", "composite"],
           "theorems": ["Vinh_1_2", "Cor_1_8"]}
    blobs = [report_json(run_sweep(dict(cfg), workers=w)["report"])
             for w in (1, 1, 2)]
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _verdict(8, "sweep determinism", ok,
                    "%d bytes, rerun and worker-count invariant"
                    % len(blobs[0]))


# -- 9: brute-force cross-checks ---------------------------------------------


def test_c9_brute_force_crosschecks():
    f = make_field(101)
    n_x = 0
    for seed in range(20):
        b = generate(f, "random", size=4 + seed % 4, seed=seed,
                     instance_id="acc9b")
        d = combine(b, b, "diff")
        pset = generate(f, "explicit",
                        elements=d.elements()[: 3 + seed % 7].tolist())
        assert count_X(pset, b) == count_X_brute(pset, b), seed
        n_x += 1
    g = make_fn(f, "power", k=2)
    h = make_fn(f, "random", seed=7)
    n_q = 0
    for trial in range(12):
        variant = QUAD_VARIANTS[trial % 4]
        rng = CounterRng(trial, "acc9q")
        a = generate(f, "random", size=3 + int(rng.below(4)), seed=trial,
                     instance_id="acc9qa", zero_free=True)
        x = generate(f, "random", size=2 + int(rng.below(4)), seed=trial,
                     instance_id="acc9qx", zero_free=True)
        b = generate(f, "random", size=4 + int(rng.below(4)), seed=trial,
                     instance_id="acc9qb", zero_free=True)
        third = (f_image(g, h, a, b)
                 if variant in ("E2_sum", "E4_prod") else b)
        want = quad_energy_brute(variant, a, x, third, g, h)
        assert quad_energy(variant, a, x, third, g, h) == want, trial
        n_q += 1
    ok = n_x == 20 and n_q == 12
    assert _verdict(9, "brute-force cross-checks", ok,
                    "count_X %d/20, quad energies %d/12 agree exactly"
                    % (n_x, n_q))
