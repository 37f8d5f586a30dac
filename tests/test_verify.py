"""Exact verification chains: quad energies, solution counts, the
fourth-moment lemma chain, the shifted-difference composite, the
popular-sum machinery, and the theorem ratio rows."""

import hashlib
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from fpsp.energy import level_set, moment, popular_diff, rep_fn
from fpsp.errors import (BadP, BadParams, EmptySet, FpspError,
                         HypothesisViolated, SizeCap, ZeroDivisor, ZeroInA)
from fpsp.field import make_field
from fpsp.functions import f_image, make_fn, mu, parse_fn_spec
from fpsp.incidence import VARIANTS
from fpsp.rng import CounterRng
from fpsp.sets import FSet, affine, combine, generate
from fpsp.sweep import build_instance_sets
from fpsp.verify import (CSV_HEADER, PHI_CAP, THEOREMS, ThmInstance,
                         composite_N_check, count_N_shifted, count_X,
                         eplus_chain, holder_weighted_sum, lemma_chain_check,
                         n_chain_check, phi_chain, phi_count, quad_energy,
                         solution_count_M, theorem_ratio)
from oracles import count_X_brute, quad_energy_brute, solution_count_M_brute

F7 = make_field(7)
F101 = make_field(101)
F1009 = make_field(1009)


def _b123(field=F7):
    return generate(field, "explicit", elements=[1, 2, 3])


def _id(field):
    return make_fn(field, "identity")


def _one(field):
    return make_fn(field, "const", c=1)


# -- quad energies -------------------------------------------------------


def test_quad_energy_tiny_worked():
    # A={1,2}, X={1}, C={3}: values 1*(1+3+1)=5 and 2*(1+3+1)=3, distinct
    a = generate(F7, "explicit", elements=[1, 2])
    x = generate(F7, "explicit", elements=[1])
    c = generate(F7, "explicit", elements=[3])
    e1 = quad_energy("sum_E1", a, x, c, _id(F7), _one(F7))
    assert e1 == 2
    assert e1 == quad_energy_brute("sum_E1", a, x, c, _id(F7), _one(F7))


def test_quad_energy_singletons_are_one():
    s = generate(F7, "explicit", elements=[2])
    for variant in VARIANTS:
        assert quad_energy(variant, s, s, s, _id(F7), _one(F7)) == 1


def test_quad_energy_matches_brute_seeded():
    rng = CounterRng(0, "quad-brute")
    g = make_fn(F101, "power", k=2)
    h = make_fn(F101, "random", seed=5)
    for trial in range(12):
        variant = VARIANTS[trial % 4]
        a = generate(F101, "random", size=3 + int(rng.below(4)), seed=trial,
                     instance_id="qa%d" % trial, zero_free=True)
        x = generate(F101, "random", size=2 + int(rng.below(4)), seed=trial,
                     instance_id="qx%d" % trial, zero_free=True)
        b = generate(F101, "random", size=4 + int(rng.below(4)), seed=trial,
                     instance_id="qb%d" % trial, zero_free=True)
        third = (f_image(g, h, a, b)
                 if variant in ("sum_E2", "prod_E2") else b)
        want = quad_energy_brute(variant, a, x, third, g, h)
        assert quad_energy(variant, a, x, third, g, h) == want, (variant,
                                                                 trial)


def test_quad_energy_cauchy_schwarz_floor():
    # E >= T^2 / p with T the triple count, over the p value classes
    rng = CounterRng(1, "quad-cs")
    for trial in range(8):
        a = generate(F101, "random", size=5, seed=trial,
                     instance_id="cs-a%d" % trial, zero_free=True)
        x = generate(F101, "random", size=5, seed=trial,
                     instance_id="cs-x%d" % trial, zero_free=True)
        c = generate(F101, "random", size=5, seed=trial,
                     instance_id="cs-c%d" % trial, zero_free=True)
        e = quad_energy("sum_E1", a, x, c, _id(F101), _one(F101))
        t = a.size * x.size * c.size
        assert e * 101 >= t * t


def test_quad_energy_rejects():
    s = generate(F7, "explicit", elements=[1])
    for name in ("E5_sum", "E1_sum"):  # the kernels' names only
        with pytest.raises(BadParams, match="unknown variant"):
            quad_energy(name, s, s, s, _id(F7), _one(F7))
    x0 = generate(F7, "explicit", elements=[0, 1])
    with pytest.raises(ZeroDivisor):
        quad_energy("prod_E1", s, x0, s, _id(F7), _one(F7))


# -- solution counts ------------------------------------------------------


def test_solution_count_worked():
    # X_2 of r_{B-C} for B=C={1,2,3} is {0,1,6} with counts 3,2,2
    a = generate(F7, "explicit", elements=[1])
    b = _b123()
    xk = generate(F7, "explicit", elements=[0, 1, 6])
    assert solution_count_M(a, b, b, xk, "sum") == 7
    assert solution_count_M_brute(a, b, b, xk, "sum") == 7
    empty = generate(F7, "explicit", elements=[])
    assert solution_count_M(a, b, b, empty, "sum") == 0


def test_solution_count_matches_brute_seeded():
    rng = CounterRng(2, "m-brute")
    for trial in range(10):
        kind = ("sum", "prod")[trial % 2]
        a = generate(F101, "random", size=4, seed=trial,
                     instance_id="ma%d" % trial, zero_free=True)
        b = generate(F101, "random", size=6, seed=trial,
                     instance_id="mb%d" % trial, zero_free=True)
        c = generate(F101, "random", size=6, seed=trial,
                     instance_id="mc%d" % trial, zero_free=True)
        x = generate(F101, "random", size=5, seed=trial,
                     instance_id="mx%d" % trial, zero_free=True)
        want = solution_count_M_brute(a, b, c, x, kind)
        assert solution_count_M(a, b, c, x, kind) == want, trial


def test_solution_count_rejects():
    b = _b123()
    x0 = generate(F7, "explicit", elements=[0, 1])
    with pytest.raises(BadParams):
        solution_count_M(b, b, b, b, "ratio")
    with pytest.raises(ZeroDivisor):
        solution_count_M(b, b, b, x0, "prod")


# -- lemma chain ----------------------------------------------------------


def test_lemma_chain_worked_small():
    # auto k picks 2; M = 7 >= 2 * 1 * 3
    a = generate(F7, "explicit", elements=[1])
    b = _b123()
    rep = lemma_chain_check(a, b, b, _one(F7), _one(F7), "sum")
    assert rep.ok, rep.failures()
    inst = rep.instance
    assert inst["k"] == 2 and inst["n_k"] == 3 and inst["M"] == 7
    by_name = {c.name: c for c in rep.checks}
    assert by_name["M_lower"].rhs == 6
    assert by_name["E4_level_recon"].relation == "=="


def test_lemma_chain_singleton_equalities():
    s = generate(F7, "explicit", elements=[2])
    rep = lemma_chain_check(s, s, s, _id(F7), _one(F7), "sum")
    assert rep.ok
    for c in rep.checks:
        if c.name in ("M_lower", "M_sq_le_f_E1", "M_sq_le_C_E2"):
            assert c.lhs == c.rhs, c.name


def test_lemma_chain_interval_profile():
    a = generate(F101, "interval", start=1, size=8)
    rep = lemma_chain_check(a, a, a, _id(F101), _one(F101), "sum")
    assert rep.ok, rep.failures()
    assert {"p", "kind", "k", "n_k", "na", "nb", "nc", "nf", "m", "mu_a",
            "M", "E1", "E2", "E4", "I1", "I2"} <= set(rep.instance)
    # B = C triggers the self-shape report row
    assert any(r.name == "E4_vs_self_bound" for r in rep.rows)


def test_lemma_chain_explicit_k_and_prod():
    a = generate(F101, "mul_subgroup", order=5)
    b = generate(F101, "mul_subgroup", order=10)
    rep = lemma_chain_check(a, b, b, _id(F101), _one(F101), "prod", k=1)
    assert rep.ok, rep.failures()
    assert rep.instance["k"] == 1
    # k = 1 level set is the whole ratio support
    assert rep.instance["n_k"] == combine(b, b, "ratio").size


def test_lemma_chain_seeded_grid():
    rng = CounterRng(3, "chain-grid")
    specs = [("identity", {}), ("power", {"k": 2}), ("random", {"seed": 9})]
    for trial in range(9):
        kind = ("sum", "prod")[trial % 2]
        gk, gkw = specs[trial % 3]
        a = generate(F101, "random", size=4, seed=trial,
                     instance_id="ga%d" % trial, zero_free=True)
        b = generate(F101, "random", size=8 + int(rng.below(5)), seed=trial,
                     instance_id="gb%d" % trial, zero_free=True)
        c = generate(F101, "random", size=8, seed=trial,
                     instance_id="gc%d" % trial, zero_free=True)
        g = make_fn(F101, gk, **gkw)
        rep = lemma_chain_check(a, b, c, g, _one(F101), kind)
        assert rep.ok, (trial, rep.failures())


def test_lemma_chain_M_is_the_solution_count():
    # the chain reads M off the histogram its level set came from; it is
    # the solution count over A x B x C x X_k, for either kind and for the
    # automatic level as for a fixed one
    rng = CounterRng(5, "chain-M")
    for trial in range(8):
        kind = ("sum", "prod")[trial % 2]
        f = (F101, make_field(1009))[trial % 3 == 0]
        sizes = [2 + int(rng.below(6)), 8 + int(rng.below(24)),
                 4 + int(rng.below(24))]
        a, b, c = [generate(f, "random", size=size, seed=trial,
                            instance_id="m%d%s" % (trial, tag),
                            zero_free=True)
                   for size, tag in zip(sizes, "abc")]
        g = make_fn(f, "random", seed=trial, instance_id="m-g")
        r = rep_fn(b, c, "difference" if kind == "sum" else "ratio")
        for k in ("auto", 1, 2):
            rep = lemma_chain_check(a, b, c, g, _one(f), kind, k=k)
            xk = level_set(r, rep.instance["k"]).x
            assert rep.instance["M"] == solution_count_M(a, b, c, xk, kind), \
                (trial, kind, k)


def test_lemma_chain_builds_each_kernel_once(monkeypatch):
    # kern1 answers E_1, I_1 and the line count, kern2 answers E_2 and I_2
    from fpsp import incidence, verify
    built = []

    def counting(variant, *args):
        built.append(variant)
        return incidence.proof_kernel(variant, *args)

    a = generate(F101, "explicit", elements=[3, 7, 98])  # 3^2 = 98^2
    b = generate(F101, "interval", start=1, size=8)
    g, h = make_fn(F101, "power", k=2), make_fn(F101, "random", seed=12)
    want = {kind: lemma_chain_check(a, b, b, g, h, kind).to_dict()
            for kind in ("sum", "prod")}
    monkeypatch.setattr(verify, "proof_kernel", counting)
    for kind in ("sum", "prod"):
        built.clear()
        rep = lemma_chain_check(a, b, b, g, h, kind)
        assert built == [kind + "_E1", kind + "_E2"], kind
        assert rep.to_dict() == want[kind], kind
        assert "collinear_R1_mu" in {c.name for c in rep.checks}, kind


def test_lemma_chain_rejects():
    a = generate(F7, "explicit", elements=[1, 2])
    s = generate(F7, "explicit", elements=[1])
    with pytest.raises(BadParams):
        lemma_chain_check(a, s, s, _id(F7), _one(F7), "sum")  # |A| > |B|
    with pytest.raises(BadParams):
        lemma_chain_check(s, a, a, _id(F7), _one(F7), "mixed")
    empty = generate(F7, "explicit", elements=[])
    with pytest.raises(EmptySet):
        lemma_chain_check(empty, a, a, _id(F7), _one(F7), "sum")


# -- shifted differences --------------------------------------------------


def test_count_N_worked_equality():
    b = _b123()
    pset = popular_diff(b, b)
    nm = count_N_shifted(b, b, pset)
    # every n(c) = 3 since P covers all differences: N = 3 * 27 = 81
    assert nm == {"N": 81, "mass": 9}
    # Cauchy-Schwarz is tight here: N|C| = mass^2 |B|
    assert nm["N"] * 3 == nm["mass"] ** 2 * 3


def test_count_N_singleton_and_badp():
    s = generate(F7, "explicit", elements=[4])
    zero = generate(F7, "explicit", elements=[0])
    assert count_N_shifted(s, s, zero) == {"N": 1, "mass": 1}
    outside = generate(F7, "explicit", elements=[1])
    with pytest.raises(BadP):
        count_N_shifted(s, s, outside)
    # B - C is empty when B or C is, so any nonempty P lies outside it
    empty = generate(F7, "explicit", elements=[])
    for b, c in ((empty, s), (s, empty)):
        assert count_N_shifted(b, c, empty) == {"N": 0, "mass": 0}
        with pytest.raises(BadP):
            count_N_shifted(b, c, zero)


def _count_N_broadcast(b, c, pset):
    """The whole |B| x |C| table at once: the oracle for count_N_shifted."""
    be, ce = b.elements(), c.elements()
    nvec = pset.mask[(be[:, None] - ce[None, :]) % b.field.p].sum(axis=0)
    return {"N": b.size * int(np.dot(nvec, nvec)), "mass": int(nvec.sum())}


def _part_of_diffs(b, c, residue):
    """The x in B - C with x = residue mod 3, an admissible P."""
    keep = np.arange(b.field.p) % 3 == residue % 3
    return FSet(b.field, combine(b, c, "diff").mask & keep)


def test_count_N_matches_broadcast():
    # small grids, |B| = 1 and 0 in the sets, plus one 2100 x 2000 grid
    # that takes two row chunks
    rng = CounterRng(5, "count-N-grid")
    cases = [(F101, 1, 7), (F101, 7, 1), (F101, 30, 40)]
    cases += [(F101, 1 + int(rng.below(60)), 1 + int(rng.below(60)))
              for _ in range(12)]
    cases.append((make_field(10007), 2100, 2000))
    for trial, (f, nb, nc) in enumerate(cases):
        b = generate(f, "random", size=nb, seed=trial, instance_id="B")
        c = generate(f, "random", size=nc, seed=trial, instance_id="C")
        if trial % 2:
            b = FSet(f, b.mask | (np.arange(f.p) == 0))
        pset = _part_of_diffs(b, c, trial)
        assert count_N_shifted(b, c, pset) == _count_N_broadcast(b, c, pset)


def test_count_N_memory_bounded():
    """3000 x 3000 at p = 1048573 (9e6 cells, about 138 MB of temporaries
    as one table) is counted in row chunks and peaks under 64 MB."""
    import tracemalloc
    f = make_field(1048573)
    b = generate(f, "random", size=3000, seed=1)
    c = generate(f, "random", size=3000, seed=2)
    pset = _part_of_diffs(b, c, 0)
    tracemalloc.start()
    try:
        nm = count_N_shifted(b, c, pset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    # mass = #{(b, c) : b - c in P} = sum over P of r_{B-C}
    r = rep_fn(b, c, "difference")
    assert nm["mass"] == int(r.counts[pset.mask].sum())


def test_count_X_worked_and_brute():
    s = generate(F7, "explicit", elements=[4])
    zero = generate(F7, "explicit", elements=[0])
    assert count_X(zero, s) == 1
    b = _b123()
    pset = popular_diff(b, b)
    got = count_X(pset, b)
    assert got == count_X_brute(pset, b)
    d = combine(b, b, "diff")
    assert got >= pset.size * d.size  # diagonal quadruples


def test_count_X_brute_seeded():
    for seed in range(6):
        b = generate(F101, "random", size=7, seed=seed, instance_id="xb")
        pset = popular_diff(b, b)
        assert count_X(pset, b) == count_X_brute(pset, b), seed


def test_holder_equality_and_cases():
    b = _b123()
    hw = holder_weighted_sum(b, b)
    assert hw["lhs"] == hw["e4b"] == 115 and hw["holds"]
    c = generate(F7, "explicit", elements=[1, 2, 4])
    hw2 = holder_weighted_sum(b, c)
    assert hw2["holds"]
    assert hw2["lhs"] ** 4 <= hw2["e4b"] ** 3 * hw2["e4c"]
    s = generate(F7, "explicit", elements=[5])
    hw3 = holder_weighted_sum(s, c)
    assert hw3["lhs"] == c.size  # r_{B-B} = {0:1}; lhs = r_{C-C}(0)
    assert hw3["holds"]


def test_composite_chain_worked_and_seeded():
    rep = composite_N_check(_b123(), _b123())
    assert rep.ok, rep.failures()
    assert rep.instance["N"] == 81 and rep.instance["mass"] == 9
    s = generate(F7, "explicit", elements=[4])
    assert composite_N_check(s, s).ok
    for seed in range(12):
        b = generate(F101, "random", size=10, seed=seed, instance_id="cb")
        c = generate(F101, "random", size=10, seed=seed, instance_id="cc")
        rep = composite_N_check(b, c)
        assert rep.ok, (seed, rep.failures())


def test_composite_affine_invariance():
    # x -> 3x + 5 permutes differences; every recorded count survives
    b = generate(F101, "random", size=9, seed=0, instance_id="ib")
    c = generate(F101, "random", size=9, seed=0, instance_id="ic")
    r1 = composite_N_check(b, c).instance
    r2 = composite_N_check(affine(b, 3, 5), affine(c, 3, 5)).instance
    assert r1 == r2


def test_n_chain_default_vs_supplied():
    b = _b123()
    rep = n_chain_check(b, b)
    assert rep.ok and len(rep.checks) == 3 and not rep.rows
    assert rep.instance["default_P"] is True
    # caller-supplied P: only Cauchy-Schwarz stays a check
    zero = generate(F7, "explicit", elements=[0])
    rep2 = n_chain_check(b, b, zero)
    assert rep2.ok and len(rep2.checks) == 1
    assert rep2.checks[0].name == "N_cauchy_schwarz"
    assert {r.name for r in rep2.rows} == {"popular_mass", "N_cube_lower"}
    assert all("popular P" in r.note for r in rep2.rows)
    assert rep2.instance["default_P"] is False


# -- eplus and phi --------------------------------------------------------


def test_eplus_chain_seeded():
    g = make_fn(F101, "power", k=2)
    for seed in range(6):
        a = generate(F101, "random", size=4, seed=seed,
                     instance_id="ea", zero_free=True)
        b = generate(F101, "random", size=8, seed=seed,
                     instance_id="eb", zero_free=True)
        c = generate(F101, "random", size=8, seed=seed,
                     instance_id="ec", zero_free=True)
        rep = eplus_chain(a, b, c, g, _one(F101))
        assert rep.ok, (seed, rep.failures())
        assert rep.checks[0].name == "A2_eplus_le_W"
        assert rep.instance["W"] >= a.size ** 2 * rep.instance["Eplus"]


def test_eplus_W_is_the_lemma_chain_E2_at_level_one():
    # At the selected level k = 1, X_1 = {x : r_{B-C}(x) >= 1} = B - C,
    # so the eplus chain's W, the sum_E2 quad energy of (A, B - C,
    # f(A,B)), is the sum-kind lemma chain's E2: the two chains sum the
    # same kernel.  Seeded sweep instances at p = 1009, and the random
    # 8/32/16 instance at p = 1048573 with g = id, h = random:12, seed 0.
    big = make_field(1048573)
    cases = [(build_instance_sets(F1009, "random", 6, 10, 8, seed),
              parse_fn_spec(F1009, g), parse_fn_spec(F1009, "random:%d"
                                                     % seed))
             for seed in range(4) for g in ("id", "power:2")]
    cases.append((build_instance_sets(big, "random", 8, 32, 16, 0),
                   parse_fn_spec(big, "id"), parse_fn_spec(big, "random:12")))
    for sets, g, h in cases:
        a, b, c = sets["A"], sets["B"], sets["C"]
        lemma = lemma_chain_check(a, b, c, g, h, "sum")
        assert lemma.instance["k"] == 1, (a.field.p, g, h)
        w = eplus_chain(a, b, c, g, h).instance["W"]
        assert w == lemma.instance["E2"], (a.field.p, g, h)


def test_phi_count_extremes():
    b = _b123()
    c = generate(F7, "explicit", elements=[1, 2])
    full = generate(F7, "interval", start=0, size=7)
    assert phi_count(b, c, full, full) == b.size ** 2 * c.size ** 2
    empty = generate(F7, "explicit", elements=[])
    assert phi_count(b, c, full, empty) == 0


def test_phi_cap_refuses_one_past():
    # |C| = PHI_CAP + 1 raises SizeCap from both functions
    c = generate(F1009, "interval", start=1, size=PHI_CAP + 1)
    b = generate(F1009, "interval", start=1, size=10)
    with pytest.raises(SizeCap):
        phi_count(b, c, c, c)
    with pytest.raises(SizeCap):
        phi_chain(b, c)


def test_phi_chain_runs_and_negative_rhs():
    c = generate(F101, "interval", start=1, size=10)
    b = generate(F101, "interval", start=20, size=10)
    rep = phi_chain(b, c, eps=Fraction(1, 5))
    assert rep.ok, rep.failures()
    names = {r.name for r in rep.rows}
    assert "phi_vs_popular_bound" in names and "core_size_vs_C" in names
    # eps > 1/4 makes (1 - 4 eps) negative: ratio pinned to -1
    rep2 = phi_chain(b, c, eps=Fraction(1, 3))
    row = [r for r in rep2.rows if r.name == "phi_vs_popular_bound"][0]
    assert row.ratio == -1.0 and "rhs nonpositive" in row.note


# -- theorem rows ---------------------------------------------------------


def test_every_theorem_emits_a_row():
    a = generate(F101, "mul_subgroup", order=10)
    inst = ThmInstance(a=a, g=_id(F101), h=_one(F101), family="unit",
                       seed=1)
    for tid in THEOREMS:
        row = theorem_ratio(tid, inst)
        assert row.theorem == tid and row.ratio >= 0
        assert row.na == a.size
        d = row.to_dict()
        assert d["theorem"] == tid and d["hyp_ok"] == row.hyp_ok
        line = row.csv_line()
        assert len(line.split(",")) == len(CSV_HEADER.split(","))
        assert line.split(",")[-1] in ("true", "false")


def test_vinh_full_field_exact():
    full = generate(F101, "interval", start=0, size=101)
    row = theorem_ratio("Vinh_1_2", ThmInstance(a=full))
    # A = F_p: sumset and productset both fill the field, t = 0 exactly
    assert row.exact_pass is True and row.relation == "upper"
    assert row.extras == {"n_sumset": 101, "n_prodset": 101}
    for seed in range(10):
        a = generate(F101, "random", size=11, seed=seed, instance_id="va")
        r = theorem_ratio("Vinh_1_2", ThmInstance(a=a, seed=seed))
        assert r.exact_pass is True, seed


def test_cor_1_7_singleton_ratio_one():
    s = generate(F101, "explicit", elements=[5])
    row = theorem_ratio("Cor_1_7", ThmInstance(a=s, g=_id(F101),
                                               h=_one(F101)))
    assert row.lhs == 1 and row.rhs == 1.0 and row.ratio == 1.0
    assert row.hyp_ok


def test_hypothesis_flags_and_strict():
    # |A| = 17 in p = 101: 17^5 > 101^3, the three-fifths condition fails
    big = generate(F101, "interval", start=1, size=17)
    inst = ThmInstance(a=big, g=_id(F101), h=_one(F101))
    row = theorem_ratio("Cor_1_7", inst)
    assert not row.hyp_ok
    with pytest.raises(HypothesisViolated):
        theorem_ratio("Cor_1_7", inst, strict=True)
    small = generate(F101, "mul_subgroup", order=10)
    assert theorem_ratio(
        "Cor_1_7", ThmInstance(a=small, g=_id(F101), h=_one(F101))).hyp_ok


def test_theorem_missing_pieces_and_unknown():
    a = generate(F101, "mul_subgroup", order=10)
    with pytest.raises(BadParams):
        theorem_ratio("nope", ThmInstance(a=a))
    with pytest.raises(BadParams):
        theorem_ratio("HH_1_1", ThmInstance(a=a))  # needs g, h
    empty = generate(F101, "explicit", elements=[])
    with pytest.raises(BadParams):
        theorem_ratio("Vinh_1_2", ThmInstance(a=empty))


def test_threshold_theorem_eps_handling():
    a = generate(F101, "mul_subgroup", order=10)
    inst = ThmInstance(a=a, g=_id(F101), h=_one(F101),
                       eps=Fraction(1, 10))
    row = theorem_ratio("T_1_12_threshold", inst)
    assert row.extras["eps"] == "1/10"
    assert set(row.extras) >= {"cond_statement", "cond_proof",
                               "rhs_proof", "ratio_proof"}
    for eps in (Fraction(3, 2), Fraction(1, 10_001), 0.1):
        # 0.1 as a float is a Fraction with denominator 2^55
        bad = ThmInstance(a=a, g=_id(F101), h=_one(F101), eps=eps)
        with pytest.raises(BadParams):
            theorem_ratio("T_1_12_threshold", bad)
    ok = ThmInstance(a=a, g=_id(F101), h=_one(F101), eps=Fraction(1, 10_000))
    assert theorem_ratio("T_1_12_threshold", ok).extras["eps"] == "1/10000"


def test_dilation_invariance_of_classical_rows():
    # lhs and extras of the sum-product statements only see |A+A|, |AA|,
    # |A|, all invariant under A -> lam * A
    a = generate(F101, "random", size=12, seed=3, instance_id="dil",
                 zero_free=True)
    scaled = affine(a, 7, 0)
    for tid in ("HIS_1_1", "Vinh_1_2"):
        r1 = theorem_ratio(tid, ThmInstance(a=a))
        r2 = theorem_ratio(tid, ThmInstance(a=scaled))
        assert (r1.lhs, r1.rhs, r1.extras) == (r2.lhs, r2.rhs, r2.extras)


def test_warren_row_ignores_supplied_maps():
    # the Warren specialization pins g, h internally; mu factor is 1
    a = generate(F101, "mul_subgroup", order=10)
    row = theorem_ratio("Cor_1_11_Warren", ThmInstance(a=a))
    assert row.m == 1
    # first wing is x(1+y) over A x A, i.e. A * (A+1) as sets
    assert row.extras["n_image1"] == combine(affine(a, 1, 1), a,
                                             "prod").size


def test_warren_row_matches_table_route():
    # The row takes {a(1+b)} and {d(1-c)} without tables.  The old route
    # built g = x, h = 1 and g = -x, h = -1 as length-p tables and ran
    # f_image; T_1_9 on those tables is that route (its m is then 1).
    for p in (101, 1009, 1048573):
        f = make_field(p)
        tables = dict(g=_id(f), h=_one(f),
                      g2=make_fn(f, "affine", u=p - 1, v=0),
                      h2=make_fn(f, "const", c=p - 1))
        for trial in range(3):
            a, b, c, d = (generate(f, "random", size=n, seed=trial,
                                   instance_id="warren|%s" % tag,
                                   zero_free=True)
                          for n, tag in ((4, "a"), (9, "b"), (7, "c"),
                                         (3, "d")))
            sets = dict(a=a, b=b, c=c, d=d, family="random", seed=trial)
            got = theorem_ratio("Cor_1_11_Warren", ThmInstance(**sets))
            old = theorem_ratio("T_1_9", ThmInstance(**sets, **tables))
            assert got.to_dict() == dict(old.to_dict(),
                                         theorem="Cor_1_11_Warren"), p
        zero = generate(f, "explicit", elements=[0, 1])
        for bad, err in ((dict(a=zero, b=b), ZeroInA),
                         (dict(a=a, b=zero), BadParams),
                         (dict(a=a, b=b, c=zero, d=d), BadParams)):
            with pytest.raises(err):
                theorem_ratio("Cor_1_11_Warren", ThmInstance(**bad))
            with pytest.raises(err):
                theorem_ratio("T_1_9", ThmInstance(**bad, **tables))


def test_mu_factor_recorded():
    a = generate(F101, "mul_subgroup", order=10)
    g = make_fn(F101, "power", k=2)
    row = theorem_ratio("HH_1_2", ThmInstance(a=a, g=g, h=_one(F101)))
    assert row.m == mu(g) == 2


GOLDEN_ROWS = (pathlib.Path(__file__).parent / "golden"
               / "theorem_rows_sha256.txt")

# (g, h, g2, h2) specs; None leaves the second wing on g, h
_ROW_MAPS = (("id", "const:3", None, None),
             ("power:2", "random:12", "id", None),
             ("random:11", "power:5", None, "power:3"),
             ("power:3", "power:2", "random:11", "random:12"))


def test_golden_theorem_rows():
    # SHA-256 over every theorem row, strict off and on, on a grid of the
    # sweep's five families at two primes, two size triples, two seeds and
    # four map choices, two with distinct second wings.  A row adds its
    # to_dict() JSON (sorted keys) and its csv_line(); an error adds its
    # class and message.  The sweep golden pins only g = id, h = const:1.
    digest = hashlib.sha256()
    n_rows = n_errors = 0
    for p in (101, 1009):
        field = make_field(p)
        maps = [tuple(None if s is None else parse_fn_spec(field, s)
                      for s in specs) for specs in _ROW_MAPS]
        for fam in ("interval", "ap", "gp", "mul_subgroup", "random"):
            for na, nb, nc in ((4, 8, 8), (6, 6, 12)):
                for seed in (0, 1):
                    sets = build_instance_sets(field, fam, na, nb, nc, seed)
                    for g, h, g2, h2 in maps:
                        inst = ThmInstance(a=sets["A"], b=sets["B"],
                                           c=sets["C"], d=sets["D"], g=g,
                                           h=h, g2=g2, h2=h2, family=fam,
                                           seed=seed)
                        for tid in THEOREMS:
                            for strict in (False, True):
                                try:
                                    row = theorem_ratio(tid, inst, strict)
                                except FpspError as exc:
                                    n_errors += 1
                                    line = "%s: %s\n" % (
                                        type(exc).__name__, exc)
                                else:
                                    n_rows += 1
                                    line = "%s\n%s\n" % (
                                        json.dumps(row.to_dict(),
                                                   sort_keys=True),
                                        row.csv_line())
                                digest.update(line.encode())
    got = "rows=%d errors=%d %s" % (n_rows, n_errors, digest.hexdigest())
    assert got == GOLDEN_ROWS.read_text().strip()
