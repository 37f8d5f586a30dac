"""Sweep config validation, grid order, and report determinism."""

import hashlib
import json
import pathlib
from collections import Counter

import numpy as np
import pytest

from fpsp import functions, rng, sweep, verify
from fpsp.cli import dispatch
from fpsp.energy import rep_fn
from fpsp.errors import ConfigError, ParseError
from fpsp.field import PrimeField, make_field
from fpsp.sets import PAIR_CHUNK, generate
from fpsp.sweep import (CHAIN_NAMES, SweepConfig, _instance_payload,
                        build_instance_sets, load_config_file, report_json,
                        rows_csv, run_sweep)
from fpsp.verify import CHAINS, CSV_HEADER, THEOREMS

BASE = {
    "primes": [101],
    "families": ["interval", "random"],
    "sizes": [[4, 8, 8]],
    "seeds": [0, 1],
}


def _cfg(**over):
    raw = dict(BASE)
    raw.update(over)
    return raw


def test_config_defaults():
    cfg = SweepConfig.from_dict(_cfg())
    assert cfg.g == ["id"] and cfg.h == ["const:1"]
    assert cfg.kinds == ["sum"] and cfg.chains == ["lemma"]
    assert cfg.theorems == [] and cfg.k == "auto"
    # round trip through to_dict revalidates cleanly
    assert SweepConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.mark.parametrize("broken", [
    {"primes": [4]},                      # not >= 3? 4 is but composite is
    {"primes": [2]},                      # caught here: too small
    {"primes": "101"},                    # not a list
    {"families": ["cartesian"]},          # unknown family
    {"sizes": [[8, 4, 8]]},               # na > nb
    {"sizes": [[4, 8]]},                  # wrong arity
    {"sizes": [[4, 8, 200]]},             # does not fit F_101^*
    {"seeds": [-1]},                      # negative seed
    {"kinds": ["ratio"]},                 # unknown kind
    {"chains": ["sigma"]},                # unknown chain
    {"theorems": ["T_9_9"]},              # unknown theorem id
    {"k": 0},                             # below 1
    {"k": "first"},                       # not auto
    {"triples_cap": 0},                   # not positive
    {"seeds": [True]},                    # JSON true is not the int 1
    {"sizes": [[True, 8, 8]]},
    {"k": True},
    {"triples_cap": True},
    {"collinear_cap": True},
    {"bogus": 1},                         # unknown key
    {"chains": ["phi"], "primes": [257], "sizes": [[4, 120, 8]]},  # phi gate
    {"eps": "abc"},                       # not a number
    {"eps": "1/0"},                       # zero denominator
    {"eps": 2},                           # outside (0,1), phi not run
    {"eps": True},                        # JSON true is not the number 1
    {"g": ["idd"]},                       # misspelt function spec
    {"h": ["affine:1"]},                  # affine needs u and v
    {"g": [True]},                        # a spec must be a string
    {"h": [1]},
])
def test_config_rejects(broken):
    # primes=4 passes the >= 3 gate here; make_field rejects it later, so
    # swap in a genuinely invalid value for this table
    raw = _cfg(**broken)
    if broken == {"primes": [4]}:
        raw["primes"] = [4.0]
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(raw)


def test_config_keeps_no_caller_list():
    # the config copies the lists it validated, so a later change to the
    # raw dict reaches neither the config nor to_dict
    raw = {"primes": [101], "families": ["interval"], "sizes": [[4, 8, 8]],
           "seeds": [0, 1], "g": ["id"]}
    cfg = SweepConfig.from_dict(raw)
    want = cfg.to_dict()
    raw["primes"].append(4)
    raw["seeds"].append(-1)
    raw["g"][0] = "idd"
    assert (cfg.primes, cfg.seeds, cfg.g) == ([101], [0, 1], ["id"])
    assert cfg.to_dict() == want


def test_missing_required_key():
    raw = _cfg()
    del raw["seeds"]
    with pytest.raises(ConfigError):
        SweepConfig.from_dict(raw)


def test_descriptor_grid_order():
    cfg = SweepConfig.from_dict(_cfg(g=["id", "power:2"]))
    descs = cfg.descriptors()
    assert len(descs) == 1 * 2 * 1 * 2 * 2 * 1
    # primes x families x sizes x seeds x g x h, declaration order
    assert descs[0] == (101, "interval", (4, 8, 8), 0, "id", "const:1")
    assert descs[1] == (101, "interval", (4, 8, 8), 0, "power:2", "const:1")
    assert descs[2] == (101, "interval", (4, 8, 8), 1, "id", "const:1")
    assert descs[4] == (101, "random", (4, 8, 8), 0, "id", "const:1")


def test_instance_sets_deterministic_and_zero_free():
    f = make_field(101)
    for fam in ("interval", "ap", "gp", "mul_subgroup", "random"):
        s1 = build_instance_sets(f, fam, 4, 8, 8, seed=3)
        s2 = build_instance_sets(f, fam, 4, 8, 8, seed=3)
        for name in "ABCD":
            assert s1[name] == s2[name], (fam, name)
            assert s1[name].is_zero_free, (fam, name)
        if fam != "mul_subgroup":  # subgroup order snaps to a divisor
            assert s1["A"].size == 4 and s1["B"].size == 8
        assert s1["D"].size == s1["C"].size
        assert build_instance_sets(f, fam, 4, 8, 8, seed=4) != s1 \
            or fam == "mul_subgroup"  # subgroups ignore the seed


def test_gp_retry_small_field():
    # F_13 has few large-order elements; the retry loop must still land
    f = make_field(13)
    s = build_instance_sets(f, "gp", 3, 4, 4, seed=0)
    assert s["B"].size == 4 and s["B"].is_zero_free


def test_sweep_serial_repeat_identical():
    res1 = run_sweep(_cfg(theorems=["Vinh_1_2", "Cor_1_8"]))
    res2 = run_sweep(_cfg(theorems=["Vinh_1_2", "Cor_1_8"]))
    assert report_json(res1["report"]) == report_json(res2["report"])
    assert res1["report"]["n_failures"] == 0
    assert res1["meta"]["n_instances"] == 4


def test_sweep_workers_do_not_change_report():
    # the last config runs one pool per prime, and its random: tables are
    # cut into uneven word ranges (100 words at p = 101: 36, 36, 28)
    configs = [(_cfg(seeds=[0], g=["id", "random:11"], kinds=["sum", "prod"],
                     chains=["lemma", "composite", "eplus", "phi"], eps=eps,
                     theorems=["Vinh_1_2", "Cor_1_8", "T_1_9"]), 4 * 5, 1)
               for eps in ("1/5", 0.2)]
    configs.append((_cfg(primes=[101, 1009], g=["id", "random:11"],
                         h=["const:1", "random:12"],
                         theorems=["Vinh_1_2", "Cor_1_8"]), 32, 4))
    for raw, n_chains, n_tables in configs:
        res1 = run_sweep(raw, workers=1)
        assert len(res1["report"]["chains"]) == n_chains, raw
        for workers in (2, 3):
            res = run_sweep(raw, workers=workers)
            assert report_json(res["report"]) == report_json(res1["report"])
            assert res["meta"]["workers"] == workers
            assert res["meta"]["n_tables"] == n_tables
            assert res["meta"]["tables_s"] >= 0


def test_sweep_failure_rows(tmp_path):
    # One of the two instances fails the plain line bound, the check the
    # criterion-3 grid records as red: the report names that one check,
    # the pool of two workers gives the same bytes, and the CLI exits 1.
    raw = {"primes": [101], "families": ["interval"], "sizes": [[4, 8, 8]],
           "seeds": [0], "g": ["power:2", "id"], "h": ["random:12"],
           "kinds": ["prod"]}
    blobs = [report_json(run_sweep(raw, workers=w)["report"])
             for w in (1, 2)]
    assert blobs[0] == blobs[1]
    rep = json.loads(blobs[0])
    assert rep["n_failures"] == 1
    assert rep["failures"] == [{
        "id": "p=101|interval|na=4,nb=8,nc=8|seed=0|g=power:2|h=random:12",
        "chain": "lemma:prod", "check": "collinear_R1_literal"}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert dispatch(["sweep", "--config", str(path), "--workers", "2",
                     "--out", str(tmp_path / "report.json")]) == 1


def test_sweep_aggregates_and_csv():
    res = run_sweep(_cfg(theorems=["Vinh_1_2"]))
    agg = res["report"]["aggregates"]["Vinh_1_2"]
    assert agg["count"] == 4 and agg["n_exact_fail"] == 0
    assert agg["min_ratio"] <= agg["median_ratio"] <= agg["max_ratio"]
    csv = rows_csv(res["report"]["rows"])
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert all(len(ln.split(",")) == 13 for ln in lines)


def test_sweep_chain_variants_run():
    raw = _cfg(families=["interval"], seeds=[0],
               chains=["lemma", "composite", "eplus", "phi"],
               kinds=["sum", "prod"], eps="1/5")
    res = run_sweep(raw)
    chains = res["report"]["chains"]
    tags = [c["chain"] for c in chains]
    assert tags == ["lemma:sum", "lemma:prod", "composite", "eplus", "phi"]
    assert res["report"]["n_failures"] == 0
    assert all(c["ok"] for c in chains)


def test_chain_names_come_from_verify_chains():
    assert CHAIN_NAMES == ("lemma", "composite", "eplus", "phi")
    assert set(CHAIN_NAMES) < set(CHAINS)
    with pytest.raises(ConfigError,
                       match=r"unknown chain 'n-chain' \(have "
                             r"lemma/composite/eplus/phi\)"):
        SweepConfig.from_dict(_cfg(chains=["n-chain"]))


def test_chain_calls_see_rebound_functions(monkeypatch, capsys):
    # verify.CHAINS looks each chain function up in verify's globals when
    # it runs, so a rebinding of the module attribute (a profiler's timing
    # wrapper, this monkeypatch) sees every call the sweep and the CLI
    # make through the table.  A table holding the function objects would
    # still run every chain, and this test would fail.
    names = {"lemma": "lemma_chain_check", "n-chain": "n_chain_check",
             "composite": "composite_N_check", "eplus": "eplus_chain",
             "phi": "phi_chain"}
    assert set(names) == set(CHAINS)
    calls = Counter()
    for fname in names.values():
        def counting(*args, _real=getattr(verify, fname), _name=fname,
                     **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(verify, fname, counting)
    res = run_sweep(_cfg(families=["interval"], seeds=[0],
                         chains=list(CHAIN_NAMES), eps="1/5"))
    assert res["report"]["n_failures"] == 0
    assert calls == Counter(names[ch] for ch in CHAIN_NAMES)
    calls.clear()
    for mode, _, reads, _ in CHAINS.values():
        argv = ["verify", mode, "--p", "101", "--B", "interval:1:8"]
        if "A" in reads:
            argv += ["--A", "interval:1:4"]
        assert dispatch(argv) == 0, mode
    capsys.readouterr()
    assert calls == Counter(names.values())


def test_eps_accepts_fraction_string_and_float():
    for eps in ("1/5", 0.2):
        res = run_sweep(_cfg(families=["interval"], seeds=[0],
                             chains=["phi"], eps=eps))
        assert res["report"]["n_failures"] == 0


# SHA-256 of report_json for the phi grid _cfg(chains=["phi"], eps=...),
# pinned while a string eps without "/" was still read as a float: an
# "a/b" string and a JSON number keep their bytes.
EPS_REPORT_SHA256 = {
    "1/5": "d17cca2933ead0731e7b84c4b4b34c9d9bfe42bff6d59432db01ec05b2563050",
    0.1: "ae62e13fb3fa4d597ee219f708a384e17c604e21cce29aec80a9e7c15c6efcc7",
}


def test_eps_string_read_exactly_number_keeps_binary_value():
    for eps, want in EPS_REPORT_SHA256.items():
        rep = run_sweep(_cfg(chains=["phi"], eps=eps))["report"]
        got = hashlib.sha256(report_json(rep).encode()).hexdigest()
        assert got == want, eps
    # Fraction(0.1) is the double nearest 1/10, exactly
    for eps, want in (("0.1", "1/10"), ("1e-1", "1/10"), ("1/10", "1/10"),
                      (0.1, "3602879701896397/36028797018963968")):
        rep = run_sweep(_cfg(families=["interval"], seeds=[0],
                             chains=["phi"], eps=eps))["report"]
        assert [c["instance"]["eps"] for c in rep["chains"]] == [want], eps
        assert rep["config"]["eps"] == eps


def test_file_spec_must_exist_at_load(tmp_path):
    missing = tmp_path / "absent.txt"
    for key in ("g", "h"):
        with pytest.raises(ConfigError, match="absent.txt"):
            SweepConfig.from_dict(_cfg(**{key: ["file:%s" % missing]}))
    with pytest.raises(ConfigError):  # a directory is not a table file
        SweepConfig.from_dict(_cfg(g=["file:%s" % tmp_path]))
    # the table is read per instance: a present file loads, and one of the
    # wrong length fails only when its instance runs
    good, short = tmp_path / "good.txt", tmp_path / "short.txt"
    functions.write_fn_file(str(good),
                            functions.make_fn(make_field(101), "power", k=3))
    short.write_text("p=101\n1\n2\n")
    cfg = SweepConfig.from_dict(_cfg(seeds=[0], g=["file:%s" % good]))
    assert run_sweep(cfg)["report"]["n_failures"] == 0
    cfg = SweepConfig.from_dict(_cfg(seeds=[0], g=["file:%s" % short]))
    with pytest.raises(ParseError):
        _instance_payload(cfg, cfg.descriptors()[0])


def test_load_config_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_cfg()))
    cfg = load_config_file(str(path))
    assert cfg.primes == [101]
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "absent.json"))


def test_instance_evaluates_whole_domain_mu_once_per_table(monkeypatch):
    # Every chain and all 15 rows on one instance with two random tables,
    # built by the sweep's table phase on one worker: mu(g) and mu(g*h)
    # are asked for many times but evaluated once each, by the instance.
    cfg = SweepConfig.from_dict(_cfg(
        primes=[1009], families=["random"], sizes=[[8, 16, 8]], seeds=[0],
        g=["random:11"], h=["random:12"], kinds=["sum", "prod"],
        chains=["lemma", "composite", "eplus"], theorems=list(THEOREMS)))
    real_mu, real_mu_product = functions.mu, functions.mu_product
    real_count_max = functions._count_max
    asked, evaluated = [0], Counter()

    def counting_mu(fn, domain=None):
        asked[0] += domain is None
        return real_mu(fn, domain)

    def counting_mu_product(g, h, domain=None):
        asked[0] += domain is None
        return real_mu_product(g, h, domain)

    def counting_count_max(vals, p, times=None):
        key = hashlib.sha256(vals)
        if times is not None:
            key.update(times)
        evaluated[key.hexdigest()] += 1
        return real_count_max(vals, p, times)

    for mod in (functions, verify):
        monkeypatch.setattr(mod, "mu", counting_mu)
        monkeypatch.setattr(mod, "mu_product", counting_mu_product)
    monkeypatch.setattr(functions, "_count_max", counting_count_max)
    assert run_sweep(cfg)["meta"]["n_tables"] == 2
    assert len(evaluated) == 2  # g and g*h
    assert max(evaluated.values()) == 1, evaluated
    assert asked[0] > 10


GOLDEN_SWEEPS = (pathlib.Path(__file__).parent / "golden"
                 / "sweep_p1048573_sha256.txt")


def _large_p_cfg(family, sizes):
    return {"primes": [1048573], "families": [family], "sizes": [sizes],
            "seeds": [0], "g": ["id"], "h": ["const:1"],
            "chains": ["lemma", "composite", "eplus", "phi"], "eps": "1/5",
            "theorems": list(THEOREMS)}


def test_golden_sweep_reports_p1048573():
    # SHA-256 of report_json for two small grids at p = 1048573, where the
    # kernel's sparse route carries nearly every count (at p = 101 it
    # barely triggers).  The pins were taken before the sparse route
    # existed, so they hold it to the dense route's bytes.
    want = dict(line.split() for line in
                GOLDEN_SWEEPS.read_text().splitlines() if line.strip())
    got = {}
    for family, sizes in (("interval", [8, 16, 8]),
                          ("mul_subgroup", [8, 32, 16])):
        blob = report_json(run_sweep(_large_p_cfg(family, sizes),
                                     workers=1)["report"])
        got["%s_%s" % (family, "-".join(map(str, sizes)))] = \
            hashlib.sha256(blob.encode()).hexdigest()
    assert got == want


def test_small_instance_builds_no_length_p_histogram(monkeypatch):
    # Every count of an 8/16/8 sum-kind instance at p = 1048573 is below
    # p/8 cells, so no np.bincount of length p may run (mu counts a whole
    # table with np.add.at and is not a pair count).  The prod kind's E2
    # kernel reaches 2^17 cells there, just above p/8, and rightly takes
    # the dense route.
    p = 1048573
    real_bincount = np.bincount
    long_calls = []

    def spy(x, weights=None, minlength=0):
        if minlength >= p:
            long_calls.append(len(x))
        return real_bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    # the spy sees a kernel call above the crossover (400 x 400 cells):
    # one length-p bincount, of the first chunk's whole rows
    f = make_field(p)
    big = generate(f, "random", size=400, seed=0, zero_free=True)
    rep_fn(big, big, "difference", method="naive")
    assert long_calls == [PAIR_CHUNK // 400 * 400]
    del long_calls[:]
    cfg = SweepConfig.from_dict(_large_p_cfg("interval", [8, 16, 8]))
    _instance_payload(cfg, cfg.descriptors()[0])
    assert long_calls == []


def test_large_p_instances_build_no_field_tables(monkeypatch):
    # At p = 1048573 a sweep instance needs a few dozen inverses and
    # subgroup powers, which the field computes without its three length-p
    # tables; no chain or theorem row may read a table either.
    builds = []
    real_build = PrimeField._build_tables

    def counting_build(field):
        builds.append(field.p)
        real_build(field)

    monkeypatch.setattr(PrimeField, "_build_tables", counting_build)
    for family, sizes, g, h in (("interval", [8, 16, 8], "id", "const:1"),
                                ("random", [8, 32, 16], "id", "random:12"),
                                ("mul_subgroup", [8, 32, 16], "random:11",
                                 "const:1")):
        cfg = SweepConfig.from_dict(dict(_large_p_cfg(family, sizes),
                                         g=[g], h=[h], kinds=["sum", "prod"]))
        run_sweep(cfg)  # the random: table phase, then the instance
        assert builds == [], family
    # the counter sees a table read
    make_field(1048573).inv_table
    assert builds == [1048573]


def test_each_random_table_is_hashed_once_per_prime(monkeypatch):
    # Four instances at p = 1009 read random:11 on one worker: its 1008
    # stream words, 252 SHA-256 blocks, are hashed once, not per instance.
    key = b"fpsp|11|fn:p=1009|"
    real_sha = rng._sha256
    blocks = Counter()

    def counting_sha(data):
        if data.startswith(key):
            blocks[int(data[len(key):])] += 1
        return real_sha(data)

    monkeypatch.setattr(rng, "_sha256", counting_sha)
    res = run_sweep(_cfg(primes=[1009], families=["interval"],
                         seeds=[0, 1, 2, 3], g=["random:11"]))
    assert res["meta"]["n_instances"] == 4 and res["meta"]["n_tables"] == 1
    assert sorted(blocks) == list(range(252))
    assert set(blocks.values()) == {1}


@pytest.mark.parametrize("p", [1009, 1048573])
def test_sweep_tables_are_make_fn_tables(p):
    # The table phase at 1, 2 and 3 workers, each writer dropping its
    # pages with madvise, leaves make_fn's tables in the shared buffers.
    f = make_field(p)
    want = {seed: functions.make_fn(f, "random", seed=seed).values
            for seed in (11, 12)}
    for workers in (1, 2, 3):
        with sweep._prime_pool(p, [11, 12], workers):
            for seed in (11, 12):
                got = np.frombuffer(sweep._TABLES[p, seed], dtype=np.int32)
                assert np.array_equal(got, want[seed]), (workers, seed)
        assert sweep._TABLES == {}
