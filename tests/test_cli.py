"""End-to-end CLI coverage through dispatch(), no subprocesses.

Data contract: machine output (set files, JSON, counts) on stdout, logs
on stderr, exit 0 / 1 (exact check failed) / 2 (usage or data errors).
"""

import json

import pytest

from fpsp import sweep
from fpsp.cli import dispatch, parse_set_spec, read_rows_file
from fpsp.errors import ParseError
from fpsp.field import make_field
from fpsp.functions import make_fn
from fpsp.incidence import VARIANTS
from fpsp.sets import FAMILIES
from fpsp.verify import PHI_CAP

F101 = make_field(101)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- set specs ------------------------------------------------------------


def test_parse_set_spec_forms(tmp_path):
    assert parse_set_spec(F101, "full").size == 101
    assert parse_set_spec(F101, "star").size == 100
    assert parse_set_spec(F101, "interval:5:4").elements().tolist() == \
        [5, 6, 7, 8]
    assert parse_set_spec(F101, "subgroup:10").size == 10
    assert parse_set_spec(F101, "explicit:3,1,2").elements().tolist() == \
        [1, 2, 3]
    # random defaults its seed; both spellings agree
    assert parse_set_spec(F101, "random:6") == \
        parse_set_spec(F101, "random:6:0")
    path = tmp_path / "a.set"
    path.write_text("p=101\n4\n9\n")
    assert parse_set_spec(F101, str(path)).size == 2
    assert parse_set_spec(F101, "file:%s" % path).size == 2
    with pytest.raises(ParseError):
        parse_set_spec(F101, "interval:1")  # wrong arity
    with pytest.raises(ParseError):
        parse_set_spec(F101, "explicit:1,x")


# -- gen / setop / image / energy / mu -------------------------------------


def test_gen_writes_spec_example(tmp_path, capsys):
    out = tmp_path / "B.set"
    code, _, err = run(capsys, "gen", "--p", "7", "--family", "interval",
                       "--start", "1", "--len", "3", "--out", str(out))
    assert code == 0 and "wrote" in err
    assert out.read_text() == "p=7\n1\n2\n3\n"


# One full flag set per --family choice, and the set spec it must match.
GEN_CASES = {
    "interval": ({"--start": "3", "--len": "4"}, "interval:3:4"),
    "ap": ({"--start": "1", "--step": "3", "--len": "4"}, "ap:1:3:4"),
    "gp": ({"--start": "1", "--ratio": "2", "--len": "5"}, "gp:1:2:5"),
    "subgroup": ({"--order": "5"}, "subgroup:5"),
    "mul_subgroup": ({"--order": "5"}, "mul_subgroup:5"),
    "random": ({"--len": "4", "--seed": "7"}, "random:4:7"),
    "explicit": ({"--elements": "5,2,9"}, "explicit:5,2,9"),
}


# A valid value for every family flag of gen.
GEN_FLAG_VALUES = {"--start": "3", "--step": "3", "--ratio": "2",
                   "--order": "5", "--len": "4", "--seed": "7",
                   "--elements": "1,2"}


def test_gen_stdout_and_errors(capsys):
    code, out, _ = run(capsys, "gen", "--p", "11", "--family", "explicit",
                       "--elements", "5,2")
    assert code == 0 and out == "p=11\n2\n5\n"
    # p must be prime
    code, _, err = run(capsys, "gen", "--p", "9", "--family", "interval",
                       "--start", "1", "--len", "2")
    assert code == 2
    # a non-integer explicit element is a usage error, not a failed check
    code, _, err = run(capsys, "gen", "--p", "11", "--family", "explicit",
                       "--elements", "1,x")
    assert code == 2 and "bad explicit elements" in err
    # every family: gen writes the set its spec names, and leaving out any
    # required parameter is a usage error with nothing on stdout
    assert set(GEN_CASES) == set(FAMILIES) | {"subgroup"}
    assert set(GEN_FLAG_VALUES) == {f for flags, _ in GEN_CASES.values()
                                    for f in flags}
    for family, (flags, spec) in GEN_CASES.items():
        code, out, _ = run(capsys, "gen", "--p", "11", "--family", family,
                           *[v for kv in flags.items() for v in kv])
        want = parse_set_spec(make_field(11), spec).elements().tolist()
        assert code == 0, family
        assert out == "p=11\n" + "".join("%d\n" % v for v in want), family
        # --seed is optional (it defaults to 0); every other flag is needed
        for missing in [f for f in flags if f != "--seed"]:
            rest = [v for kv in flags.items() if kv[0] != missing
                    for v in kv]
            code, out, err = run(capsys, "gen", "--p", "11", "--family",
                                 family, *rest)
            assert (code, out) == (2, "") and "error:" in err, \
                (family, missing)
        # a flag of another family is an error that names it
        for stray, value in GEN_FLAG_VALUES.items():
            if stray in flags:
                continue
            code, out, err = run(capsys, "gen", "--p", "11", "--family",
                                 family, *[v for kv in flags.items()
                                           for v in kv], stray, value)
            assert (code, out) == (2, ""), (family, stray)
            assert "error:" in err and stray in err, (family, stray)


def test_setop_and_affine(capsys):
    code, out, _ = run(capsys, "setop", "--p", "7", "--A", "explicit:1,2",
                       "--B", "explicit:3,5", "--op", "sum")
    assert code == 0
    assert out == "p=7\n0\n4\n5\n6\n"
    code, out, _ = run(capsys, "setop", "--p", "7", "--A", "explicit:1,2,3",
                       "--affine", "2,0")
    assert code == 0 and out == "p=7\n2\n4\n6\n"
    code, _, err = run(capsys, "setop", "--p", "7", "--A", "explicit:1")
    assert code == 2  # neither --op/--B nor --affine
    # every set flag is read before the subcommand runs, used or not
    code, _, err = run(capsys, "setop", "--p", "7", "--A", "explicit:1",
                       "--affine", "2,0", "--B", "bogus:1")
    assert code == 2 and "bogus:1" in err


def test_integers_beyond_int64_reduce_mod_p(tmp_path, capsys):
    # set-spec and gen parameters and function-table file values are
    # residues: any integer is reduced mod p before the int64 arithmetic,
    # so none overflows; a table value that reduces to 0 is a data error
    big = 10 ** 20 - 1
    tables = {}
    for name, third in (("big", 1 << 70), ("small", (1 << 70) % 7),
                        ("zero", 7 << 70)):
        tables[name] = tmp_path / ("%s.fn" % name)
        tables[name].write_text("p=7\n1\n2\n%d\n4\n5\n6\n" % third)
    code, out, err = run(capsys, "mu", "--p", "7", "--g",
                         "file:%s" % tables["zero"])
    assert code == 2 and "value 0" in err and "Traceback" not in err
    for argv, small in (
            (("mu", "--p", "7", "--g", "file:%s" % tables["big"]),
             ("mu", "--p", "7", "--g", "file:%s" % tables["small"])),
            (("setop", "--p", "101", "--A", "interval:%d:4" % big,
              "--affine", "1,0"),
             ("setop", "--p", "101", "--A", "interval:%d:4" % (big % 101),
              "--affine", "1,0")),
            (("gen", "--p", "101", "--family", "interval", "--start",
              str(big), "--len", "4"),
             ("gen", "--p", "101", "--family", "interval", "--start",
              str(big % 101), "--len", "4")),
            (("gen", "--p", "101", "--family", "ap", "--start", str(-big),
              "--step", str(big + 3), "--len", "4"),
             ("gen", "--p", "101", "--family", "ap", "--start",
              str(-big % 101), "--step", "3", "--len", "4")),
            (("setop", "--p", "101", "--A", "interval:5:3", "--affine",
              "1,%d" % (big + 1)),
             ("setop", "--p", "101", "--A", "interval:5:3", "--affine",
              "1,1"))):
        code, out, err = run(capsys, *argv)
        assert code == 0 and "Traceback" not in err, argv
        assert (code, out) == run(capsys, *small)[:2], argv
    assert run(capsys, "mu", "--p", "7", "--g",
               "file:%s" % tables["big"])[:2] == (0, "2\n")


def test_image_worked_example(capsys):
    code, out, _ = run(capsys, "image", "--p", "7", "--A", "explicit:1",
                       "--B", "explicit:1,2,3", "--g", "const:1",
                       "--h", "const:1")
    assert code == 0 and out == "p=7\n2\n3\n4\n"


def test_energy_prints_moment(tmp_path, capsys):
    out = tmp_path / "B.set"
    run(capsys, "gen", "--p", "7", "--family", "interval", "--start", "1",
        "--len", "3", "--out", str(out))
    code, text, _ = run(capsys, "energy", "--p", "7", "--A", str(out),
                        "--B", str(out), "--op", "diff", "--n", "4")
    assert code == 0 and text.strip() == "115"
    code, text, _ = run(capsys, "energy", "--p", "7", "--A", str(out),
                        "--B", str(out), "--op", "diff", "--n", "4/3")
    assert code == 0 and float(text) > 0
    code, _, _ = run(capsys, "energy", "--p", "7", "--A", str(out),
                     "--B", str(out), "--op", "diff", "--n", "x")
    assert code == 2


def test_mu_values(capsys):
    code, out, _ = run(capsys, "mu", "--p", "7", "--g", "power:2")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "mu", "--p", "7", "--g", "const:3")
    assert out.strip() == "6"
    code, out, _ = run(capsys, "mu", "--p", "7", "--g", "id",
                       "--A", "explicit:1,2")
    assert out.strip() == "1"


# -- incidence -------------------------------------------------------------


def test_incidence_file_mode(tmp_path, capsys):
    pts = tmp_path / "R.pts"
    pls = tmp_path / "S.pls"
    p = 5
    pts.write_text("p=5\n" + "\n".join(
        "%d %d %d" % (t, t, t) for t in range(p)) + "\n")
    pls.write_text("p=5\n1 4 0 0\n")  # X - Y = 0 contains the diagonal
    code, out, _ = run(capsys, "incidence", "count", "--p", "5",
                       "--points", str(pts), "--planes", str(pls))
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "incidence", "max-collinear", "--p", "5",
                       "--points", str(pts))
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "incidence", "rudnev-ratio", "--p", "5",
                       "--points", str(pts), "--planes", str(pls))
    assert code == 0
    blob = json.loads(out)
    assert blob["incidences"] == 5 and blob["n_points"] == 5
    assert blob["provenance"] == "files:%s,%s" % (pts, pls)
    # without --planes the tag names the points file alone
    code, out, _ = run(capsys, "incidence", "rudnev-ratio", "--p", "5",
                       "--points", str(pts))
    blob = json.loads(out)
    assert code == 0 and blob["provenance"] == "files:%s" % pts
    assert (blob["n_planes"], blob["incidences"]) == (0, 0)


def test_incidence_file_mode_reads_no_table(tmp_path, capsys,
                                            monkeypatch):
    # --g/--h default to id and const:1, but only the variant mode reads
    # tables; file mode parses none, and the variant defaults still apply
    import fpsp.cli as cli
    specs = []
    real_parse = cli.parse_fn_spec

    def spy(field, spec):
        specs.append(spec)
        return real_parse(field, spec)

    monkeypatch.setattr(cli, "parse_fn_spec", spy)
    pts = tmp_path / "R.pts"
    pts.write_text("p=101\n1 2 3\n2 4 6\n")
    code, out, _ = run(capsys, "incidence", "max-collinear", "--p", "101",
                       "--points", str(pts))
    assert (code, out.strip(), specs) == (0, "2", [])
    sets = ("--p", "101", "--variant", "sum_E1", "--A", "subgroup:10",
            "--X", "interval:1:6", "--third", "interval:2:5")
    code, defaulted, _ = run(capsys, "incidence", "count", *sets)
    assert code == 0 and specs == ["id", "const:1"]
    assert run(capsys, "incidence", "count", *sets, "--g", "id",
               "--h", "const:1")[:2] == (0, defaulted)


_VARIANT_CASES = [
    *[(v, ("--A", "subgroup:10", "--X", "interval:1:6", "--third",
           "interval:2:5")) for v in VARIANTS],
    # 0 in C gives prod_E1 its alpha = 0 rows
    ("prod_E1", ("--A", "subgroup:10", "--X", "interval:1:6", "--third",
                 "interval:0:5")),
    # an empty X: every count is 0, k is 0 and the line scan refuses
    *[(v, ("--A", "subgroup:10", "--X", "explicit:", "--third",
           "interval:2:5")) for v in VARIANTS],
]


def test_incidence_variant_and_build_roundtrip(tmp_path, capsys):
    for i, (variant, sets) in enumerate(_VARIANT_CASES):
        _check_roundtrip(variant, sets, tmp_path / str(i), capsys)


def _check_roundtrip(variant, sets, tmp_path, capsys):
    tmp_path.mkdir()
    args = ("--p", "101", "--variant", variant, *sets,
            "--g", "id", "--h", "const:1")
    op, os_ = tmp_path / "R.pts", tmp_path / "S.pls"
    code, _, err = run(capsys, "incidence", "build", *args,
                       "--out-points", str(op), "--out-planes", str(os_))
    assert code == 0 and "wrote" in err
    # the written files parse back with the documented shapes
    _, pts = read_rows_file(str(op), 3, F101)
    _, pls = read_rows_file(str(os_), 4, F101)
    assert pts.shape[1] == 3 and pls.shape[1] == 4
    # count, max-collinear and rudnev-ratio agree between --variant and
    # the files, up to the provenance tag
    empty = "explicit:" in sets
    files = ("--p", "101", "--points", str(op), "--planes", str(os_))
    for action in ("count", "max-collinear", "rudnev-ratio"):
        kern, mat = (run(capsys, "incidence", action, *mode)
                     for mode in (args, files))
        if action == "rudnev-ratio":
            outs = [json.loads(out) for _, out, _ in (kern, mat)]
            assert outs[0].pop("provenance") == variant
            assert outs[1].pop("provenance") == "files:%s,%s" % (op, os_)
            assert outs[0] == outs[1] and kern[0] == mat[0] == 0
            assert (outs[0]["max_collinear"] == 0) == empty
        else:
            # stderr too: both modes log the same sizes, or the same error
            assert kern == mat, action
            assert kern[0] == (2 if empty and action == "max-collinear"
                               else 0), action


def test_rudnev_ratio_variant_builds_no_config(capsys, monkeypatch):
    # rudnev-ratio --variant reads the ProofKernel alone: with R and S,
    # the generic count and the configs out of reach it prints the row of
    # the materialized config
    import fpsp.cli as cli
    from fpsp import incidence
    expected = []
    for variant, sets in _VARIANT_CASES:
        a, x, third = (parse_set_spec(F101, spec) for spec in sets[1::2])
        g, h = make_fn(F101, "identity"), make_fn(F101, "const", c=1)
        expected.append(incidence.rudnev_ratio(
            incidence.build_proof_config(variant, a, x, third, g, h)))

    def boom(*args, **kwargs):
        raise AssertionError("R and S were materialized")

    for module in (cli, incidence):
        monkeypatch.setattr(module, "build_proof_config", boom)
        monkeypatch.setattr(module, "make_config", boom)
    monkeypatch.setattr(incidence, "incidences", boom)
    for (variant, sets), row in zip(_VARIANT_CASES, expected):
        code, out, _ = run(capsys, "incidence", "rudnev-ratio", "--p", "101",
                           "--variant", variant, *sets)
        assert code == 0 and json.loads(out) == row, (variant, sets)


def test_rudnev_ratio_reads_collinear_cap(capsys, monkeypatch):
    from fpsp import incidence
    args = ("incidence", "rudnev-ratio", "--p", "101", "--variant",
            "sum_E1", "--A", "interval:1:4", "--X", "interval:1:6",
            "--third", "interval:2:5")
    # 120 points: refused at cap 1, as max-collinear refuses them
    for action in ("max-collinear", "rudnev-ratio"):
        code, out, err = run(capsys, "incidence", action, *args[2:],
                             "--collinear-cap", "1")
        assert code == 2 and out == "", action
        assert "capped at |R| <= 1, got 120" in err, action
    caps, max_collinear = [], incidence.max_collinear

    def spy(points, field, cap=incidence.COLLINEAR_CAP):
        caps.append(cap)
        return max_collinear(points, field, cap)

    monkeypatch.setattr(incidence, "max_collinear", spy)
    code, out, _ = run(capsys, *args, "--collinear-cap", "123456")
    assert code == 0 and json.loads(out)["n_points"] == 120
    assert caps == [123456]


def test_incidence_usage_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "incidence", "count", "--p", "101")
    assert code == 2  # neither files nor variant
    code, _, _ = run(capsys, "incidence", "count", "--p", "101",
                     "--variant", "sum_E1", "--A", "subgroup:10")
    assert code == 2  # missing --X/--third
    bad = tmp_path / "bad.pts"
    bad.write_text("p=101\n1 2\n")
    code, _, err = run(capsys, "incidence", "count", "--p", "101",
                       "--points", str(bad))
    assert code == 2 and "expected 3 integers" in err
    # a flag the mode or the action does not read is refused, by name
    pts, pls = str(tmp_path / "R.pts"), str(tmp_path / "S.pls")
    (tmp_path / "R.pts").write_text("p=101\n1 2 3\n")
    (tmp_path / "S.pls").write_text("p=101\n1 0 0 100\n")
    sets = ("--A", "interval:1:4", "--X", "interval:1:4",
            "--third", "interval:1:4")
    for argv, named in [
        # file mode reads no variant, sets or tables
        (("count", "--points", pts, "--planes", pls, "--variant", "prod_E2",
          "--A", "interval:1:50"), "count with --points does not take "
         "--variant, --A"),
        (("rudnev-ratio", "--points", pts, *sets[2:], "--g", "id",
          "--h", "id"), "rudnev-ratio with --points does not take --X, "
         "--third, --g, --h"),
        # variant mode reads no planes file
        (("count", "--variant", "sum_E1", *sets, "--planes", pls),
         "count with --variant does not take --planes"),
        # only build writes files
        (("rudnev-ratio", "--variant", "sum_E1", *sets, "--out-points",
          "R2.pts", "--out-planes", "S2.pls"), "rudnev-ratio with "
         "--variant does not take --out-points, --out-planes"),
        (("max-collinear", "--points", pts, "--out-planes", "S2.pls"),
         "max-collinear with --points does not take --out-planes"),
        # a cap the action does not read: count and build read no line
        # cap, max-collinear no cell cap, and a file's config no cell cap
        (("count", "--variant", "sum_E1", *sets, "--collinear-cap", "10"),
         "count with --variant does not take --collinear-cap"),
        (("max-collinear", "--variant", "sum_E1", *sets, "--cap", "10"),
         "max-collinear with --variant does not take --cap"),
        (("count", "--points", pts, "--planes", pls, "--cap", "10"),
         "count with --points does not take --cap"),
        (("rudnev-ratio", "--points", pts, "--planes", pls, "--cap", "10"),
         "rudnev-ratio with --points does not take --cap"),
        (("build", "--variant", "sum_E1", *sets, "--collinear-cap", "10",
          "--out-points", "R2.pts", "--out-planes", "S2.pls"),
         "build with --variant does not take --collinear-cap"),
    ]:
        code, out, err = run(capsys, "incidence", argv[0], "--p", "101",
                             *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == "error: incidence %s\n" % named


# -- verify ----------------------------------------------------------------


def test_verify_lemma_chain_json(capsys):
    code, out, err = run(capsys, "verify", "lemma-chain", "--p", "101",
                         "--A", "interval:1:4", "--B", "interval:1:8")
    assert code == 0 and "ok" in err
    rep = json.loads(out)
    assert rep["ok"] is True
    assert {c["name"] for c in rep["checks"]} >= {"M_lower",
                                                  "E4_level_recon"}


def test_verify_lemma_chain_k(capsys):
    base = ("verify", "lemma-chain", "--p", "101", "--A", "interval:1:4",
            "--B", "interval:1:8")
    code, out, _ = run(capsys, *base, "--k", "2")
    assert code == 0 and json.loads(out)["instance"]["k"] == 2
    code, out, err = run(capsys, *base, "--k", "x")
    assert code == 2 and out == "" and "--k" in err
    # r_{B-B} peaks at |B| = 8, so level 9 is empty and the line check
    # gives way to a skipped row
    code, out, _ = run(capsys, *base, "--k", "9")
    rep = json.loads(out)
    assert code == 0 and rep["instance"]["n_k"] == 0
    assert {"name": "collinear_R1_skipped", "lhs": 0.0, "rhs": 1.0,
            "ratio": 0.0, "note": "empty level set"} in rep["rows"]
    assert "collinear_R1_literal" not in {c["name"] for c in rep["checks"]}


_LEMMA = ("verify", "lemma-chain", "--p", "101", "--A", "interval:1:4",
          "--B", "interval:1:8")
_INCIDENCE = ("incidence", "count", "--p", "101", "--variant", "sum_E1",
              "--A", "interval:1:4", "--X", "interval:1:5",
              "--third", "interval:2:6")


@pytest.mark.parametrize("argv", [
    (*_LEMMA, "--triples-cap"), (*_LEMMA, "--collinear-cap"),
    (*_LEMMA, "--k"),
    ("verify", "eplus", "--p", "101", "--A", "interval:1:4",
     "--B", "interval:1:8", "--triples-cap"),
    (*_INCIDENCE, "--cap"), (*_INCIDENCE, "--collinear-cap"),
])
def test_caps_and_levels_below_1_are_usage_errors(argv, capsys):
    # A sweep config refuses these values at load, and the CLI at parse
    # time: a collinear cap of 0 would otherwise turn both line checks
    # into a skipped row and exit 0.
    for value in ("0", "-1"):
        code, out, err = run(capsys, *argv, value)
        assert code == 2 and out == "" and argv[-1] in err, (argv, value)
    # 1 parses: what follows is the chain's own verdict or cap refusal
    assert not run(capsys, *argv, "1")[2].startswith("usage:")


# A literal line-bound failure (fiber of g = x^2 split by h), as in the
# criterion-3 grid: exact failures exit 1.
FAILING_LEMMA = ("verify", "lemma-chain", "--p", "101",
                 "--A", "explicit:65,66,67,68", "--B", "interval:7:8",
                 "--C", "interval:62:8", "--g", "power:2",
                 "--h", "random:12", "--kind", "prod")


def test_verify_lemma_chain_exact_failure_exits_1(capsys):
    code, out, err = run(capsys, *FAILING_LEMMA)
    assert code == 1 and "FAIL (collinear_R1_literal)" in err
    rep = json.loads(out)
    assert rep["ok"] is False
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == \
        ["collinear_R1_literal"]


def test_verify_nchain_modes(capsys):
    code, out, _ = run(capsys, "verify", "n-chain", "--p", "7",
                       "--B", "explicit:1,2,3")
    assert code == 0
    rep = json.loads(out)
    assert rep["instance"]["default_P"] is True
    assert rep["instance"]["N"] == 81
    # an optional flag given as "" is absent: C defaults to B, P to popular
    assert run(capsys, "verify", "n-chain", "--p", "7", "--B",
               "explicit:1,2,3", "--C", "", "--P", "")[:2] == (code, out)
    code, out, _ = run(capsys, "verify", "n-chain", "--p", "7",
                       "--B", "explicit:1,2,3", "--P", "explicit:0,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["instance"]["default_P"] is False and len(rep["rows"]) == 2
    # P outside B - C is a data error
    code, _, _ = run(capsys, "verify", "n-chain", "--p", "7",
                     "--B", "explicit:1,2", "--P", "explicit:3")
    assert code == 2


def test_verify_composite_eplus_phi(capsys):
    code, out, _ = run(capsys, "verify", "composite", "--p", "101",
                       "--B", "interval:1:10", "--C", "interval:5:10")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "verify", "eplus", "--p", "101",
                       "--A", "interval:1:4", "--B", "interval:1:8")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "verify", "phi", "--p", "101",
                       "--B", "interval:1:10", "--eps", "1/5")
    assert code == 0 and json.loads(out)["ok"] is True
    code, _, _ = run(capsys, "verify", "phi", "--p", "101",
                     "--B", "interval:1:10", "--eps", "7/2")
    assert code == 2  # eps outside (0, 1)
    code, _, err = run(capsys, "verify", "phi", "--p", "1009",
                       "--B", "interval:1:%d" % (PHI_CAP + 1))
    assert code == 2 and "capped" in err  # one past PHI_CAP


def test_verify_theorem_vinh_spec_example(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--id", "Vinh_1_2",
                       "--p", "101", "--A", "full")
    assert code == 0
    row = json.loads(out)
    assert row["exact_pass"] is True and row["relation"] == "upper"


def test_verify_theorem_strict_and_missing(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--id", "Cor_1_7",
                       "--p", "101", "--A", "interval:1:17",
                       "--g", "id", "--h", "const:1")
    assert code == 0 and json.loads(out)["hyp_ok"] is False
    code, _, err = run(capsys, "verify", "theorem", "--id", "Cor_1_7",
                       "--p", "101", "--A", "interval:1:17",
                       "--g", "id", "--h", "const:1", "--strict")
    assert code == 2 and "hypotheses" in err
    code, _, err = run(capsys, "verify", "theorem", "--id", "HH_1_1",
                       "--p", "101", "--A", "subgroup:10")
    assert code == 2 and "needs g" in err
    # unknown id is rejected at the argparse layer
    code, _, _ = run(capsys, "verify", "theorem", "--id", "T_0_0",
                     "--p", "101", "--A", "full")
    assert code == 2


def test_verify_theorem_threshold_eps(capsys):
    base = ("verify", "theorem", "--id", "T_1_12_threshold", "--p", "101",
            "--A", "interval:1:10", "--g", "id", "--h", "const:1")
    code, out, _ = run(capsys, *base, "--eps", "1/7")
    assert code == 0 and json.loads(out)["extras"]["eps"] == "1/7"
    code, out, err = run(capsys, *base, "--eps", "abc")
    assert code == 2 and out == "" and "bad eps" in err


# -- sweep -----------------------------------------------------------------


def _sweep_cfg(tmp_path):
    cfg = {"primes": [101], "families": ["interval"], "sizes": [[4, 8, 8]],
           "seeds": [0, 1], "theorems": ["Vinh_1_2"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_stdout_and_files(tmp_path, capsys):
    cfg = _sweep_cfg(tmp_path)
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0 and "failures" in err
    blob = json.loads(out)
    assert blob["report"]["n_failures"] == 0
    rep_path = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                       "--out", str(rep_path), "--csv", str(csv_path))
    assert code == 0 and out == ""
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("theorem,p,") and len(lines) == 3


def test_sweep_worker_reports_match(tmp_path, capsys):
    cfg = _sweep_cfg(tmp_path)
    p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
    run(capsys, "sweep", "--config", str(cfg), "--out", str(p1))
    run(capsys, "sweep", "--config", str(cfg), "--workers", "2",
        "--out", str(p2))
    r1 = json.loads(p1.read_text())["report"]
    r2 = json.loads(p2.read_text())["report"]
    assert r1 == r2


def test_sweep_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"primes\": [101]}")
    code, _, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2 and "missing required key" in err
    code, _, _ = run(capsys, "sweep", "--config",
                     str(tmp_path / "absent.json"))
    assert code == 2


def test_sweep_bad_function_spec_fails_at_load(tmp_path, capsys,
                                              monkeypatch):
    # a spec is checked for syntax when the config loads (exit 2, nothing
    # on stdout), before any instance builds a table
    def no_table(field, spec):
        raise AssertionError("table built for %r" % spec)

    monkeypatch.setattr(sweep, "parse_fn_spec", no_table)
    for g in (["idd"], [True], ["id", "power:x"]):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": [101], "families": ["interval"],
                                    "sizes": [[4, 8, 8]], "seeds": [0],
                                    "g": g}))
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2 and out == "", g
        assert "error:" in err and "spec" in err, (g, err)


def test_sweep_missing_function_file_fails_at_load(tmp_path, capsys):
    # a file: spec naming no file is refused when the config loads (exit
    # 2, nothing on stdout), not by the first instance that reads it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"primes": [101], "families": ["interval"],
                                "sizes": [[4, 8, 8]], "seeds": [0],
                                "h": ["file:%s" % (tmp_path / "absent.txt")]}))
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 2 and out == ""
    assert "error:" in err and "absent.txt" in err and "Errno" not in err


def test_sweep_and_verify_phi_read_decimal_eps_alike(tmp_path, capsys):
    # a denominator above 2^62 is kept exactly too, not rounded to 2^62
    for eps, want in (("0.1", "1/10"),
                      ("1/4611686018427387905", "1/4611686018427387905")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes": [101], "families": ["interval"],
                                    "sizes": [[4, 8, 8]], "seeds": [0],
                                    "chains": ["phi"], "eps": eps}))
        code, out, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        [chain] = json.loads(out)["report"]["chains"]
        code, out, _ = run(capsys, "verify", "phi", "--p", "101",
                           "--B", "interval:1:10", "--eps", eps)
        assert code == 0
        assert chain["instance"]["eps"] \
            == json.loads(out)["instance"]["eps"] == want


# -- dispatch plumbing -------------------------------------------------------


def test_help_and_usage_exits(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["gen"]) == 2  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    *[[cmd] for cmd in ("gen", "setop", "image", "energy", "mu", "incidence",
                        "verify", "sweep")],
    *[["verify", mode] for mode in ("lemma-chain", "n-chain", "composite",
                                    "eplus", "phi", "theorem")],
])
def test_every_subcommand_help(argv, capsys):
    assert dispatch(argv + ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fpsp " + " ".join(argv))


def test_set_file_modulus_mismatch(tmp_path, capsys):
    path = tmp_path / "a.set"
    path.write_text("p=7\n1\n2\n")
    code, _, err = run(capsys, "energy", "--p", "11", "--A", str(path),
                       "--B", str(path), "--op", "diff", "--n", "2")
    assert code == 2 and "error:" in err
