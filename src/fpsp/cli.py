"""Command-line frontend.

Subcommands: gen, setop, image, energy, mu, incidence, verify, sweep.
Exit status: 0 on success, 1 when an exact check fails, 2 on usage or
config errors.  Machine-readable output (set files, JSON reports, CSV)
goes to stdout or --out files; progress and summaries go to stderr, so
`fpsp ... > data` never captures log noise.

Set specs, accepted by --A/--B/--C/--D/--P/--X/--third:

    <path> or file:<path>     set file (p must match --p)
    full                      all of F_p
    star                      F_p^*
    interval:<start>:<len>
    ap:<start>:<step>:<len>
    gp:<start>:<ratio>:<len>
    subgroup:<order>          multiplicative subgroup, order | p-1
    mul_subgroup:<order>      the same
    random:<len>:<seed>       deterministic in (p, len, seed)
    explicit:v1,v2,...

Function specs for --g/--h/--g2/--h2 follow the table grammar:
const:<c> | id | power:<k> | affine:<u>,<v> | random:<seed> | file:<path>.
affine:<u>,<v> is u x + v, a map into F_p^* only when exactly one of u
and v is 0 mod p; any other pair vanishes on F_p^* and exits 2.

Point/plane files (incidence subcommand): UTF-8 text, line 1
`p=<modulus>`, then one row per line of whitespace-separated integers,
`x y z` for points and `a b c d` for planes, a plane meaning the locus
aX + bY + cZ + d = 0 over F_p.  Blank lines and `#` comments are
ignored.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from .energy import moment, rep_fn
from .errors import FpspError, ParseError
from .field import make_field, PrimeField
from .functions import f_image, mu, parse_fn_spec
from .incidence import (COLLINEAR_CAP, MATERIALIZE_CAP, TRIPLES_CAP,
                        VARIANTS, build_proof_config, make_config,
                        proof_kernel, rudnev_ratio)
from .sets import (FAMILIES, FSet, _format_lines, _read_lines, affine,
                   combine, generate, read_set_file)
from .sweep import load_config_file, report_json, rows_csv, run_sweep
from .verify import CHAINS, THEOREMS, ThmInstance, theorem_ratio

_SET_FAMILY_HEADS = ("file", "subgroup") + FAMILIES


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _explicit_elements(text: str) -> list[int]:
    """The comma-separated integers of an explicit set; blanks skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError("bad explicit elements in %r" % text)


# The family flags `gen` reads for each family, in set-spec order (`--len`
# is generate's size); passing any other is an error.  --p, --family,
# --zero-free and --out go with every family.
_GEN_FLAGS = {
    "interval": ("start", "len"),
    "ap": ("start", "step", "len"),
    "gp": ("start", "ratio", "len"),
    "mul_subgroup": ("order",),
    "random": ("len", "seed"),
    "explicit": ("elements",),
}


def parse_set_spec(field: PrimeField, spec: str) -> FSet:
    """Build an FSet from a CLI set spec (grammar in the module docstring).

    A family spec lists the family's _GEN_FLAGS values in order."""
    if spec == "full":
        return generate(field, "explicit", elements=range(field.p))
    if spec == "star":
        return generate(field, "explicit", elements=range(1, field.p))
    head, sep, rest = spec.partition(":")
    if not sep or head not in _SET_FAMILY_HEADS:
        return read_set_file(spec, field)  # bare path
    if head == "file":
        return read_set_file(rest, field)
    if head == "explicit":
        return generate(field, "explicit", elements=_explicit_elements(rest))
    fam = "mul_subgroup" if head == "subgroup" else head
    parts = rest.split(":")
    if fam == "random" and len(parts) == 1:
        parts.append("0")  # random:<len> draws with seed 0
    try:
        values = [int(v) for v in parts]
    except ValueError:
        values = []
    if len(values) != len(_GEN_FLAGS[fam]):
        raise ParseError("bad set spec %r (wrong arity or not integers)"
                         % spec)
    return generate(field, fam, **{"size" if f == "len" else f: v
                                   for f, v in zip(_GEN_FLAGS[fam], values)})


def _emit_set(a: FSet, out: str | None, what: str = "set") -> None:
    text = _format_lines(a.field.p, a.elements())
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        _log("wrote %s (n=%d, p=%d) to %s" % (what, a.size, a.field.p, out))
    else:
        sys.stdout.write(text)
        _log("%s: n=%d" % (what, a.size))


def _emit_json(data, out: str | None = None) -> None:
    blob = report_json(data)
    if out:
        with open(out, "w") as fh:
            fh.write(blob + "\n")
        _log("wrote %s" % out)
    else:
        print(blob)


def read_rows_file(path: str, width: int,
                   field: PrimeField | None = None
                   ) -> tuple[int, np.ndarray]:
    with open(path) as fh:
        p, rows = _read_lines(fh.read(), width, field)
        arr = np.array([row for _, row in rows], dtype=np.int64)
    return p, arr.reshape(-1, width)


def _report_verdict(rep_dict: dict, label: str) -> int:
    """Print a chain report as JSON, a summary to stderr; 0 ok / 1 fail."""
    _emit_json(rep_dict)
    bad = [c["name"] for c in rep_dict["checks"] if not c["passed"]]
    if bad:
        _log("%s: FAIL (%s)" % (label, ", ".join(bad)))
        return 1
    _log("%s: ok (%d exact checks, %d report rows)"
         % (label, len(rep_dict["checks"]), len(rep_dict["rows"])))
    return 0


# -- subcommand handlers -----------------------------------------------------


def _refuse_unread(ns, flags, what: str) -> None:
    """ParseError naming, in the order given, each flag that is set on ns
    (not None) but that `what` does not read."""
    stray = ["--" + f.replace("_", "-") for f in flags
             if getattr(ns, f) is not None]
    if stray:
        raise ParseError("%s does not take %s" % (what, ", ".join(stray)))


def _cmd_gen(ns) -> int:
    fam = "mul_subgroup" if ns.family == "subgroup" else ns.family
    others = set().union(*_GEN_FLAGS.values()) - set(_GEN_FLAGS[fam])
    _refuse_unread(ns, sorted(others), "--family %s" % ns.family)
    elements = (None if ns.elements is None
                else _explicit_elements(ns.elements))
    a = generate(ns.field, fam, start=ns.start, step=ns.step,
                 ratio=ns.ratio, order=ns.order, size=ns.len,
                 seed=0 if ns.seed is None else ns.seed,
                 elements=elements, zero_free=ns.zero_free)
    _emit_set(a, ns.out)
    return 0


def _cmd_setop(ns) -> int:
    if ns.affine is not None:
        _refuse_unread(ns, ("op", "B"), "setop --affine")
        try:
            lam, t = (int(v) for v in ns.affine.split(","))
        except ValueError:
            raise ParseError("--affine wants lam,t")
        out = affine(ns.A, lam, t)
        _emit_set(out, ns.out, "affine(%d,%d)" % (lam, t))
        return 0
    if ns.op is None or ns.B is None:
        raise ParseError("setop needs either --op with --B, or --affine")
    out = combine(ns.A, ns.B, ns.op)
    _emit_set(out, ns.out, "A %s B" % ns.op)
    return 0


def _cmd_image(ns) -> int:
    img = f_image(ns.g, ns.h, ns.A, ns.B)
    _emit_set(img, ns.out, "f(A,B)")
    return 0


def _cmd_energy(ns) -> int:
    kind = {"diff": "difference", "difference": "difference",
            "ratio": "ratio", "sum": "sum"}.get(ns.op)
    if kind is None:
        raise ParseError("unknown --op %r" % ns.op)
    try:
        n = Fraction(ns.n)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad --n %r (want an integer or a/b)" % ns.n)
    r = rep_fn(ns.A, ns.B, kind)
    val = moment(r, int(n) if n.denominator == 1 else n)
    print(val)
    _log("E_%s(%s) over %d support points" % (ns.n, kind, r.support_size()))
    return 0


def _cmd_mu(ns) -> int:
    print(mu(ns.g, ns.A))
    return 0


def _cmd_incidence(ns) -> int:
    """One record per mode; only build --variant materializes R and S."""
    field, files = ns.field, ns.points is not None
    if not files and ns.variant is None:
        raise ParseError("incidence needs --points/--planes files or "
                         "--variant with sets")
    unread = ("variant", "A", "X", "third", "g", "h") if files else ("planes",)
    if files or ns.action == "max-collinear":
        unread += ("cap",)  # a file's config is counted uncapped
    if ns.action in ("count", "build"):
        unread += ("collinear_cap",)
    if ns.action != "build":
        unread += ("out_points", "out_planes")
    _refuse_unread(ns, unread, "incidence %s with --%s"
                   % (ns.action, "points" if files else "variant"))
    cap = MATERIALIZE_CAP if ns.cap is None else ns.cap
    collinear_cap = (COLLINEAR_CAP if ns.collinear_cap is None
                     else ns.collinear_cap)
    if files:
        pts, pls = (() if path is None else read_rows_file(path, w, field)[1]
                    for path, w in ((ns.points, 3), (ns.planes, 4)))
        rec = make_config(field, pts, pls, provenance="files:" + ",".join(
            filter(None, (ns.points, ns.planes))))
    else:
        if ns.A is None or ns.X is None or ns.third is None:
            raise ParseError("--variant mode needs --A, --X and --third")
        g, h = (parse_fn_spec(field, spec) if getattr(ns, flag) is None
                else getattr(ns, flag) for flag, spec in _FN_DEFAULTS.items())
        args = (ns.variant, ns.A, ns.X, ns.third, g, h)
        rec = (build_proof_config(*args, cap=cap) if ns.action == "build"
               else proof_kernel(*args))
    if ns.action == "count":
        print(rec.incidences(cap))
        _log("|R|=%d |S|=%d" % (rec.n_points, rec.n_planes))
    elif ns.action == "max-collinear":
        print(rec.max_collinear(collinear_cap))
        _log("|R|=%d" % rec.n_points)
    elif ns.action == "rudnev-ratio":
        _emit_json(rudnev_ratio(rec, collinear_cap, cap))
    else:  # build
        if ns.out_points is None or ns.out_planes is None:
            raise ParseError("incidence build needs --out-points and "
                             "--out-planes")
        for path, rows in ((ns.out_points, rec.points),
                           (ns.out_planes, rec.planes)):
            with open(path, "w") as fh:
                fh.write(_format_lines(field.p, rows))
        _log("wrote %d points to %s, %d planes to %s"
             % (rec.n_points, ns.out_points, rec.n_planes, ns.out_planes))
    return 0


def _cmd_verify_chain(ns) -> int:
    mode, _, reads, call = CHAINS[ns.chain]
    if ns.C is None:
        ns.C = ns.B
    label = "%s[%s]" % (mode, ns.kind) if "kind" in reads else mode
    return _report_verdict(call(ns).to_dict(), label)


def _cmd_verify_theorem(ns) -> int:
    # the sets its THEOREMS entry lists, g2 and h2 with D, eps at threshold
    used = THEOREMS[ns.id][0]
    unread = [f for f in ("B", "C", "D") if f.lower() not in used]
    if "d" not in used:
        unread += ["g2", "h2"]
    if ns.id != "T_1_12_threshold":
        unread.append("eps")
    _refuse_unread(ns, unread, "verify theorem --id %s" % ns.id)
    inst = ThmInstance(a=ns.A, b=ns.B, c=ns.C, d=ns.D, g=ns.g, h=ns.h,
                       g2=ns.g2, h2=ns.h2, family=ns.family, seed=ns.seed)
    if ns.eps is not None:
        inst.eps = ns.eps
    row = theorem_ratio(ns.id, inst, strict=ns.strict)
    _emit_json(row.to_dict())
    verdict = "exact FAIL" if row.exact_pass is False else (
        "exact pass" if row.exact_pass else "report only")
    _log("%s: ratio=%.6g hyp_ok=%s (%s)"
         % (row.theorem, row.ratio, row.hyp_ok, verdict))
    return 1 if row.exact_pass is False else 0


def _cmd_sweep(ns) -> int:
    cfg = load_config_file(ns.config)
    result = run_sweep(cfg, workers=ns.workers)
    rep = result["report"]
    _emit_json(result, ns.out)
    if ns.csv:
        with open(ns.csv, "w") as fh:
            fh.write(rows_csv(rep["rows"]))
        _log("wrote %d ratio rows to %s" % (len(rep["rows"]), ns.csv))
    meta = result["meta"]
    _log("sweep: %d instances, %d chain entries, %d ratio rows, "
         "%d failures in %.2fs (%d random: tables in %.2fs)"
         % (meta["n_instances"], len(rep["chains"]), len(rep["rows"]),
            rep["n_failures"], meta["elapsed_s"], meta["n_tables"],
            meta["tables_s"]))
    return 1 if rep["n_failures"] else 0


# -- parser ------------------------------------------------------------------


_FN_DEFAULTS = {"g": "id", "h": "const:1"}


def _opt(spec: str) -> str | None:
    """type= of the optional set, table and eps flags: "" is absent."""
    return spec or None


def _positive(text: str, want: str = "an integer >= 1") -> int:
    """type= of the cap flags: an integer >= 1, as a sweep config's caps."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError("want %s, got %r" % (want, text))
    return n


def _level(text: str) -> int | str:
    """type= of --k: "auto" or an integer >= 1, as a sweep config's k."""
    return text if text == "auto" else _positive(
        text, "\"auto\" or an integer >= 1")


# The flags --<name> ("_" read as "-") of the inputs verify.CHAINS names,
# which image, energy and incidence share.  incidence keeps an absent --g,
# --h, --cap or --collinear-cap None, so it refuses one that its mode or
# action does not read and its file mode builds no table, and applies
# _FN_DEFAULTS, which the help strings name, and the caps' defaults where
# it reads them.
_FLAGS = {
    "A": dict(required=True),
    "B": dict(required=True),
    "C": dict(type=_opt, help="defaults to B"),
    "P": dict(type=_opt,
              help="subset of B-C; default: popular difference set"),
    **{flag: dict(default=spec, help="%s table spec (default %s)"
                  % (flag, spec)) for flag, spec in _FN_DEFAULTS.items()},
    "kind": dict(choices=["sum", "prod"], default="sum"),
    "k": dict(type=_level, default="auto"),
    "cap": dict(type=_positive),
    "triples_cap": dict(type=_positive, default=TRIPLES_CAP),
    "collinear_cap": dict(type=_positive, default=COLLINEAR_CAP),
    "eps": dict(type=_opt, help="popularity threshold, a/b or decimal "
                                "(default 1/log2|C|)"),
}

def _add_flags(sp, *names: str, **override) -> None:
    """Add the _FLAGS spec of each name to sp, updated by override."""
    for name in names:
        sp.add_argument("--" + name.replace("_", "-"),
                        **{**_FLAGS[name], **override})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fpsp",
        description="exact sum-product experiments over prime fields")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a set and write it")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--family", required=True,
                    choices=FAMILIES + ("subgroup",))
    sp.add_argument("--start", type=int)
    sp.add_argument("--step", type=int)
    sp.add_argument("--ratio", type=int)
    sp.add_argument("--order", type=int)
    sp.add_argument("--len", type=int)
    sp.add_argument("--seed", type=int, help="random family (default 0)")
    sp.add_argument("--elements", help="comma-separated, explicit family")
    sp.add_argument("--zero-free", action="store_true", dest="zero_free")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("setop", help="combine two sets or apply an "
                                      "affine map")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", type=_opt)
    sp.add_argument("--op", choices=["sum", "diff", "prod", "ratio"])
    sp.add_argument("--affine", help="lam,t for {lam*x+t : x in A}")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_setop)

    sp = sub.add_parser("image", help="the image set {g(a)(h(a)+b)}")
    sp.add_argument("--p", type=int, required=True)
    _add_flags(sp, "A", "B", "g", "h")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_image)

    sp = sub.add_parser("energy", help="moment of a representation "
                                       "histogram, exactly")
    sp.add_argument("--p", type=int, required=True)
    _add_flags(sp, "A", "B")
    sp.add_argument("--op", required=True,
                    help="diff | ratio | sum (histogram kind)")
    sp.add_argument("--n", required=True,
                    help="moment exponent, integer or a/b")
    sp.set_defaults(func=_cmd_energy)

    sp = sub.add_parser("mu", help="multiplicity max_t |g^{-1}(t)|")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--A", type=_opt, help="optional domain restriction")
    sp.set_defaults(func=_cmd_mu)

    sp = sub.add_parser("incidence", help="point-plane incidence tools")
    sp.add_argument("action", choices=["count", "max-collinear",
                                       "rudnev-ratio", "build"])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--points", help="points file (x y z rows)")
    sp.add_argument("--planes", help="planes file (a b c d rows)")
    sp.add_argument("--variant", choices=list(VARIANTS),
                    help="build the proof configuration instead of "
                         "reading files")
    sp.add_argument("--A", type=_opt)
    sp.add_argument("--X", type=_opt)
    sp.add_argument("--third", type=_opt,
                    help="C for the E1 shapes, the image set for the E2 "
                         "shapes")
    _add_flags(sp, "g", "h", "cap", "collinear_cap", default=None)
    sp.add_argument("--out-points", dest="out_points")
    sp.add_argument("--out-planes", dest="out_planes")
    sp.set_defaults(func=_cmd_incidence)

    vp = sub.add_parser("verify", help="single-instance verification")
    vsub = vp.add_subparsers(dest="mode", required=True)

    for name, (mode, about, reads, _) in CHAINS.items():
        sp = vsub.add_parser(mode, help=about)
        sp.add_argument("--p", type=int, required=True)
        _add_flags(sp, *reads)
        sp.set_defaults(func=_cmd_verify_chain, chain=name)

    sp = vsub.add_parser("theorem", help="one ratio row")
    sp.add_argument("--id", required=True, choices=list(THEOREMS))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    for flag in ("--B", "--C", "--D", "--g", "--h", "--g2", "--h2"):
        sp.add_argument(flag, type=_opt)
    sp.add_argument("--family", default="cli")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps", type=_opt)
    sp.add_argument("--strict", action="store_true",
                    help="raise instead of recording violated hypotheses")
    sp.set_defaults(func=_cmd_verify_theorem)

    sp = sub.add_parser("sweep", help="run a config grid")
    sp.add_argument("--config", required=True, help="SweepConfig JSON file")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", help="report JSON path (default stdout)")
    sp.add_argument("--csv", help="also write ratio rows as CSV")
    sp.set_defaults(func=_cmd_sweep)

    return ap


_SET_FLAGS = ("A", "B", "C", "D", "P", "X", "third")
_FN_FLAGS = ("g", "h", "g2", "h2")


def _read_inputs(ns) -> None:
    """Read --p into ns.field, then replace each set, table and eps flag
    on ns by its FSet, FnTable or Fraction, in that order, before the
    subcommand runs; absent ones stay None."""
    ns.field = make_field(ns.p)
    for flags, parse in ((_SET_FLAGS, parse_set_spec),
                         (_FN_FLAGS, parse_fn_spec)):
        for flag in flags:
            spec = getattr(ns, flag, None)
            if spec is not None:
                setattr(ns, flag, parse(ns.field, spec))
    if getattr(ns, "eps", None) is not None:
        try:
            ns.eps = Fraction(ns.eps)
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad eps %r (want a/b or a decimal)" % ns.eps)


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the exit status."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        code = exc.code
        return 0 if code in (None, 0) else 2
    try:
        if hasattr(ns, "p"):
            _read_inputs(ns)
        return ns.func(ns)
    except (FpspError, OSError) as exc:
        _log("error: %s" % exc)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
