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

Point/plane files (incidence subcommand): UTF-8 text, line 1
`p=<modulus>`, then one row per line of whitespace-separated integers,
`x y z` for points and `a b c d` for planes, a plane meaning the locus
aX + bY + cZ + d = 0 over F_p.  Blank lines and `#` comments are
ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .energy import moment, rep_fn
from .errors import FpspError, ParseError
from .field import make_field, PrimeField
from .functions import f_image, mu, parse_fn_spec
from .incidence import (COLLINEAR_CAP, MATERIALIZE_CAP, TRIPLES_CAP,
                        VARIANTS, build_proof_config, incidences,
                        make_config, max_collinear, proof_incidences,
                        rudnev_ratio)
from .sets import (FAMILIES, FSet, _format_lines, _read_lines, affine,
                   combine, generate, read_set_file)
from .sweep import load_config_file, rows_csv, run_sweep
from .verify import (THEOREMS, ThmInstance, composite_N_check, eplus_chain,
                     lemma_chain_check, n_chain_check, phi_chain,
                     theorem_ratio)

_SET_FAMILY_HEADS = ("file", "subgroup") + FAMILIES


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _explicit_elements(text: str) -> list[int]:
    """The comma-separated integers of an explicit set; blanks skipped."""
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError("bad explicit elements in %r" % text)


def parse_set_spec(field: PrimeField, spec: str) -> FSet:
    """Build an FSet from a CLI set spec (grammar in the module docstring)."""
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
    parts = rest.split(":")
    try:
        if head == "interval":
            start, n = (int(v) for v in parts)
            return generate(field, "interval", start=start, size=n)
        if head == "ap":
            start, step, n = (int(v) for v in parts)
            return generate(field, "ap", start=start, step=step, size=n)
        if head == "gp":
            start, ratio, n = (int(v) for v in parts)
            return generate(field, "gp", start=start, ratio=ratio, size=n)
        if head in ("subgroup", "mul_subgroup"):
            (order,) = (int(v) for v in parts)
            return generate(field, "mul_subgroup", order=order)
        # random:<len>:<seed>, seed defaulting to 0
        if len(parts) == 1:
            n, seed = int(parts[0]), 0
        else:
            n, seed = (int(v) for v in parts)
        return generate(field, "random", size=n, seed=seed)
    except ValueError:
        raise ParseError("bad set spec %r (wrong arity or not integers)"
                         % spec)


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
    blob = json.dumps(data, sort_keys=True, indent=1)
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


def write_rows_file(path: str, p: int, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(_format_lines(p, rows))


def _eps_arg(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad eps %r (want a/b or a decimal)" % s)


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


def _cmd_gen(ns) -> int:
    elements = None
    if ns.family == "explicit" and ns.elements is not None:
        elements = _explicit_elements(ns.elements)
    fam = "mul_subgroup" if ns.family == "subgroup" else ns.family
    a = generate(make_field(ns.p), fam, start=ns.start, step=ns.step,
                 ratio=ns.ratio, order=ns.order, size=ns.len, seed=ns.seed,
                 elements=elements, zero_free=ns.zero_free)
    _emit_set(a, ns.out)
    return 0


def _cmd_setop(ns) -> int:
    field = make_field(ns.p)
    a = parse_set_spec(field, ns.A)
    if ns.affine is not None:
        try:
            lam, t = (int(v) for v in ns.affine.split(","))
        except ValueError:
            raise ParseError("--affine wants lam,t")
        out = affine(a, lam, t)
        _emit_set(out, ns.out, "affine(%d,%d)" % (lam, t))
        return 0
    if ns.op is None or ns.B is None:
        raise ParseError("setop needs either --op with --B, or --affine")
    b = parse_set_spec(field, ns.B)
    out = combine(a, b, ns.op)
    _emit_set(out, ns.out, "A %s B" % ns.op)
    return 0


def _cmd_image(ns) -> int:
    field = make_field(ns.p)
    a = parse_set_spec(field, ns.A)
    b = parse_set_spec(field, ns.B)
    g = parse_fn_spec(field, ns.g)
    h = parse_fn_spec(field, ns.h)
    img = f_image(g, h, a, b)
    _emit_set(img, ns.out, "f(A,B)")
    return 0


def _cmd_energy(ns) -> int:
    field = make_field(ns.p)
    a = parse_set_spec(field, ns.A)
    b = parse_set_spec(field, ns.B)
    kind = {"diff": "difference", "difference": "difference",
            "ratio": "ratio", "sum": "sum"}.get(ns.op)
    if kind is None:
        raise ParseError("unknown --op %r" % ns.op)
    try:
        n = Fraction(ns.n)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad --n %r (want an integer or a/b)" % ns.n)
    r = rep_fn(a, b, kind)
    val = moment(r, int(n) if n.denominator == 1 else n)
    print(val)
    _log("E_%s(%s) over %d support points" % (ns.n, kind, r.support_size()))
    return 0


def _cmd_mu(ns) -> int:
    field = make_field(ns.p)
    g = parse_fn_spec(field, ns.g)
    dom = parse_set_spec(field, ns.A) if ns.A else None
    print(mu(g, dom))
    return 0


def _cmd_incidence(ns) -> int:
    field = make_field(ns.p)
    if ns.points is not None:
        _, pts = read_rows_file(ns.points, 3, field)
        if ns.planes is not None:
            _, pls = read_rows_file(ns.planes, 4, field)
        else:
            pls = np.zeros((0, 4), dtype=np.int64)
        cfg = make_config(field, pts, pls,
                          provenance="files:%s,%s" % (ns.points, ns.planes))
    else:
        if ns.variant is None:
            raise ParseError("incidence needs --points/--planes files or "
                             "--variant with sets")
        if ns.A is None or ns.X is None or ns.third is None:
            raise ParseError("--variant mode needs --A, --X and --third")
        args = [parse_set_spec(field, s) for s in (ns.A, ns.X, ns.third)]
        args += [parse_fn_spec(field, ns.g), parse_fn_spec(field, ns.h)]
        if ns.action == "count":
            # kernel route: no materialization needed for the count
            print(proof_incidences(ns.variant, *args, cap=ns.cap))
            return 0
        cfg = build_proof_config(ns.variant, *args, cap=ns.cap)
    if ns.action == "count":
        print(incidences(cfg))
        _log("|R|=%d |S|=%d" % (cfg.n_points, cfg.n_planes))
    elif ns.action == "max-collinear":
        print(max_collinear(cfg.points, cfg.field, cap=ns.collinear_cap))
        _log("|R|=%d" % cfg.n_points)
    elif ns.action == "rudnev-ratio":
        _emit_json(rudnev_ratio(cfg))
    else:  # build
        if ns.out_points is None or ns.out_planes is None:
            raise ParseError("incidence build needs --out-points and "
                             "--out-planes")
        write_rows_file(ns.out_points, field.p, cfg.points)
        write_rows_file(ns.out_planes, field.p, cfg.planes)
        _log("wrote %d points to %s, %d planes to %s"
             % (cfg.n_points, ns.out_points, cfg.n_planes, ns.out_planes))
    return 0


def _cmd_verify_lemma(ns) -> int:
    field = make_field(ns.p)
    a = parse_set_spec(field, ns.A)
    b = parse_set_spec(field, ns.B)
    c = parse_set_spec(field, ns.C) if ns.C else b
    g = parse_fn_spec(field, ns.g)
    h = parse_fn_spec(field, ns.h)
    if ns.k == "auto":
        k = "auto"
    else:
        try:
            k = int(ns.k)
        except ValueError:
            raise ParseError("--k wants \"auto\" or an integer")
    rep = lemma_chain_check(a, b, c, g, h, ns.kind, k=k,
                            triples_cap=ns.triples_cap,
                            collinear_cap=ns.collinear_cap)
    return _report_verdict(rep.to_dict(), "lemma-chain[%s]" % ns.kind)


def _cmd_verify_nchain(ns) -> int:
    field = make_field(ns.p)
    b = parse_set_spec(field, ns.B)
    c = parse_set_spec(field, ns.C) if ns.C else b
    pset = parse_set_spec(field, ns.P) if ns.P else None
    rep = n_chain_check(b, c, pset)
    return _report_verdict(rep.to_dict(), "n-chain")


def _cmd_verify_composite(ns) -> int:
    field = make_field(ns.p)
    b = parse_set_spec(field, ns.B)
    c = parse_set_spec(field, ns.C) if ns.C else b
    rep = composite_N_check(b, c)
    return _report_verdict(rep.to_dict(), "composite")


def _cmd_verify_eplus(ns) -> int:
    field = make_field(ns.p)
    a = parse_set_spec(field, ns.A)
    b = parse_set_spec(field, ns.B)
    c = parse_set_spec(field, ns.C) if ns.C else b
    g = parse_fn_spec(field, ns.g)
    h = parse_fn_spec(field, ns.h)
    rep = eplus_chain(a, b, c, g, h, cap=ns.triples_cap)
    return _report_verdict(rep.to_dict(), "eplus")


def _cmd_verify_phi(ns) -> int:
    field = make_field(ns.p)
    b = parse_set_spec(field, ns.B)
    c = parse_set_spec(field, ns.C) if ns.C else b
    eps = _eps_arg(ns.eps) if ns.eps else None
    rep = phi_chain(b, c, eps=eps)
    return _report_verdict(rep.to_dict(), "phi")


def _cmd_verify_theorem(ns) -> int:
    field = make_field(ns.p)
    a = parse_set_spec(field, ns.A)

    def opt_set(spec):
        return parse_set_spec(field, spec) if spec else None

    def opt_fn(spec):
        return parse_fn_spec(field, spec) if spec else None

    kwargs = dict(a=a, b=opt_set(ns.B), c=opt_set(ns.C), d=opt_set(ns.D),
                  g=opt_fn(ns.g), h=opt_fn(ns.h), g2=opt_fn(ns.g2),
                  h2=opt_fn(ns.h2), family=ns.family, seed=ns.seed)
    if ns.eps:
        kwargs["eps"] = _eps_arg(ns.eps)
    row = theorem_ratio(ns.id, ThmInstance(**kwargs), strict=ns.strict)
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
    _log("sweep: %d instances, %d chain entries, %d ratio rows, "
         "%d failures in %.2fs"
         % (result["meta"]["n_instances"], len(rep["chains"]),
            len(rep["rows"]), rep["n_failures"],
            result["meta"]["elapsed_s"]))
    return 1 if rep["n_failures"] else 0


# -- parser ------------------------------------------------------------------


def _add_fn_flags(sp, g2h2: bool = False) -> None:
    sp.add_argument("--g", default="id", help="g table spec (default id)")
    sp.add_argument("--h", default="const:1",
                    help="h table spec (default const:1)")
    if g2h2:
        sp.add_argument("--g2", default=None)
        sp.add_argument("--h2", default=None)


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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--elements", help="comma-separated, explicit family")
    sp.add_argument("--zero-free", action="store_true", dest="zero_free")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("setop", help="combine two sets or apply an "
                                      "affine map")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B")
    sp.add_argument("--op", choices=["sum", "diff", "prod", "ratio"])
    sp.add_argument("--affine", help="lam,t for {lam*x+t : x in A}")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_setop)

    sp = sub.add_parser("image", help="the image set {g(a)(h(a)+b)}")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    _add_fn_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_image)

    sp = sub.add_parser("energy", help="moment of a representation "
                                       "histogram, exactly")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--op", required=True,
                    help="diff | ratio | sum (histogram kind)")
    sp.add_argument("--n", required=True,
                    help="moment exponent, integer or a/b")
    sp.set_defaults(func=_cmd_energy)

    sp = sub.add_parser("mu", help="multiplicity max_t |g^{-1}(t)|")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--A", help="optional domain restriction")
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
    sp.add_argument("--A")
    sp.add_argument("--X")
    sp.add_argument("--third", help="C for the E1 shapes, the image set "
                                    "for the E2 shapes")
    _add_fn_flags(sp)
    sp.add_argument("--cap", type=int, default=MATERIALIZE_CAP)
    sp.add_argument("--collinear-cap", type=int, default=COLLINEAR_CAP,
                    dest="collinear_cap")
    sp.add_argument("--out-points", dest="out_points")
    sp.add_argument("--out-planes", dest="out_planes")
    sp.set_defaults(func=_cmd_incidence)

    vp = sub.add_parser("verify", help="single-instance verification")
    vsub = vp.add_subparsers(dest="mode", required=True)

    sp = vsub.add_parser("lemma-chain", help="the fourth-moment chain")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--C", help="defaults to B")
    _add_fn_flags(sp)
    sp.add_argument("--kind", choices=["sum", "prod"], default="sum")
    sp.add_argument("--k", default="auto")
    sp.add_argument("--triples-cap", type=int, default=TRIPLES_CAP,
                    dest="triples_cap")
    sp.add_argument("--collinear-cap", type=int, default=COLLINEAR_CAP,
                    dest="collinear_cap")
    sp.set_defaults(func=_cmd_verify_lemma)

    sp = vsub.add_parser("n-chain", help="shifted-difference count N "
                                         "for a given P")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--C", help="defaults to B")
    sp.add_argument("--P", help="subset of B-C; default: popular "
                                "difference set")
    sp.set_defaults(func=_cmd_verify_nchain)

    sp = vsub.add_parser("composite", help="full N chain with Hoelder "
                                           "closure")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--C", help="defaults to B")
    sp.set_defaults(func=_cmd_verify_composite)

    sp = vsub.add_parser("eplus", help="additive-energy transfer bound")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--C", help="defaults to B")
    _add_fn_flags(sp)
    sp.add_argument("--triples-cap", type=int, default=TRIPLES_CAP,
                    dest="triples_cap")
    sp.set_defaults(func=_cmd_verify_eplus)

    sp = vsub.add_parser("phi", help="popular-sum core machinery")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--C", help="defaults to B")
    sp.add_argument("--eps", help="popularity threshold, a/b or decimal "
                                  "(default 1/log2|C|)")
    sp.set_defaults(func=_cmd_verify_phi)

    sp = vsub.add_parser("theorem", help="one ratio row")
    sp.add_argument("--id", required=True, choices=list(THEOREMS))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B")
    sp.add_argument("--C")
    sp.add_argument("--D")
    sp.add_argument("--g")
    sp.add_argument("--h")
    sp.add_argument("--g2")
    sp.add_argument("--h2")
    sp.add_argument("--family", default="cli")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eps")
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


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the exit status."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        code = exc.code
        return 0 if code in (None, 0) else 2
    try:
        return ns.func(ns)
    except FpspError as exc:
        _log("error: %s" % exc)
        return 2
    except OSError as exc:
        _log("error: %s" % exc)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
