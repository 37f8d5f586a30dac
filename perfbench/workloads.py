"""The fixed benchmark workloads and how their outputs are checked.

Each workload is a closed loop from one process: the next library call is
issued only after the previous one returns.  Its inputs are a pure
function of the workload seed.  An operation is one library call; its
output is serialized to bytes and hashed, and an oracle checks properties
that hold for every seed.

transform_large_p  energy.rep_fn and sets.combine (method "auto") on random
                   zero-free sets at p = 1048573, on a size ladder with
                   rungs on both sides of the 32 p log2 p crossover.
                   convolve and the dlog tables do the work; incidence,
                   functions and verify are bypassed.
sweep_large_p      sweep.run_sweep at workers=2 at p = 1048573: three grid
                   slices of two instances each (one per worker), with
                   the lemma, composite and eplus chains and all theorem
                   rows.
                   Per-instance field and function tables, the lemma
                   chain's collinearity check and the process pool
                   dominate; convolve is bypassed.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fpsp import convolve, energy, field, sets, sweep, verify

NAMES = ("transform_large_p", "sweep_large_p")

P_LARGE = 1048573
TRIPLES_CAP = 64_000_000  # as in the acceptance grid

# (function, kind, |B|, |C|).  At p = 1048573 "auto" switches to the
# transform above |B||C| = 32 p floor(log2 p) = 637,532,384: the last two
# rungs take the transform, the others the pairwise route.
TRANSFORM_LADDER = (
    ("rep_fn", "difference", 2000, 2000),
    ("combine", "sum", 2000, 2000),
    ("rep_fn", "sum", 6000, 6000),
    ("combine", "diff", 6000, 6000),
    ("combine", "ratio", 2000, 6000),
    ("rep_fn", "ratio", 10000, 10000),
    ("combine", "prod", 10000, 10000),
    ("rep_fn", "difference", 26000, 26000),
    ("combine", "prod", 26000, 26000),
)
# p = 1009 crosses over at 290,592 cells: 600 x 600 takes the transform.
TRANSFORM_P_TINY = 1009
TRANSFORM_LADDER_TINY = (
    ("rep_fn", "difference", 20, 20),
    ("combine", "sum", 20, 20),
    ("rep_fn", "ratio", 600, 600),
    ("combine", "prod", 600, 600),
)

# (family, [|A|, |B|, |C|], g specs, h specs).  One run_sweep call covers
# one slice: two instances, one per pool worker.  The first slice runs the
# collinearity check; in the other two the point set is above the
# collinearity cap.  Every g in {id, random:11} and every h in {const:1,
# random:12} is used, but no instance builds two random: tables, so the
# two workers finish close together and a pass is short enough for about
# five passes per run.
SWEEP_SLICES = (
    ("interval", [8, 16, 8], ["id", "random:11"], ["const:1"]),
    ("random", [8, 32, 16], ["id"], ["const:1", "random:12"]),
    ("mul_subgroup", [8, 32, 16], ["id", "random:11"], ["const:1"]),
)
SWEEP_SLICES_TINY = (("interval", [4, 8, 8], ["id", "random:11"],
                      ["const:1", "random:12"]),)
SWEEP_WORKERS = 2

# Checks that the program only reports; every other check is proved with
# constant 1, so a failure there is a program error.
VERDICT_CHECKS = ("collinear_R1_literal", "collinear_R1_mu")


@dataclass
class Op:
    """One library call: call() returns the raw result; weight is the
    number of operations it counts for (sweep instances per call)."""
    id: str
    call: Callable
    weight: int = 1


@dataclass
class Workload:
    ops: list              # one pass, in order
    encode: Callable       # raw result -> bytes that are hashed
    oracle: Callable       # raw result -> problem string or None
    trace_ops: list        # the fixed work of a traced run
    workers: int = 0       # pool size, for workloads that use the pool


def execute(wl: Workload, op: Op) -> tuple[float, str | None, str | None]:
    """Run one op; return (latency in s, sha256 of its output, problem).

    Only the library call is timed.  A raised exception is reported as the
    problem, with no digest.
    """
    t0 = time.perf_counter()
    try:
        res = op.call()
    except Exception as exc:  # one failed op must not end the run
        traceback.print_exc()
        return (time.perf_counter() - t0, None,
                "%s raised %s: %s" % (op.id, type(exc).__name__, exc))
    lat = time.perf_counter() - t0
    problem = wl.oracle(res)
    digest = hashlib.sha256(wl.encode(res)).hexdigest()
    return lat, digest, None if problem is None else "%s: %s" % (op.id,
                                                                 problem)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Set up a workload: fields, tables, input sets and warm caches."""
    if name == "transform_large_p":
        return _transform(seed, tiny)
    if name == "sweep_large_p":
        return _sweep(seed, tiny)
    raise ValueError("unknown workload %r (have %s)"
                     % (name, ", ".join(NAMES)))


# -- transform_large_p -----------------------------------------------------


def _transform_oracle(res) -> str | None:
    """Mass identity for histograms; size bounds for zero-free combines:
    an injective shift or dilation gives at least max(|A|, |B|) elements,
    and there are at most min(p, |A||B|) results."""
    if isinstance(res, energy.RepFn):
        c = res.counts
        if int(c.min()) < 0 or int(c.sum()) != res.mass:
            return "histogram mass %d != |B||C| = %d" % (int(c.sum()),
                                                         res.mass)
        if res.kind == "ratio" and c[0] != 0:
            return "ratio histogram hits 0"
        return None
    out, a, b, op = res
    lo, hi = max(a.size, b.size), min(a.field.p, a.size * b.size)
    if not lo <= out.size <= hi:
        return "|A %s B| = %d outside [%d, %d]" % (op, out.size, lo, hi)
    if op in ("prod", "ratio") and 0 in out:
        return "0 in a product of zero-free sets"
    return None


def _transform_encode(res) -> bytes:
    if isinstance(res, energy.RepFn):
        return np.ascontiguousarray(res.counts, dtype="<i8").tobytes()
    return res[0].mask.tobytes()


def _transform(seed: int, tiny: bool) -> Workload:
    p = TRANSFORM_P_TINY if tiny else P_LARGE
    ladder = TRANSFORM_LADDER_TINY if tiny else TRANSFORM_LADDER
    fld = field.make_field(p)
    fld.dlog_table  # pow/dlog/inverse tables
    cache = {}

    def rand_set(role: str, n: int):
        if (role, n) not in cache:
            cache[role, n] = sets.generate(
                fld, "random", size=n, seed=seed, zero_free=True,
                instance_id="perfbench|%s|p=%d|n=%d" % (role, p, n))
        return cache[role, n]

    ops = []
    for fn, kind, nb, nc in ladder:
        b, c = rand_set("B", nb), rand_set("C", nc)
        if fn == "rep_fn":
            call = (lambda b=b, c=c, kind=kind:
                    energy.rep_fn(b, c, kind, method="auto"))
        else:
            call = (lambda b=b, c=c, kind=kind:
                    (sets.combine(b, c, kind, method="auto"), b, c, kind))
        ops.append(Op("%s|%s|%dx%d" % (fn, kind, nb, nc), call))
    # Warm the transform's lazy bit-reversal and twiddle caches: length p
    # pads to the same power of two as every transform in the ladder.
    x = np.zeros(p, dtype=np.int64)
    x[:2] = 1
    convolve.cyclic_convolve(x, x, p)
    return Workload(ops, encode=_transform_encode, oracle=_transform_oracle,
                    trace_ops=ops)


# -- sweep_large_p ---------------------------------------------------------


def _sweep_config(p: int, fam: str, size: list, seed: int, g: list,
                  h: list) -> dict:
    return {"primes": [p], "families": [fam], "sizes": [size],
            "seeds": [seed], "g": g, "h": h, "kinds": ["sum", "prod"],
            "chains": ["lemma", "composite", "eplus"],
            "theorems": list(verify.THEOREMS), "triples_cap": TRIPLES_CAP}


def _sweep_oracle(result) -> str | None:
    report = result["report"]
    n = result["meta"]["n_instances"]
    if len(report["chains"]) != 4 * n or \
            len(report["rows"]) != len(verify.THEOREMS) * n:
        return "report has %d chains and %d rows for %d instances" % (
            len(report["chains"]), len(report["rows"]), n)
    bad = sorted({fl["check"] for fl in report["failures"]}
                 - set(VERDICT_CHECKS))
    return "proved checks failed: %s" % bad if bad else None


def _sweep(seed: int, tiny: bool) -> Workload:
    p = 101 if tiny else P_LARGE
    ops = []
    for fam, size, g, h in SWEEP_SLICES_TINY if tiny else SWEEP_SLICES:
        cfg = sweep.SweepConfig.from_dict(_sweep_config(p, fam, size, seed,
                                                        g, h))
        ops.append(Op("p=%d|%s|%s" % (p, fam, "-".join(map(str, size))),
                      lambda cfg=cfg: sweep.run_sweep(cfg,
                                                      workers=wl.workers),
                      weight=len(cfg.descriptors())))
    wl = Workload(ops, encode=lambda res: sweep.report_json(
                      res["report"]).encode(),
                  oracle=_sweep_oracle, trace_ops=ops[:1],
                  workers=SWEEP_WORKERS)
    return wl
