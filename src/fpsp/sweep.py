"""Deterministic experiment sweeps over instance grids.

A sweep walks the cartesian grid primes x families x size-triples x seeds
x (g, h) specs in declaration order, runs the requested verification
chains and theorem ratio rows on every instance, and returns one report
dict.  Two hard requirements shape the code:

  * Rerunning the same config must produce a byte-identical report, and
    the worker count must not matter.  All randomness is CounterRng keyed
    by the instance coordinates, instances are enumerated in a fixed
    order, workers only ever map that list (multiprocessing map preserves
    order), and aggregates are computed once in the parent.  Wall-clock
    data lives in a separate envelope ("meta") around the report.
  * A failed EXACT check must be loud: the report carries a failure count
    and the offending check rows; callers turn that into exit status 1.

The grid runs one prime at a time, on one pool per prime.  Each distinct
random:<seed> table of the prime is hashed once, before any instance
runs: the parent allocates one anonymous shared mmap of p int32 per table
before the pool forks (and never writes to it), the workers map
block-aligned word ranges of each table's stream, one range per worker,
and then map the prime's instances.  Each process wraps a shared buffer
in one FnTable for the prime, so a table's whole-domain fibers are
counted once per process.  Other function specs are built per instance,
so a file: table that does not load fails on the instance that reads
it.  On one worker the same two phases run in-process, one range per
table.  The tables and their FnTables are freed after their prime's
instances.  The pool forks (multiprocessing.get_context("fork")) because
the workers reach the buffers by inheritance.

Set construction per family avoids 0 by design (the maps under study live
on F_p^*): intervals are drawn inside [1, p-1], arithmetic progressions
are a dilated zero-free interval, geometric progressions never contain 0,
subgroup orders snap down to the largest divisor of p-1 within the
requested size, and random sets sample [1, p-1] directly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import mmap
import multiprocessing
import os
import statistics
import time
from types import SimpleNamespace

import numpy as np

from .energy import normalize_eps
from .errors import BadEpsilon, BadParams, ConfigError, ParseError
from .field import make_field
from .functions import FnTable, _random_key, fn_spec_args, parse_fn_spec
from .incidence import COLLINEAR_CAP, TRIPLES_CAP
from .rng import CounterRng, _join, _word_ranges
from .sets import FAMILIES, generate, subgroup_orders
from .verify import (CHAINS, CSV_HEADER, PHI_CAP, THEOREMS, ThmInstance,
                     _csv_row, theorem_ratio)

# the chains a grid point can run: those that read no P, which it lacks
CHAIN_NAMES = tuple(name for name, (_, _, reads, _) in CHAINS.items()
                    if "P" not in reads)
_GP_RETRIES = 64

# The random: tables of the prime being swept, (p, seed) -> (an anonymous
# shared mmap of the table's p int32 values, an int32 view of it).  Filled
# before the prime's pool forks, so that its workers inherit the buffers.
_TABLES: dict = {}
# (p, seed) -> this process's one FnTable over a _TABLES view, made when an
# instance first reads it, so the fibers kept on it are counted once per
# process; cleared with _TABLES.
_FN_TABLES: dict = {}


def _whole(v) -> bool:
    """Whether v is an int and not a bool (JSON true would pass as 1)."""
    return isinstance(v, int) and not isinstance(v, bool)


class SweepConfig:
    """Validated sweep description.  See from_dict for the key set."""

    # the config keys, in to_dict's order
    __slots__ = ("primes", "families", "sizes", "seeds", "g", "h", "kinds",
                 "chains", "theorems", "k", "eps", "triples_cap",
                 "collinear_cap")

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """Parse and validate a config dict (usually loaded from JSON).

        Required: primes, families, sizes (list of [na, nb, nc] with
        na <= nb), seeds.  Optional: g, h (function spec lists, default
        identity and const 1), kinds (default ["sum"]), chains (default
        ["lemma"]), theorems (default []), k ("auto" or an integer level),
        eps (phi chain only: a string is read exactly, as "a/b" or a
        decimal, as `fpsp verify phi --eps` reads it; a number keeps its
        binary value), triples_cap, collinear_cap.  A file: function spec
        must name an existing file; its table is read per instance.
        """
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(raw) - set(cls.__slots__)
        if extra:
            raise ConfigError("unknown config keys: %s"
                              % ", ".join(sorted(extra)))
        cfg = cls()

        def want_list(key, default=None):
            if key not in raw:
                if default is None:
                    raise ConfigError("missing required key %r" % key)
                return list(default)
            val = raw[key]
            if not isinstance(val, list) or not val:
                raise ConfigError("%r must be a nonempty list" % key)
            return list(val)

        cfg.primes = want_list("primes")
        for p in cfg.primes:
            if not _whole(p) or p < 3:
                raise ConfigError("bad prime %r" % (p,))
        cfg.families = want_list("families")
        for fam in cfg.families:
            if fam not in FAMILIES or fam == "explicit":
                raise ConfigError("unknown family %r" % (fam,))
        cfg.sizes = []
        for triple in want_list("sizes"):
            if (not isinstance(triple, (list, tuple)) or len(triple) != 3
                    or not all(_whole(v) and v >= 1
                               for v in triple)):
                raise ConfigError("sizes entries must be [na, nb, nc] of "
                                  "positive ints, got %r" % (triple,))
            na, nb, nc = triple
            if na > nb:
                raise ConfigError("size triple %r needs na <= nb"
                                  % (triple,))
            for p in cfg.primes:
                if max(triple) > p - 1:
                    raise ConfigError("size triple %r does not fit in "
                                      "F_%d^*" % (triple, p))
            cfg.sizes.append((na, nb, nc))
        cfg.seeds = want_list("seeds")
        for s in cfg.seeds:
            if not _whole(s) or s < 0:
                raise ConfigError("bad seed %r" % (s,))
        cfg.g = want_list("g", ["id"])
        cfg.h = want_list("h", ["const:1"])
        for spec in cfg.g + cfg.h:
            try:  # syntax only: random: tables are built per prime in shared
                # memory (run_sweep), the others per instance
                kind, args = fn_spec_args(spec)
            except ParseError as exc:
                raise ConfigError(str(exc))
            if kind == "file" and not os.path.isfile(args["path"]):
                raise ConfigError("function spec %r: no such file" % spec)
        cfg.kinds = [str(s) for s in want_list("kinds", ["sum"])]
        for kd in cfg.kinds:
            if kd not in ("sum", "prod"):
                raise ConfigError("unknown kind %r" % (kd,))
        cfg.chains = [str(s) for s in want_list("chains", ["lemma"])]
        for ch in cfg.chains:
            if ch not in CHAIN_NAMES:
                raise ConfigError("unknown chain %r (have %s)"
                                  % (ch, "/".join(CHAIN_NAMES)))
        cfg.theorems = [str(s) for s in raw.get("theorems", [])]
        for tid in cfg.theorems:
            if tid not in THEOREMS:
                raise ConfigError("unknown theorem id %r" % (tid,))
        k = raw.get("k", "auto")
        if k != "auto" and (not _whole(k) or k < 1):
            raise ConfigError("k must be \"auto\" or an integer >= 1")
        cfg.k = k
        eps = raw.get("eps")
        if eps is not None:
            if not isinstance(eps, (int, float, str)):
                raise ConfigError("eps must be a number or \"num/den\" "
                                  "string")
            try:  # the range check phi_chain makes; size is unused here
                normalize_eps(eps, 0)
            except (ValueError, ZeroDivisionError, OverflowError,
                    BadEpsilon) as exc:
                raise ConfigError("bad eps %r: %s" % (eps, exc))
        cfg.eps = eps
        cfg.triples_cap = raw.get("triples_cap", TRIPLES_CAP)
        cfg.collinear_cap = raw.get("collinear_cap", COLLINEAR_CAP)
        for nm in ("triples_cap", "collinear_cap"):
            v = getattr(cfg, nm)
            if not _whole(v) or v < 1:
                raise ConfigError("%s must be a positive integer" % nm)
        if "phi" in cfg.chains:
            for _, nb, nc in cfg.sizes:
                if nb > PHI_CAP or nc > PHI_CAP:
                    raise ConfigError("phi chain needs |B|, |C| <= %d"
                                      % PHI_CAP)
        return cfg

    def to_dict(self) -> dict:
        """The config by its keys, each list a copy (sizes as lists)."""
        out = {key: getattr(self, key) for key in self.__slots__}
        for key, val in out.items():
            if isinstance(val, list):
                out[key] = list(map(list, val) if key == "sizes" else val)
        return out

    def descriptors(self) -> list:
        """The instance grid, in fixed declaration order."""
        return list(itertools.product(self.primes, self.families,
                                      self.sizes, self.seeds, self.g,
                                      self.h))


def _descriptor_id(desc) -> str:
    p, fam, (na, nb, nc), seed, gs, hs = desc
    return "p=%d|%s|na=%d,nb=%d,nc=%d|seed=%d|g=%s|h=%s" % (
        p, fam, na, nb, nc, seed, gs, hs)


def build_instance_sets(field, family: str, na: int, nb: int, nc: int,
                        seed: int) -> dict:
    """Four zero-free sets A, B, C, D for one grid point (|D| = |C|).

    All draws come from one CounterRng keyed by (p, family, sizes, seed),
    consumed in a fixed order, so the instance is a pure function of its
    coordinates.
    """
    p = field.p
    rng = CounterRng(seed, "sweep|%d|%s|%d-%d-%d" % (p, family, na, nb, nc))
    out = {}
    for name, n in (("A", na), ("B", nb), ("C", nc), ("D", nc)):
        if family == "interval":
            start = 1 + int(rng.below(p - n))
            out[name] = generate(field, "interval", start=start, size=n,
                                 zero_free=True)
        elif family == "ap":
            # a zero-free interval dilated by a nonzero step
            step = 1 + int(rng.below(p - 1))
            j = 1 + int(rng.below(p - n))
            out[name] = generate(field, "ap", start=step * j % p, step=step,
                                 size=n, zero_free=True)
        elif family == "gp":
            start = 1 + int(rng.below(p - 1))
            made = None
            for _ in range(_GP_RETRIES):
                ratio = 2 + int(rng.below(p - 2))
                try:
                    made = generate(field, "gp", start=start, ratio=ratio,
                                    size=n, zero_free=True)
                    break
                except BadParams:
                    continue  # ratio order too small; redraw
            if made is None:
                raise ConfigError("no gp ratio of order >= %d found in F_%d"
                                  % (n, p))
            out[name] = made
        elif family == "mul_subgroup":
            order = max(o for o in subgroup_orders(field) if o <= n)
            out[name] = generate(field, "mul_subgroup", order=order)
        else:  # random
            out[name] = generate(field, "random", size=n, seed=seed,
                                 instance_id="sweep|%s|%d|%s|%d-%d-%d"
                                 % (name, p, family, na, nb, nc),
                                 zero_free=True)
    return out


def _random_seeds(cfg: SweepConfig) -> list:
    """The distinct seeds of the config's random: specs, in order."""
    seeds = []
    for spec in cfg.g + cfg.h:
        kind, args = fn_spec_args(spec)
        if kind == "random" and args["seed"] not in seeds:
            seeds.append(args["seed"])
    return seeds


def _table_part(job) -> int:
    """Draw words [start, stop) of a random: table's stream into its
    shared buffer; return the count `accepted` returns."""
    p, seed, start, stop = job
    buf, vals = _TABLES[p, seed]
    got = CounterRng(*_random_key(p, seed), word=start).accepted(
        vals[1 + start:], 1, p, stop - start)
    if hasattr(mmap, "MADV_DONTNEED"):
        # drops the written pages from this process's RSS only: the
        # mapping is shared, so their contents stay (madvise(2))
        buf.madvise(mmap.MADV_DONTNEED)
    return got


def _build_tables(p: int, seeds: list, parts: int, each) -> None:
    """Fill the shared buffers of _TABLES for p: each seed's stream cut
    into `parts` word ranges, mapped with `each`, then joined."""
    ranges = _word_ranges(p - 1, parts)
    counts = iter(each(_table_part, [(p, seed, *r) for seed in seeds
                                     for r in ranges]))
    for seed in seeds:
        # writes only if a word was rejected (rng._join)
        _join(_TABLES[p, seed][1][1:], _random_key(p, seed), 1, p,
              [(start, next(counts)) for start, _ in ranges])


def _fn_table(field, spec: str) -> FnTable:
    """The table of a function spec: a random: one is this process's
    wrapper of its prime's shared buffer, any other is built here."""
    kind, args = fn_spec_args(spec)
    if kind != "random":
        return parse_fn_spec(field, spec)
    key = field.p, args["seed"]
    if key not in _FN_TABLES:
        _FN_TABLES[key] = FnTable(field, _TABLES[key][1],
                                  "random:%d" % args["seed"], copy=False)
    return _FN_TABLES[key]


@contextlib.contextmanager
def _prime_pool(p: int, seeds: list, procs: int):
    """Build p's random: tables of these seeds in shared memory and yield
    (map, seconds the tables took): map runs a function over a list on a
    pool of procs forked processes, chunksize 1, or in-process when procs
    is 1.  The tables are freed on exit."""
    with contextlib.ExitStack() as stack:
        stack.callback(_FN_TABLES.clear)
        stack.callback(_TABLES.clear)
        for seed in seeds:
            buf = mmap.mmap(-1, 4 * p)
            _TABLES[p, seed] = buf, np.frombuffer(buf, dtype=np.int32)
        if procs == 1:
            def each(fn, items):
                return list(map(fn, items))
        else:
            pool = stack.enter_context(
                multiprocessing.get_context("fork").Pool(procs))
            each = functools.partial(pool.map, chunksize=1)
        t0 = time.perf_counter()
        _build_tables(p, seeds, procs, each)
        yield each, time.perf_counter() - t0


def _instance_payload(cfg: SweepConfig, desc) -> dict:
    """Chains and ratio rows for one grid point; no timing inside."""
    p, fam, (na, nb, nc), seed, gs, hs = desc
    field = make_field(p)
    sets = build_instance_sets(field, fam, na, nb, nc, seed)
    a, b, c, d = sets["A"], sets["B"], sets["C"], sets["D"]
    g, h = _fn_table(field, gs), _fn_table(field, hs)
    inputs = SimpleNamespace(A=a, B=b, C=c, g=g, h=h, k=cfg.k, eps=cfg.eps,
                             triples_cap=cfg.triples_cap,
                             collinear_cap=cfg.collinear_cap)
    reports = []
    for ch in cfg.chains:
        _, _, reads, call = CHAINS[ch]
        for kind in cfg.kinds if "kind" in reads else (None,):
            inputs.kind = kind
            reports.append((ch if kind is None else "%s:%s" % (ch, kind),
                            call(inputs)))
    ident = _descriptor_id(desc)
    chains = [dict(rep.to_dict(), chain=label, id=ident)
              for label, rep in reports]
    rows = []
    inst = ThmInstance(a=a, b=b, c=c, d=d, g=g, h=h, family=fam, seed=seed)
    for tid in cfg.theorems:
        rows.append(theorem_ratio(tid, inst).to_dict())
    return {"id": ident, "chains": chains, "rows": rows}


def _aggregate(rows: list) -> dict:
    per = {}
    for row in rows:
        per.setdefault(row["theorem"], []).append(row)
    out = {}
    for tid in sorted(per):
        group = per[tid]
        ratios = [r["ratio"] for r in group]
        out[tid] = {
            "count": len(group),
            "min_ratio": min(ratios),
            "median_ratio": statistics.median(ratios),
            "max_ratio": max(ratios),
            "n_hyp_ok": sum(1 for r in group if r["hyp_ok"]),
            "n_exact_fail": sum(1 for r in group
                                if r.get("exact_pass") is False),
        }
    return out


def run_sweep(config, workers: int = 1) -> dict:
    """Run the grid and return {"meta": ..., "report": ...}.

    The report half is a pure function of the config; meta carries
    wall-clock and worker count and is excluded from byte comparisons.
    """
    cfg = config if isinstance(config, SweepConfig) \
        else SweepConfig.from_dict(config)
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer")
    t0 = time.perf_counter()
    descs = cfg.descriptors()
    seeds = _random_seeds(cfg)
    payloads, n_tables, tables_s = [], 0, 0.0
    run_one = functools.partial(_instance_payload, cfg)
    for p, group in itertools.groupby(descs, key=lambda desc: desc[0]):
        group = list(group)
        with _prime_pool(p, seeds, min(workers, len(group))) as (each, secs):
            payloads += each(run_one, group)
        n_tables += len(seeds)
        tables_s += secs
    chains = []
    rows = []
    for pay in payloads:
        chains.extend(pay["chains"])
        rows.extend(pay["rows"])
    failures = []
    for entry in chains:
        for chk in entry["checks"]:
            if not chk["passed"]:
                failures.append({"id": entry["id"],
                                 "chain": entry["chain"],
                                 "check": chk["name"]})
    for row in rows:
        if row.get("exact_pass") is False:
            failures.append({"id": "%s|p=%d|seed=%d"
                             % (row["theorem"], row["p"], row["seed"]),
                             "chain": "theorem",
                             "check": row["theorem"]})
    report = {
        "config": cfg.to_dict(),
        "chains": chains,
        "rows": rows,
        "aggregates": _aggregate(rows),
        "failures": failures,
        "n_failures": len(failures),
    }
    meta = {
        "elapsed_s": time.perf_counter() - t0,
        "workers": workers,
        "n_instances": len(descs),
        "n_tables": n_tables,
        "tables_s": tables_s,
    }
    return {"meta": meta, "report": report}


def report_json(result: dict) -> str:
    """Canonical serialization; identical configs give identical bytes."""
    return json.dumps(result, sort_keys=True, indent=1)


def rows_csv(rows: list) -> str:
    """The ratio rows as CSV, one line per row dict, fixed column order."""
    return "\n".join([CSV_HEADER, *map(_csv_row, rows)]) + "\n"


def load_config_file(path: str) -> SweepConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    return SweepConfig.from_dict(raw)
