"""Per-layer spans for fpsp, recorded from outside the package.

The tracer replaces every binding of each listed public function across
the loaded ``fpsp.*`` modules with a timing wrapper: ``fpsp.verify.rep_fn``
is wrapped as well as ``fpsp.energy.rep_fn``, so calls between modules are
seen too.  Methods (table builds, RNG draws) are wrapped on their class.
Nothing under ``src/`` changes.

A span's self time is its duration minus the time of its direct child
spans.  Counts are computed from call arguments only, so for one seed they
repeat exactly from run to run.  install() fails loudly when a listed
function has no binding left to wrap, for example after a refactor moves
it, so a per-layer metric can never silently read zero for that reason.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


def _count_collinear(st, args, frame):
    n = len(args["points"])
    st["points"] += n
    st["pair_work"] += n * (n - 1) // 2


def _count_bilinear(st, args, frame):
    cells = len(args["alpha"]) * len(args["ts"])
    st["cells"] += cells
    headroom = 1.0 - cells / args["cap"]
    st["cap_headroom_min"] = min(st.get("cap_headroom_min", 1.0), headroom)


def _count_pairs(first, second):
    def count(st, args, frame):
        st["cells"] += args[first].size * args[second].size
        if frame[1]:
            st["transform_calls"] += 1
    return count


def _count_draws(size_arg):
    def count(st, args, frame):
        st["draws"] += int(args[size_arg])
    return count


def _count_image(st, args, frame):
    st["cells"] += args["a"].size * args["b"].size


def _count_convolve(st, args, frame):
    st["points"] += int(args["n"])


CONVOLVE_SPAN = "convolve.cyclic_convolve"

# (span name, module, attribute path, counter or None).  Several targets
# may share one span name; their times and counts are summed.
TARGETS = (
    ("incidence.max_collinear", "fpsp.incidence", "max_collinear",
     _count_collinear),
    ("incidence.bilinear_hist", "fpsp.incidence", "bilinear_hist",
     _count_bilinear),
    ("incidence.build_proof_config", "fpsp.incidence", "build_proof_config",
     None),
    ("functions.f_image", "fpsp.functions", "f_image", _count_image),
    ("functions.mu", "fpsp.functions", "mu", None),
    ("functions.make_fn", "fpsp.functions", "make_fn", None),
    (CONVOLVE_SPAN, "fpsp.convolve", "cyclic_convolve", _count_convolve),
    ("energy.rep_fn", "fpsp.energy", "rep_fn", _count_pairs("b", "c")),
    ("energy.moment", "fpsp.energy", "moment", None),
    ("sets.combine", "fpsp.sets", "combine", _count_pairs("a", "b")),
    ("sets.generate", "fpsp.sets", "generate", None),
    ("field.tables", "fpsp.field", "PrimeField._build_tables", None),
    ("field.make_field", "fpsp.field", "make_field", None),
    ("rng", "fpsp.rng", "CounterRng.integers", _count_draws("size")),
    ("rng", "fpsp.rng", "CounterRng.subset", _count_draws("k")),
    ("verify.lemma_chain_check", "fpsp.verify", "lemma_chain_check", None),
    ("verify.theorem_ratio", "fpsp.verify", "theorem_ratio", None),
    ("verify.other_chains", "fpsp.verify", "composite_N_check", None),
    ("verify.other_chains", "fpsp.verify", "eplus_chain", None),
    ("verify.other_chains", "fpsp.verify", "phi_chain", None),
    ("verify.other_chains", "fpsp.verify", "n_chain_check", None),
    ("sweep.build_instance_sets", "fpsp.sweep", "build_instance_sets", None),
    ("sweep.run_sweep", "fpsp.sweep", "run_sweep", None),
)

# Per-layer metrics read from the spans: (metric name, span, stat key).
# Run-level metrics (parallel efficiency, tracing overhead, uncovered
# time) are added by the caller.
SPAN_METRICS = (
    ("incidence.max_collinear.calls", "incidence.max_collinear", "calls"),
    ("incidence.max_collinear.points", "incidence.max_collinear", "points"),
    ("incidence.max_collinear.pair_work", "incidence.max_collinear",
     "pair_work"),
    ("incidence.max_collinear.self_s", "incidence.max_collinear", "self_s"),
    ("incidence.bilinear_hist.cells", "incidence.bilinear_hist", "cells"),
    ("incidence.bilinear_hist.cap_headroom_min", "incidence.bilinear_hist",
     "cap_headroom_min"),
    ("incidence.bilinear_hist.self_s", "incidence.bilinear_hist", "self_s"),
    ("incidence.build_proof_config.self_s", "incidence.build_proof_config",
     "self_s"),
    ("functions.f_image.cells", "functions.f_image", "cells"),
    ("functions.f_image.self_s", "functions.f_image", "self_s"),
    ("functions.mu.self_s", "functions.mu", "self_s"),
    ("convolve.cyclic_convolve.calls", CONVOLVE_SPAN, "calls"),
    ("convolve.cyclic_convolve.points", CONVOLVE_SPAN, "points"),
    ("convolve.cyclic_convolve.self_s", CONVOLVE_SPAN, "self_s"),
    ("energy.rep_fn.calls", "energy.rep_fn", "calls"),
    ("energy.rep_fn.transform_calls", "energy.rep_fn", "transform_calls"),
    ("energy.rep_fn.cells", "energy.rep_fn", "cells"),
    ("energy.rep_fn.self_s", "energy.rep_fn", "self_s"),
    ("sets.combine.calls", "sets.combine", "calls"),
    ("sets.combine.transform_calls", "sets.combine", "transform_calls"),
    ("sets.combine.cells", "sets.combine", "cells"),
    ("sets.combine.self_s", "sets.combine", "self_s"),
    ("field.tables.builds", "field.tables", "calls"),
    ("field.tables.self_s", "field.tables", "self_s"),
    ("field.make_field.calls", "field.make_field", "calls"),
    ("functions.make_fn.calls", "functions.make_fn", "calls"),
    ("functions.make_fn.self_s", "functions.make_fn", "self_s"),
    ("rng.draws", "rng", "draws"),
    ("rng.self_s", "rng", "self_s"),
    ("sets.generate.self_s", "sets.generate", "self_s"),
    ("energy.moment.self_s", "energy.moment", "self_s"),
    ("verify.lemma_chain_check.self_s", "verify.lemma_chain_check",
     "self_s"),
    ("verify.theorem_ratio.self_s", "verify.theorem_ratio", "self_s"),
    ("verify.other_chains.self_s", "verify.other_chains", "self_s"),
    ("sweep.build_instance_sets.self_s", "sweep.build_instance_sets",
     "self_s"),
    ("sweep.run_sweep.self_s", "sweep.run_sweep", "self_s"),
)

# A layer that never ran has full headroom under its cap.
_EMPTY_STAT = {"cap_headroom_min": 1.0}


class TracerError(RuntimeError):
    """A listed function could not be wrapped."""


class Tracer:
    """Installs the span wrappers and accumulates per-span statistics."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.top_level_s = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _stat(self, span: str) -> dict:
        st = self.stats.get(span)
        if st is None:
            st = self.stats[span] = {"calls": 0, "self_s": 0.0, "points": 0,
                                     "pair_work": 0, "cells": 0,
                                     "transform_calls": 0, "draws": 0}
        return st

    def _wrap(self, span: str, fn, counter):
        sig = inspect.signature(fn) if counter else None
        st = self._stat(span)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame = [time spent in direct child spans, saw a convolve child]
            frame = [0.0, False]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                st["calls"] += 1
                st["self_s"] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    if span == CONVOLVE_SPAN:
                        stack[-1][1] = True
                else:
                    self.top_level_s += dur
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(st, bound.arguments, frame)
        return wrapper

    def install(self) -> dict:
        """Wrap every target; return {span target: bindings wrapped}.

        Raises TracerError if any target has no binding to wrap.
        """
        found = {}
        missing = []
        for span, modname, path, counter in TARGETS:
            mod = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            label = "%s.%s" % (modname, path)
            if owner_name:
                owner = getattr(mod, owner_name, None)
                original = vars(owner).get(attr) if owner else None
                sites = [(owner, attr)] if callable(original) else []
            else:
                original = getattr(mod, attr, None)
                sites = [] if original is None else [
                    (m, name) for mname, m in list(sys.modules.items())
                    if mname == "fpsp" or mname.startswith("fpsp.")
                    for name, val in vars(m).items() if val is original]
            if not sites:
                missing.append(label)
                continue
            wrapper = self._wrap(span, original, counter)
            for owner, name in sites:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
            found[label] = len(sites)
        if missing:
            self.uninstall()
            raise TracerError("no binding to trace for: %s"
                              % ", ".join(missing))
        return found

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        out = {}
        for metric, span, key in SPAN_METRICS:
            st = self.stats.get(span, {})
            out[metric] = st.get(key, _EMPTY_STAT.get(key, 0))
        return out
