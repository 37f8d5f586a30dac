"""fpsp benchmark: run one workload, timed or traced, and check its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload transform_large_p --seed 0 \\
        --seconds 40 --trace 0

--trace 0 runs the workload's op list in a closed loop, in whole passes,
until --seconds have passed, and prints the end-to-end metrics.  Set-up is
timed in this process and in fresh ones; setup_s is the median.
--trace 1 sets up and runs one fixed pass with the fpsp layers wrapped in
spans, runs the same pass unwrapped, and prints the per-layer metrics.
sweep_large_p traces at one worker and runs the pass again at two.

Every output is hashed.  For a seed with pinned digests (digests.json)
each op must reproduce its pin; for any other seed each op must give the
same digest every time it runs.  Oracles check what holds for every seed.
An op that raises or fails these checks counts as failed.

The last line of stdout is the result JSON; the line before it records
the machine, the versions, the seed, the error rate and the latency
sample count and tail percentile.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS threads before numpy loads (workloads imports it); child
# processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 9, 3.0
TAIL_LEVELS = (99.9, 99, 95, 90, 75)
MIN_BEYOND_TAIL = 10


def use_checkout_sources() -> bool:
    """Import fpsp from ./src of the current directory, never elsewhere."""
    src = Path.cwd() / "src"
    if not (src / "fpsp" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def setup(name: str, seed: int, tiny: bool):
    """Imports plus the workload's set-up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.build(name, seed, tiny)
    return wl, time.perf_counter() - t0


def load_pins(name: str, seed: int, tiny: bool) -> dict | None:
    table = json.loads(DIGESTS.read_text())
    return table.get(name + (".tiny" if tiny else ""), {}).get(str(seed))


class Gate:
    """Compares every op's digest with its pin, or with its first run."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.seen: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, op, digest, problem) -> None:
        if problem is None and digest is not None:
            if self.pins is not None:
                want = self.pins.get(op.id)
                if want is None:
                    problem = "%s: no pinned digest" % op.id
            else:
                want = self.seen.setdefault(op.id, digest)
            if problem is None and digest != want:
                problem = "%s: output digest %s.. != %s %s.." % (
                    op.id, digest[:12], "pinned" if self.pins else "first",
                    want[:12])
        self.attempted += op.weight
        if problem is not None:
            self.failed += op.weight
            self.problems.append(problem)

    def info(self) -> dict:
        return {"digest_gate": ("pinned" if self.pins is not None else
                                "unpinned seed: repeat runs and oracles"),
                "error_rate": self.failed / max(1, self.attempted),
                "problems": self.problems[:20]}


def tail(latencies: list) -> tuple[str, float]:
    """Highest listed percentile with MIN_BEYOND_TAIL samples beyond it,
    by nearest rank; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LEVELS:
        if n * (100 - q) / 100 >= MIN_BEYOND_TAIL:
            return "p%g" % q, ordered[max(0, math.ceil(q / 100 * n) - 1)]
    return "max", ordered[-1]


def probe_setup(name: str, seed: int, tiny: bool) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny
                                                       else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout.split()[-1])


def timed(name: str, seed: int, seconds: float, tiny: bool) -> tuple:
    wl, setup_here = setup(name, seed, tiny)
    import workloads
    gate = Gate(load_pins(name, seed, tiny))
    lat: dict[str, list] = {op.id: [] for op in wl.ops}
    i = 0
    start = time.perf_counter()
    while True:
        op = wl.ops[i % len(wl.ops)]
        dt, digest, problem = workloads.execute(wl, op)
        lat[op.id].append(dt)
        gate.record(op, digest, problem)
        i += 1
        if i % len(wl.ops) == 0 and time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    # ru_maxrss is in KiB; the children are the pool workers, whose peaks
    # are counted once per worker.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.workers:
        rss_kib += wl.workers * resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    # Fresh processes set up until there are SETUP_MIN samples and
    # SETUP_MIN_S seconds of set-up, so that cheap set-ups get more samples.
    setups = [setup_here]
    while len(setups) < SETUP_MAX and (len(setups) < SETUP_MIN
                                       or sum(setups) < SETUP_MIN_S):
        setups.append(probe_setup(name, seed, tiny))
    # Each op's latency is its median over the passes; the percentiles are
    # taken over ops.
    per_op = {k: statistics.median(v) for k, v in lat.items()}
    tail_name, tail_s = tail(list(per_op.values()))
    metrics = {
        "ops_per_s": (gate.attempted / elapsed, "1/s"),
        "op_p50_s": (statistics.median(per_op.values()), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    info = dict(gate.info(), passes=i // len(wl.ops), timed_s=elapsed,
                latency_samples=i, tail_percentile=tail_name,
                latency_unit=("run_sweep call" if wl.workers else "op"),
                op_median_s=per_op, setup_samples_s=setups)
    return gate, metrics, info


def traced(name: str, seed: int, tiny: bool) -> tuple:
    import spans
    tracer = spans.Tracer()
    import workloads  # loads fpsp, so that its bindings can be wrapped
    bindings = tracer.install()
    wl, _ = setup(name, seed, tiny)
    gate = Gate(load_pins(name, seed, tiny))
    pool_size = wl.workers
    if pool_size:
        wl.workers = 1

    def one_pass():
        t0 = time.perf_counter()
        for op in wl.trace_ops:
            gate.record(op, *workloads.execute(wl, op)[1:])
        return time.perf_counter() - t0

    covered0 = tracer.top_level_s
    traced_s = one_pass()
    covered = tracer.top_level_s - covered0
    tracer.uninstall()
    # A seed without pins still has its traced digests checked here.
    plain_s = one_pass()
    efficiency = 0.0
    if pool_size:
        wl.workers = pool_size
        efficiency = plain_s / (pool_size * one_pass())
    metrics = {m: (v, _unit(m)) for m, v in tracer.layer_metrics().items()}
    metrics["sweep.parallel_efficiency"] = (efficiency, "fraction")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "fraction")
    metrics["trace.uncovered_frac"] = (1 - covered / traced_s, "fraction")
    info = dict(gate.info(), traced_s=traced_s, untraced_s=plain_s,
                traced_ops=len(wl.trace_ops), bindings=bindings)
    return gate, metrics, info


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("headroom_min"):
        return "fraction"
    return "count"


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(
                os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for selfcheck.py")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not use_checkout_sources():
        print("perfbench: no src/fpsp under %s; run from the root of a "
              "checkout" % Path.cwd(), file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup(args.workload, args.seed, args.tiny)[1])
        return 0
    if args.trace:
        gate, metrics, info = traced(args.workload, args.seed, args.tiny)
    else:
        gate, metrics, info = timed(args.workload, args.seed, args.seconds,
                                    args.tiny)
    for problem in gate.problems[:20]:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                tiny=args.tiny, machine=machine())
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: {"value": v, "unit": u}
                    for m, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
