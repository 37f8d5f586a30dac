"""Fast self-check of the benchmark itself (about half a minute).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Runs the tiny version of every workload in BENCHMARK.json with
   --trace 0 and --trace 1.  The last line must hold exactly the result
   keys, be correct, and print every metric BENCHMARK.json names for that
   mode, with its unit and a finite number, and no other metric; the line
   before must show that the outputs were checked against pinned digests.
2. Flips one pinned digest and checks that the gate fails that op.
3. Runs run.py in a directory holding only BENCHMARK.json and perfbench/
   and checks that it exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SCRATCH = ".perfbench_selfcheck"


def bench_cmd(workload: str, trace: int, tiny: bool = True) -> list:
    return ([sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            + (["--tiny"] if tiny else []))


def check_run(workload: str, trace: int, units: dict) -> list:
    done = subprocess.run(bench_cmd(workload, trace), capture_output=True,
                          text=True, timeout=170)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit %d\n%s" % (where, done.returncode, done.stderr)]
    lines = done.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        errors.append("%s: not correct: %s" % (where, info.get("problems")))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != units:
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s, units %s" % (
                          where, sorted(set(units) - set(printed)),
                          sorted(set(printed) - set(units)),
                          sorted(n for n in units if n in printed
                                 and printed[n] != units[n])))
    for name, m in result["metrics"].items():
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            errors.append("%s: %s is not a finite number" % (where, name))
    if info.get("digest_gate") != "pinned":
        errors.append("%s: outputs not checked against pins" % where)
    return errors


def check_tampered_pin() -> list:
    import workloads
    wl = workloads.build("transform_large_p", 0, tiny=True)
    pins = dict(run.load_pins("transform_large_p", 0, True))
    victim = wl.ops[0].id
    pins[victim] = "0" * 64
    gate = run.Gate(pins)
    for op in wl.ops:
        gate.record(op, *workloads.execute(wl, op)[1:])
    if gate.failed != 1 or victim not in gate.problems[0]:
        return ["tampered pin: gate reported %d failures" % gate.failed]
    return []


def check_without_sources() -> list:
    root = Path(SCRATCH)
    shutil.rmtree(root, ignore_errors=True)
    try:
        root.mkdir()
        shutil.copy("BENCHMARK.json", root)
        shutil.copytree("perfbench", root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(bench_cmd("transform_large_p", 0, tiny=False),
                              cwd=root, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["without src/: exit %d, stdout %r"
                % (done.returncode, done.stdout[:200])]
    return []


def main() -> int:
    if not run.use_checkout_sources():
        print("selfcheck: run from the root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for wl in bench["workloads"]:
        for trace, units in modes.items():
            errors += check_run(wl["name"], trace, units)
    errors += check_tampered_pin()
    errors += check_without_sources()
    for err in errors:
        print("selfcheck: FAIL %s" % err)
    print("selfcheck: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
