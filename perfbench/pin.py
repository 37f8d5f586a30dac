"""Recompute the pinned output digests in perfbench/digests.json.

Run from the root of a checkout:

    python3 perfbench/pin.py

Runs every op of every workload, full size and tiny, once for each pinned
seed and rewrites digests.json (a few minutes on two cores).  Seed 0 is
the acceptance-grid seed; 4242 is held out for re-checking a claim on a
seed that was not used while the claim was made.  Re-pin only in a change
that means to alter the program's outputs, and say so in that change.
"""

import json
import sys

import run

PINNED_SEEDS = (0, 4242)


def main() -> int:
    if not run.use_checkout_sources():
        print("pin: run from the root of a checkout", file=sys.stderr)
        return 2
    import workloads
    table = {}
    for name in workloads.NAMES:
        for tiny in (False, True):
            key = name + (".tiny" if tiny else "")
            for seed in PINNED_SEEDS:
                wl = workloads.build(name, seed, tiny)
                pins = table.setdefault(key, {}).setdefault(str(seed), {})
                for op in wl.ops:
                    _, digest, problem = workloads.execute(wl, op)
                    if problem is not None:
                        print("pin: %s" % problem, file=sys.stderr)
                        return 1
                    pins[op.id] = digest
                print("pinned %s seed %d: %d ops" % (key, seed, len(pins)),
                      flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
