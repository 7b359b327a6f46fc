"""Write the stored references that run.py compares the default seed against.

    python3 perfbench/make_reference.py [workload ...]

Run it only when a change to the scores or the selection is intended, and
say so with the change: the references are what "selection must not change"
is checked against.
"""

import json
import os
import sys

import run
from workloads import REL_TOL, ABS_TOL, WORKLOADS


def main(names) -> int:
    run.import_zgptda()
    import zgptda.augment as zg_augment

    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name].for_reference()
        prep = wl.prepare(zg_augment, run.DEFAULT_SEED,
                          os.path.join(run.WORK, name, "reference"), run.MAX_IN_FLIGHT)
        cmd = run.run_command(wl, prep, False, 0)
        problems = cmd.problems or wl.check(prep)
        if problems:
            print(f"{name}: not writing a reference: {problems[:5]}", file=sys.stderr)
            return 1
        path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": run.DEFAULT_SEED,
                       "tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
                       "summary": wl.summary(prep)}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
