"""Write perfbench/reference/<workload>.summary.csv from one run of the code.

Usage (from the repository root): python3 perfbench/make_reference.py [WORKLOAD ...]

Only workloads whose inputs do not depend on the seed have a reference.
A reference is regenerated only for an intended change of the numbers,
and the change says so.
"""

import sys

from run import WORK, run_child
from workloads import REFERENCE_DIR, WORKLOADS


def main(names):
    WORK.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or [n for n, w in WORKLOADS.items() if not w.seeded]:
        workload = WORKLOADS[name]
        cfg_path = WORK / f"{name}-reference.cfg"
        cfg_path.write_text(workload.config_text(0))
        result, error = run_child(cfg_path, WORK / f"{name}-reference-run", "run", None, 600.0)
        cfg_path.unlink()
        if result is None or not result["verify_ok"]:
            sys.exit(f"{name}: {error or result['verify_failures']}")
        workload.reference.write_text(result["summary_csv"])
        print(f"wrote {workload.reference}")


if __name__ == "__main__":
    main(sys.argv[1:])
