"""One benchmark iteration in a fresh interpreter: set up, run, verify, report.

Usage: python3 child.py CONFIG RUN_DIR SPAWN_TIME MODE [SPANS_FILE]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, importing machlab, parsing
the config and building the scenario. MODE is `setup` (stop after set-up),
`run`, or `trace`: the run and its verification are traced, and the
spans go to SPANS_FILE when one is given. The last line of standard output
is one JSON object.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

from machlab.config import parse_config
from machlab.sweep import build_scenario, run_sweep
from machlab.verify import verify_run


def blas_threads() -> int:
    """Thread count of NumPy's OpenBLAS, or -1 when it cannot be queried."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return -1


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv):
    cfg_path, run_dir, spawn_time, mode = argv[:4]
    spans_file = argv[4] if len(argv) > 4 and argv[4] else None
    run_dir = Path(run_dir)

    cfg = parse_config(Path(cfg_path).read_text())
    build_scenario(cfg)
    setup_s = time.monotonic() - float(spawn_time)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer(f"{cfg.digest()}-{os.getpid()}")
        tracer.install()

    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    t0 = time.perf_counter()
    call("sweep.run", run_sweep, cfg, run_dir)
    wall_s = time.perf_counter() - t0
    report = call("verify.run", verify_run, run_dir)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_dir_bytes": dir_bytes(run_dir),
        "summary_csv": (run_dir / "summary.csv").read_text(),
        "verify_ok": report["ok"],
        "verify_failures": [f"{c['name']} ({c['context']})"
                            for c in report["checks"] if not c["passed"]],
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_self_times("sweep.run")
        out["verify_layers"] = tracer.layer_self_times("verify.run")
        out["traced_wall_s"] = tracer.root_duration("sweep.run")
        out["counts"] = dict(tracer.counts)
        out["dt"] = {f"{eps:g}": row for eps, row in tracer.dt.items()}
        if spans_file:
            tracer.write(spans_file)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
