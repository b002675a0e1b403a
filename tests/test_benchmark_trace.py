"""The benchmark's tracer still finds every function it wraps.

perfbench/spans.py replaces machlab functions at the names their callers
look them up. A refactor that renames or bypasses one of them would only
surface in a traced benchmark run; this test runs one on the mini config.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import MINI_CFG

REPO = Path(__file__).resolve().parents[1]


def test_traced_child_run_on_mini_config(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    # the spans and counts of a member are recorded where it runs: in process
    env = dict(os.environ, MACHLAB_WORKERS="1")
    env["PYTHONPATH"] = str(REPO / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), str(cfg),
         str(tmp_path / "run"), repr(time.monotonic()), "trace"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["verify_ok"], out["verify_failures"]
    assert out["counts"]["spectral.eigensolve_calls"] == 1
    # per member: one per stored snapshot, which the energy report, the
    # wave forcing and the convergence metrics share where the parent
    # derives them (the first snapshot's also gives the initial lifting
    # coupling); the stepping member samples none, and the ledger and the
    # forcing read the lifting's cached box fields instead
    assert out["counts"]["geometry.lifting_calls"] == 2 * 5
    # per member and snapshot: one forcing assembly and one projection of
    # all its terms
    assert out["counts"]["spectral.forcing_calls"] == 2 * 5 * 2
    # 12 reference steps and two projections of the reference initial data;
    # the convergence metrics pair with the solenoidal test function as it
    # is (one projection per member less), and no snapshot pays a Helmholtz
    # extraction of its acoustic pair (that was 2 members x 5 snapshots more)
    assert out["counts"]["operators.poisson_solves"] == 14
    assert set(out["dt"]) == {"0.2", "0.1"}
    assert {"compressible.step", "sweep.self"} <= set(out["layers"])
    # the tracer tags each member with run_one_eps's third argument, its eps
    assert {"sweep.member.0.2", "sweep.member.0.1"} <= set(out["layers"])
