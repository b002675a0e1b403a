"""machlab benchmark: one workload, closed loop, one process per machlab run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-default --seed 0 --seconds 35 --trace 0

Workloads are defined in perfbench/workloads.py. Each iteration starts
perfbench/child.py in a fresh interpreter (so peak memory does not carry
over), which builds the scenario, calls machlab.sweep.run_sweep, then
machlab.verify.verify_run on the fresh run directory; before each
untraced iteration a set-up-only child gives a second setup_s sample.
Iterations run one at a time until the next would overrun --seconds. The
machlab worker pool is off (MACHLAB_WORKERS unset) and BLAS is pinned to
one thread.

Every iteration is checked: verify_run must be all-pass, and summary.csv
must match perfbench/reference/<workload>.summary.csv to 1e-8 relative
where the workload has a reference. Byte counts and, when traced, step,
quadrature and solve counts must repeat exactly across iterations.

With --trace 0 the end-to-end metrics are medians over iterations. With
--trace 1 untraced and traced iterations alternate; the per-layer metrics
come from the traced iteration of median wall time and its spans are
written under .perfbench-work/spans/. Every metric is printed with its
unit, and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EPS_KEYS, REPO, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = REPO / ".perfbench-work"
RTOL = 1e-8
MIN_UNTRACED = 3
MIN_TRACED = 2  # each of traced and untraced, so exact counts compare across two runs
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 160.0  # no iteration starts that could end past this


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# -- output checks ------------------------------------------------------------


def compare_summary(text: str, reference: str, rtol: float = RTOL) -> list:
    """Differences between a summary.csv and its reference, empty when equal
    to `rtol` relative (exact for text and integer cells)."""
    got = [line.split(",") for line in text.strip().splitlines()]
    ref = [line.split(",") for line in reference.strip().splitlines()]
    if len(got) != len(ref) or got[0] != ref[0]:
        return [f"summary.csv shape or header differs: {got[0]} vs {ref[0]}"]
    problems = []
    header = ref[0]
    for r, (row, ref_row) in enumerate(zip(got[1:], ref[1:]), start=1):
        if len(row) != len(ref_row):
            problems.append(f"row {r} has {len(row)} cells, reference {len(ref_row)}")
            continue
        for col, a, b in zip(header, row, ref_row):
            try:
                x, y = float(a), float(b)
            except ValueError:
                if a != b:
                    problems.append(f"row {r} {col}: {a!r} != {b!r}")
                continue
            if abs(x - y) > rtol * max(abs(x), abs(y)):
                problems.append(f"row {r} {col}: {a} vs reference {b}")
    return problems


def check_iteration(result: dict, reference: str | None) -> list:
    problems = [f"verify_run failed: {name}" for name in result["verify_failures"]]
    if not result["verify_ok"] and not problems:
        problems.append("verify_run not all-pass")
    if reference is not None:
        problems += compare_summary(result["summary_csv"], reference)
    return problems


def exact_counts(result: dict) -> dict:
    """The counts that must repeat exactly from run to run."""
    out = {"run_dir_bytes": result["run_dir_bytes"]}
    if "counts" in result:
        out.update(result["counts"])
        out["dt"] = result["dt"]
    return out


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(results: list, setup_probes: list) -> dict:
    """Medians over the iterations; setup_s also takes the set-up probes."""
    out = {key: statistics.median(r[key] for r in results) for key in ("wall_s", "peak_rss_mb")}
    out["setup_s"] = statistics.median(setup_probes + [r["setup_s"] for r in results])
    out["run_dir_mb"] = statistics.median(r["run_dir_bytes"] for r in results) / 1e6
    return out


def per_layer_metrics(traced: dict, overhead_s: float) -> dict:
    """Per-layer metrics of one traced iteration."""
    layers, vlayers = traced["layers"], traced["verify_layers"]
    counts, dt = traced["counts"], traced["dt"]
    steps = sum(row[0] for row in dt.values())
    out = {
        "compressible.step_s": layers.get("compressible.step", 0.0),
        "compressible.step_us": 1e6 * layers.get("compressible.step", 0.0) / max(steps, 1),
        "compressible.cfl_s": layers.get("compressible.cfl", 0.0),
        "compressible.ledger_s": layers.get("compressible.ledger", 0.0),
    }
    for eps in EPS_KEYS:
        n, lo, hi = dt.get(eps, (0, 0.0, 0.0))
        out[f"compressible.steps.{eps}"] = n
        out[f"compressible.dt_min.{eps}"] = lo
        out[f"compressible.dt_max.{eps}"] = hi
    out.update({
        "geometry.lifting_s": layers.get("geometry.lifting", 0.0),
        "geometry.lifting_calls": counts.get("geometry.lifting_calls", 0),
        "spectral.eigensolve_s": layers.get("spectral.eigensolve", 0.0),
        "spectral.eigensolve_calls": counts.get("spectral.eigensolve_calls", 0),
        "spectral.modes": counts.get("spectral.modes", 0),
        "spectral.decay_s": layers.get("spectral.decay", 0.0),
        "spectral.decay_nodes": counts.get("spectral.decay_nodes", 0),
        "spectral.decay_flops": counts.get("spectral.decay_flops", 0),
        "spectral.forcing_s": layers.get("spectral.forcing", 0.0),
        "spectral.forcing_calls": counts.get("spectral.forcing_calls", 0),
        "spectral.extract_s": layers.get("spectral.extract", 0.0),
        "storage.write_s": layers.get("storage.write", 0.0),
        "storage.bytes_written": counts.get("storage.bytes_written", 0),
        "storage.files_written": counts.get("storage.files_written", 0),
        "storage.read_s": vlayers.get("storage.read", 0.0),
        "storage.bytes_read": counts.get("storage.bytes_read", 0),
        "verify.check_s": vlayers.get("verify.check", 0.0),
        "incompressible.run_s": layers.get("incompressible.run", 0.0),
        "incompressible.steps": counts.get("incompressible.steps", 0),
        "operators.poisson_s": layers.get("operators.poisson", 0.0),
        "operators.poisson_solves": counts.get("operators.poisson_solves", 0),
        "diagnostics.metrics_s": layers.get("diagnostics.metrics", 0.0),
    })
    for eps in EPS_KEYS:
        out[f"sweep.member_s.{eps}"] = layers.get(f"sweep.member.{eps}", 0.0)
    out["sweep.self_s"] = layers.get("sweep.self", 0.0)
    out["trace.wall_s"] = traced["traced_wall_s"]
    out["trace.overhead_s"] = overhead_s
    return out


def self_time_gap(traced: dict) -> float:
    """Traced wall time minus the sum of every layer's self time."""
    total = sum(v for k, v in traced["layers"].items() if not k.startswith("sweep.member."))
    return traced["traced_wall_s"] - total


# -- iterations ---------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MACHLAB_WORKERS"}
    env["PYTHONPATH"] = str(REPO / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cfg_path: Path, run_dir: Path, mode: str, spans_file: Path | None,
              timeout: float):
    """One child process in `mode` (setup, run or trace); returns
    (result or None, error text or None)."""
    spawn = time.monotonic()
    cmd = [sys.executable, str(CHILD), str(cfg_path), str(run_dir), repr(spawn), mode,
           str(spans_file) if spans_file else ""]
    try:
        proc = subprocess.run(cmd, cwd=REPO, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"iteration exceeded {timeout:.0f} s"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running iteration before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (REPO / "src" / "machlab" / "__init__.py").is_file():
        print(f"error: no machlab package under {REPO / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if not (REPO / "configs" / workload.base).is_file():
        print(f"error: missing configs/{workload.base}", file=sys.stderr)
        return 2
    reference = None
    if workload.reference is not None:
        reference = workload.reference.read_text()

    seed = args.seed % 2**32
    WORK.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-{os.getpid()}"
    cfg_path = WORK / f"{tag}.cfg"
    cfg_path.write_text(workload.config_text(seed))
    spans_dir = WORK / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_file = spans_dir / f"{workload.name}-seed{seed}.json"

    untraced, traced, errors, setup_probes = [], [], [], []
    seen = {}
    failed = 0
    start = time.monotonic()
    durations = []
    i = 0
    try:
        while True:
            want_trace = bool(args.trace) and i % 2 == 1
            elapsed = time.monotonic() - start
            typical = statistics.median(durations) if durations else 0.0
            enough = len(untraced) >= (MIN_TRACED if args.trace else MIN_UNTRACED) and (
                not args.trace or len(traced) >= MIN_TRACED)
            if (enough or failed) and elapsed + typical > args.seconds:
                break
            if durations and elapsed + 1.5 * max(durations) > RUN_DEADLINE_S:
                break
            t0 = time.monotonic()
            run_dir = WORK / f"{tag}-run{i}"
            timeout = min(CHILD_TIMEOUT_S, RUN_DEADLINE_S - elapsed)
            result, error = None, None
            if not args.trace:
                # one extra set-up sample per iteration steadies setup_s
                probe, error = run_child(cfg_path, run_dir, "setup", None, timeout)
                if probe is not None:
                    setup_probes.append(probe["setup_s"])
            if error is None:
                result, error = run_child(
                    cfg_path, run_dir, "trace" if want_trace else "run",
                    spans_file if want_trace and not traced else None, timeout,
                )
            durations.append(time.monotonic() - t0)
            i += 1
            if result is None:
                failed += 1
                errors.append(error)
                continue
            problems = check_iteration(result, reference)
            for key, value in exact_counts(result).items():
                if seen.setdefault(key, value) != value:
                    problems.append(f"{key} did not repeat: {value} vs {seen[key]}")
            if want_trace:
                gap = self_time_gap(result)
                if abs(gap) > 1e-6 * result["traced_wall_s"]:
                    problems.append(f"layer self times miss the traced wall by {gap:.3g} s")
            result["index"] = i
            if problems:
                failed += 1
                errors.extend(problems)
                continue
            (traced if want_trace else untraced).append(result)
    finally:
        cfg_path.unlink(missing_ok=True)

    attempted = i
    for err in errors:
        print(f"failure: {err}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no iteration completed its checks", file=sys.stderr)
        return 1

    if args.trace:
        order = sorted(traced, key=lambda r: r["traced_wall_s"])
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in untraced))
        values = per_layer_metrics(order[(len(order) - 1) // 2], overhead)
        wanted = spec["per_layer"]
    else:
        values = end_to_end_metrics(untraced, setup_probes)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print("error: computed metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {workload.name} seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced iterations, {failed} failed of {attempted}, "
          f"BLAS threads {untraced[0]['blas_threads']}")
    print("wall_s per iteration (T = traced): " + " ".join(
        f"{r['wall_s']:.3f}{'T' if 'layers' in r else ''}"
        for r in sorted(untraced + traced, key=lambda r: r["index"])))
    if args.trace:
        print(f"spans written to {spans_file.relative_to(REPO)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
