"""Self-tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from machlab.config import parse_config, validate  # noqa: E402
from machlab.geometry import build_grid  # noqa: E402
from machlab.sweep import initial_velocity  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- span arithmetic ----------------------------------------------------------


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 5.0, 9.0, 0),
             ("c", 6.0, 8.0, 2)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert sum(self_times(spans)) == 10.0


def test_layer_self_times_split_by_root_and_sum_to_wall():
    tracer = Tracer("synthetic")
    tracer.spans = [
        ["sweep.run", 0.0, 10.0, -1, None],
        ["sweep.member", 1.0, 6.0, 0, 0.2],
        ["compressible.run", 1.5, 5.5, 1, None],
        ["compressible.step", 2.0, 4.0, 2, None],
        ["spectral.eigensolve", 7.0, 8.0, 0, None],
        ["verify.run", 11.0, 12.0, -1, None],
        ["storage.read", 11.25, 11.5, 5, None],
    ]
    layers = tracer.layer_self_times("sweep.run")
    assert layers == {
        "sweep.self": 4.0 + 1.0,
        "sweep.member.0.2": 5.0,
        "compressible.ledger": 2.0,
        "compressible.step": 2.0,
        "spectral.eigensolve": 1.0,
    }
    traced = {"layers": layers, "traced_wall_s": tracer.root_duration("sweep.run")}
    assert run.self_time_gap(traced) == 0.0
    assert tracer.layer_self_times("verify.run") == {"verify.check": 0.75,
                                                     "storage.read": 0.25}


def test_wrap_records_nesting_and_counts():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return 2 * x

    tracer = Tracer("synthetic")
    tracer.wrap(Layer, "outer", "compressible.run")
    tracer.wrap(Layer, "inner", "compressible.step",
                observe=lambda args, kwargs, result: tracer._count("calls"))
    assert Layer().outer(3) == 7
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("compressible.run", -1), ("compressible.step", 0)]
    assert tracer.counts["calls"] == 1


# -- output check ---------------------------------------------------------------


def _perturb(text, row, col, factor):
    lines = [line.split(",") for line in text.strip().splitlines()]
    lines[row][col] = repr(float(lines[row][col]) * factor)
    return "\n".join(",".join(cells) for cells in lines) + "\n"


def test_output_check_accepts_reference_and_rejects_perturbation():
    ref = WORKLOADS["sweep-default"].reference.read_text()
    assert run.compare_summary(ref, ref) == []
    assert run.compare_summary(_perturb(ref, 2, 2, 1.0 + 1e-10), ref) == []
    problems = run.compare_summary(_perturb(ref, 2, 2, 1.0 + 1e-6), ref)
    assert len(problems) == 1 and "velocity_gap" in problems[0]
    flipped = ref.replace(",1\n", ",0\n", 1)
    assert run.compare_summary(flipped, ref)
    assert run.compare_summary(ref.replace("0.025,", "0.03,"), ref)


def test_iteration_check_requires_verify_all_pass():
    ref = WORKLOADS["spectral-decay"].reference.read_text()
    result = {"verify_ok": False, "verify_failures": ["energy_flags (all)"],
              "summary_csv": ref}
    assert run.check_iteration(result, ref) == ["verify_run failed: energy_flags (all)"]
    result.update(verify_ok=True, verify_failures=[])
    assert run.check_iteration(result, ref) == []
    assert run.check_iteration(result, None) == []


# -- metric names -----------------------------------------------------------------


def test_metric_names_are_valid_and_match_the_code():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    names = e2e + layer + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)

    result = {"wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0,
              "run_dir_bytes": 10}
    assert set(run.end_to_end_metrics([result], [1.0])) == set(e2e)
    traced = {"layers": {}, "verify_layers": {}, "counts": {}, "traced_wall_s": 1.0,
              "dt": {"0.2": [3, 0.1, 0.2]}}
    assert set(run.per_layer_metrics(traced, 0.0)) == set(layer)


# -- workloads ----------------------------------------------------------------------


def test_stiff_static_generator_is_valid_and_seeded():
    stiff = WORKLOADS["stiff-static"]
    cfgs = [parse_config(stiff.config_text(seed)) for seed in (0, 1)]
    for cfg in cfgs:
        assert validate(cfg) == []
        assert cfg["motion"]["kind"] == "static"
        assert cfg["initial"]["velocity_kind"] == "random"
        assert cfg["sweep"]["eps"] == (0.2, 0.025)
    assert cfgs[0].digest() != cfgs[1].digest()

    g = cfgs[0]["geometry"]
    grid = build_grid(g["dimension"], g["extent"], g["obstacle_radius"], g["cell_size"])
    u0, _ = initial_velocity(cfgs[0], grid, np.random.default_rng(cfgs[0]["run"]["seed"]))
    u1, _ = initial_velocity(cfgs[1], grid, np.random.default_rng(cfgs[1]["run"]["seed"]))
    assert not np.array_equal(u0, u1)


def test_unseeded_workloads_ignore_the_seed_and_have_references():
    for workload in WORKLOADS.values():
        if workload.seeded:
            continue
        assert workload.config_text(0) == workload.config_text(7)
        assert validate(parse_config(workload.config_text(0))) == []
        assert workload.reference.is_file()
