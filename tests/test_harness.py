import ast
import dataclasses
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest

from machlab import spectral as sp
from machlab import sweep, verify
from machlab.cli import main as cli_main
from machlab.compressible import CompressibleSolver, EnergyLedger, FluidState
from machlab.config import SCHEMA, canonical_text, parse_config
from machlab.diagnostics import observation_probes
from machlab.errors import (
    ConfigParseError,
    ConfigValidationError,
    EigensolverFailure,
    IncompleteRun,
    MissingArtifact,
    NanDetected,
    SnapshotFormatError,
    VacuumState,
)
from machlab.geometry import build_grid, lifting_sample
from machlab.incompressible import IncompressibleSolver
from machlab.storage import (
    check_artifacts,
    read_csv,
    read_manifest,
    read_snapshot,
    write_csv,
    write_manifest,
    write_snapshot,
)
from machlab.sweep import (
    SUMMARY_HEADER,
    _eps_dirname,
    build_scenario,
    run_sweep,
    sample_schedule,
)
from machlab.verify import stored_acoustic_pair, verify_run

from conftest import MINI_CFG, SINUSOIDAL_MINI_CFG, STATIC_MINI_CFG, face_masks


class TestConfig:
    def test_minimal_round_trips(self):
        cfg = parse_config("")
        text = canonical_text(cfg)
        assert canonical_text(parse_config(text)) == text

    def test_defaults_filled(self):
        cfg = parse_config("")
        assert cfg.get("physics", "gamma") == 2.0
        assert cfg.get("numerics", "sponge_width") == 0.5  # extent / 4

    def test_gamma_below_three_halves_rejected(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config("[physics]\ngamma = 1.4\n")
        assert any("gamma" in v for v in err.value.violations)

    def test_eps_must_decrease(self):
        with pytest.raises(ConfigValidationError) as err:
            parse_config("[sweep]\neps = 0.1, 0.2\n")
        assert any("decreasing" in v for v in err.value.violations)

    def test_all_violations_reported(self):
        bad = "[physics]\ngamma = 1.0\nshear_viscosity = -1\n[sweep]\neps = 0.1, 0.2\n"
        with pytest.raises(ConfigValidationError) as err:
            parse_config(bad)
        assert len(err.value.violations) >= 3

    def test_parse_error_has_position(self):
        with pytest.raises(ConfigParseError) as err:
            parse_config("[physics]\ngamma = sideways\n")
        assert err.value.line == 2
        with pytest.raises(ConfigParseError):
            parse_config("[nonsense]\n")
        with pytest.raises(ConfigParseError):
            parse_config("[physics]\nunknown_key = 3\n")
        with pytest.raises(ConfigParseError):
            parse_config("gamma = 2\n")  # entry before a section

    @pytest.mark.parametrize("section, key", [
        ("motion", "horizon"), ("initial", "data_bound"), ("numerics", "tol_div"),
        ("numerics", "lifting_radius"), ("spectral", "quadrature_factor"),
        ("spectral", "reflection_safety"), ("numerics", "cfl"), ("numerics", "tol_energy"),
    ])
    def test_removed_key_unknown(self, section, key):
        # one-value or derived-only settings are constants next to their readers
        with pytest.raises(ConfigParseError, match="unknown key"):
            parse_config(f"[{section}]\n{key} = 1\n")

    def test_every_key_is_read(self):
        # a key no module subscripts is dead: no run can vary what it sets
        # (the check matches key names, not their sections)
        src = Path(__file__).resolve().parents[1] / "src" / "machlab"
        read = set()
        for path in src.glob("*.py"):
            if path.name == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                        and isinstance(node.slice.value, str)):
                    read.add(node.slice.value)
        unread = [f"[{sec}] {key}" for sec, keys in SCHEMA.items()
                  for key in keys if key not in read]
        assert not unread

    def test_every_error_is_raised(self):
        # an error type no module raises is dead: no run can meet it
        src = Path(__file__).resolve().parents[1] / "src" / "machlab"
        raised = set()
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name):
                        raised.add(exc.id)
        declared = [node.name for node in ast.parse((src / "errors.py").read_text()).body
                    if isinstance(node, ast.ClassDef) and node.name != "MachlabError"]
        assert len(declared) > 10
        assert [name for name in declared if name not in raised] == []

    def test_every_function_is_read(self):
        # a function or method no module reads is dead: no run calls it.
        # The package's exports do not count as readers, the benchmark's
        # tracer does (it wraps functions by name); the four names kept
        # for acceptance criteria 4, 10b and 10c have no run reader yet
        kept = {"wave_propagate", "acoustic_energy", "duhamel_solve", "stored_acoustic_pair"}
        root = Path(__file__).resolve().parents[1]
        defined, read = set(), set()
        for path in (root / "src" / "machlab").glob("*.py"):
            tree = ast.parse(path.read_text())
            defined |= {node.name for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            if path.name != "__init__.py":
                read |= {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                read |= {node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(ast.parse((root / "perfbench" / "spans.py").read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
        assert len(defined) > 100
        unread = {name for name in defined - read
                  if not (name.startswith("__") and name.endswith("__"))}
        assert unread == kept

    def test_every_grid_attribute_is_read(self):
        # an attribute Grid or ComponentMasks sets that no module reads is a
        # dead copy beside the masks the kernels read (the check matches
        # attribute names, not their owners)
        src = Path(__file__).resolve().parents[1] / "src" / "machlab"
        trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
        read = {node.attr for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        assigned = []
        for module, owner in (("geometry.py", "Grid"), ("operators.py", "ComponentMasks")):
            cls = next(node for node in trees[module].body
                       if isinstance(node, ast.ClassDef) and node.name == owner)
            assigned += [f"{owner}.{node.attr}" for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self"]
        assert len(assigned) > 20
        assert [name for name in assigned if name.split(".")[1] not in read] == []

    @pytest.mark.parametrize("text, line", [
        ("[schedule]\nhorizon = inf\n", 2),  # the run would never end
        ("[geometry]\nextent = nan\n", 2),
        ("[sweep]\neps = 0.2, -inf\n", 2),
        ("[physics]\n\nshear_viscosity = NaN\n", 3),
    ])
    def test_non_finite_number_refused(self, text, line):
        with pytest.raises(ConfigParseError, match="is not finite") as err:
            parse_config(text)
        assert err.value.line == line

    def test_validation_error_survives_pickling(self):
        # a pool worker's error reaches the parent pickled
        err = pickle.loads(pickle.dumps(ConfigValidationError(["first", "second"])))
        assert err.violations == ["first", "second"]
        assert str(err) == "invalid config:\n  first\n  second"

    def test_cell_cap_counts_active_cells(self):
        # a 129x129 box holds 16641 cells; the disk leaves 16336 of them
        # active with radius 10 (under the 128**2 cap), 16448 with radius 8
        geometry = "[geometry]\nextent = 64.5\ncell_size = 1.0\nobstacle_radius = "
        assert parse_config(geometry + "10.0\n")["geometry"]["extent"] == 64.5
        with pytest.raises(ConfigValidationError, match="grid has 16448 active cells"):
            parse_config(geometry + "8.0\n")

    def test_digest_stable(self):
        assert parse_config("").digest() == parse_config("").digest()
        other = parse_config("[run]\nseed = 5\n")
        assert other.digest() != parse_config("").digest()


def _spoil_snapshot(path, defect):
    """Overwrite a snapshot with one that read_snapshot must refuse."""
    if defect == "v1_text":
        path.write_text("# machlab snapshot v1\ndimension 2\ntime 0.0\n")
    elif defect == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif defect == "bit_flip":  # in a field's data: the zip CRC catches it
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
    elif defect == "no_time":
        with path.open("wb") as fh:
            np.savez(fh, rho=np.ones((4, 4)))
    else:  # a pickled (object) array
        with path.open("wb") as fh:
            np.savez(fh, time=np.float64(0.0), rho=np.array([None, 1.0], dtype=object))


SPOILED = ["v1_text", "truncated", "bit_flip", "no_time", "pickled"]


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        rng = np.random.default_rng(0)
        fields = {
            "rho": rng.random((grid.nx, grid.ny)),
            "u": rng.random((grid.nx + 1, grid.ny)),
        }
        path = tmp_path / "snap.dat"
        write_snapshot(path, 0.125, fields)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.dat"]
        meta, back = read_snapshot(path)
        assert meta == {"time": 0.125}
        assert list(back) == list(fields)
        for name in fields:
            assert np.array_equal(back[name], fields[name]), name

    def test_bytes_depend_on_values_only(self, tmp_path):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        rho = np.random.default_rng(1).random((grid.nx, grid.ny))
        first, second = tmp_path / "a.dat", tmp_path / "b.dat"
        write_snapshot(first, 0.5, {"rho": rho})
        write_snapshot(second, 0.5, {"rho": np.asfortranarray(rho)})
        assert first.read_bytes() == second.read_bytes()
        # the zip entries carry a fixed date, not the time of writing
        with zipfile.ZipFile(first) as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    @pytest.mark.parametrize("defect", SPOILED)
    def test_malformed_refused(self, defect, tmp_path):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        path = tmp_path / "snap.dat"
        write_snapshot(path, 0.0, {"rho": np.ones((grid.nx, grid.ny))})
        _spoil_snapshot(path, defect)
        with pytest.raises(SnapshotFormatError, match="not a machlab v2 snapshot") as err:
            read_snapshot(path)
        assert isinstance(err.value, ValueError)
        assert str(path) in str(err.value)


class TestSweep:
    def test_zero_horizon_run(self, tmp_path):
        cfg = parse_config(
            MINI_CFG.replace("horizon = 0.08", "horizon = 0.0")
            .replace("snapshots = 5", "snapshots = 1")
        )
        result = run_sweep(cfg, tmp_path / "zero")
        assert Path(result["out_dir"], "manifest.json").exists()
        for row in result["summary"]:
            assert row[2] == pytest.approx(0.0, abs=1e-12)  # velocity gap
        _, rows = read_csv(Path(result["out_dir"]) / "rage.csv")
        assert all(float(r[1]) == 0.0 for r in rows)
        # an all-zero D column is right on an empty horizon
        check = next(c for c in verify_run(result["out_dir"])["checks"]
                     if c["name"] == "rage_decay_decreasing")
        assert check["passed"] and check["context"] == "sweep"

    def test_determinism_byte_identical(self, mini_cfg, mini_run, tmp_path):
        again = run_sweep(mini_cfg, tmp_path / "again")
        for name in ("metrics.csv", "energy.csv", "summary.csv", "rage.csv"):
            a = (Path(mini_run["out_dir"]) / name).read_bytes()
            b = (Path(again["out_dir"]) / name).read_bytes()
            assert a == b, name

    def test_snapshot_schedule_matches_config(self, mini_cfg, mini_run):
        out = Path(mini_run["out_dir"])
        snaps = sorted((out / "eps_0p2").glob("snap_*.dat"))
        assert len(snaps) == mini_cfg.get("schedule", "snapshots")
        times = [read_snapshot(p)[0]["time"] for p in snaps]
        np.testing.assert_allclose(
            times, np.linspace(0.0, 0.08, 5), atol=1e-12
        )

    def test_every_stored_field_is_read(self, mini_run):
        # a snapshot field no reader reads is dead weight in every run
        # directory; verify's readers name the fields they read in their
        # calls of its one snapshot reader
        out = Path(mini_run["out_dir"])
        stored = {}
        for path in out.rglob("snap_*.dat"):
            stored.setdefault(path.parent.name, set()).update(read_snapshot(path)[1])
        assert stored == {"eps_0p2": {"rho", "u", "v"}, "eps_0p1": {"rho", "u", "v"},
                          "reference": {"u", "v"}}
        tree = ast.parse(Path(verify.__file__).read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_snapshot_fields"]
        assert len(calls) == 3
        read = {elt.value for call in calls for elt in call.args[2].elts}
        assert {"rho", "u", "v"} <= read

    @pytest.mark.parametrize("run, text", [("mini_run", MINI_CFG),
                                           ("sinusoidal_mini_run", SINUSOIDAL_MINI_CFG),
                                           ("static_mini_run", STATIC_MINI_CFG)],
                             ids=["mini", "sinusoidal", "static"])
    def test_worker_pool_matches_sequential(self, run, text, tmp_path, monkeypatch,
                                            request):
        # the session's runs pool their two members wherever two CPUs are
        # usable; the sinusoidal run adds the lifting's time derivative, the
        # static run books its dissipation from the steps' viscous work alone
        pooled = request.getfixturevalue(run)
        monkeypatch.setenv("MACHLAB_WORKERS", "1")
        sequential = run_sweep(parse_config(text), tmp_path / "sequential")

        def files(root):
            return sorted(p.relative_to(root) for p in Path(root).rglob("*")
                          if p.is_file())

        names = files(pooled["out_dir"])
        assert files(sequential["out_dir"]) == names
        assert Path("eps_0p1", "snap_004.dat") in names
        for name in names:
            a = (Path(pooled["out_dir"]) / name).read_bytes()
            b = (Path(sequential["out_dir"]) / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_default_worker_count(self, cpus, monkeypatch):
        # one worker per member, up to the CPUs this process may run on
        monkeypatch.delenv("MACHLAB_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert [sweep._worker_count(m) for m in (1, 2, 4)] == [min(m, cpus) for m in (1, 2, 4)]
        # an override above the member count is capped: the pool starts all
        # its workers up front, so the extra ones would only repeat set-up
        monkeypatch.setenv("MACHLAB_WORKERS", "3")
        assert [sweep._worker_count(m) for m in (2, 4)] == [2, 3]
        # without an affinity mask the machine's CPU count is used
        monkeypatch.delenv("MACHLAB_WORKERS")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sweep._worker_count(4) == min(4, cpus)

    def test_one_member_builds_no_pool(self, mini_cfg, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-member sweep built a process pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        cfg = parse_config(MINI_CFG.replace("eps = 0.2, 0.1", "eps = 0.2"))
        for workers in (None, "4"):  # an override is capped at one member
            if workers is None:
                monkeypatch.delenv("MACHLAB_WORKERS", raising=False)
            else:
                monkeypatch.setenv("MACHLAB_WORKERS", workers)
            result = run_sweep(cfg, tmp_path / f"one{workers}")
            assert [row[0] for row in result["summary"]] == [0.2]

    def test_failing_member_stops_pool(self, tmp_path, monkeypatch, capsys):
        # the eps = 0.2 member fails mid-run, while eps = 0.1, started first
        # in the pool, would run for a minute (forked workers inherit the
        # patch); the pool stops it, fails like the in-process sweep and
        # leaves no worker behind
        def failing_member(scenario, dec, eps, *args):
            if eps == 0.1:
                time.sleep(60)
            raise VacuumState(f"density vanished in the eps = {eps:g} member")

        monkeypatch.setattr(sweep, "run_one_eps", failing_member)
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(MINI_CFG)
        errors = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MACHLAB_WORKERS", workers)
            out = tmp_path / f"o{workers}"
            start = time.monotonic()
            assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
            assert time.monotonic() - start < 30
            errors.append(capsys.readouterr().err)
            assert not (out / "manifest.json").exists()
            assert multiprocessing.active_children() == []
        assert errors[0] == "numerical failure: density vanished in the eps = 0.2 member\n"
        assert errors[1] == errors[0]

    def test_vacuum_member_refused_before_eigensolve(self, tmp_path, monkeypatch,
                                                     capsys):
        # 1 + 0.2 * -6 < 0: the eps = 0.2 member's initial data meet vacuum;
        # the parent checks every member's data first, so the sweep fails
        # with that member's error, pooled or not, before the eigensolve,
        # the pool and the run directory
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep went past the member check")

        monkeypatch.setattr(sp, "spectral_decompose", refuse)
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", refuse)
        cfgfile = tmp_path / "vacuum.cfg"
        cfgfile.write_text(MINI_CFG + "\n[initial]\npulse_amplitude = -6\n")
        errors = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MACHLAB_WORKERS", workers)
            out = tmp_path / f"o{workers}"
            assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == "numerical failure: initial density is not positive everywhere\n"
        assert errors[1] == errors[0]

    def test_member_reduced_before_next_starts(self, mini_cfg, tmp_path, monkeypatch):
        # each member steps inside run_one_eps in one pass over its samples:
        # at every yield at most two of its sampled states are alive, the
        # one just yielded and the one the loop still holds, and none is
        # left when the next member starts, since a stepped member comes
        # back as its ledgers and the parent reads its states back from the
        # snapshots; the members run in this process, where the patches
        # record
        monkeypatch.setenv("MACHLAB_WORKERS", "1")
        members = []
        solver_run = CompressibleSolver.run
        run_member = sweep.run_one_eps

        def tracked(samples):
            states = []
            members.append(states)
            for state, ledger in samples:
                states.append(weakref.ref(state))
                assert sum(ref() is not None for ref in states) <= 2, len(states)
                yield state, ledger

        def tracked_run(self, *args, **kwargs):
            # returns at once, so it pins no argument, the initial state
            return tracked(solver_run(self, *args, **kwargs))

        def tracked_member(scenario, out_dir, eps):
            assert all(ref() is None for states in members for ref in states), eps
            return run_member(scenario, out_dir, eps)

        monkeypatch.setattr(CompressibleSolver, "run", tracked_run)
        monkeypatch.setattr(sweep, "run_one_eps", tracked_member)
        run_sweep(mini_cfg, tmp_path / "reduced")
        assert [len(states) for states in members] == [5] * len(mini_cfg["sweep"]["eps"])
        assert all(ref() is None for states in members for ref in states)

    def test_pool_job_returns_only_rows(self, mini_cfg, tmp_path, monkeypatch):
        # a worker receives the canonical config text and the run directory
        # only, no eigenpairs and no reference, and sends back the member's
        # running per-step integrals at each sample time only: no array, no
        # state and no mass row, which the parent takes from the snapshots
        started = []

        class PoolStarted(Exception):
            pass

        def record(**kwargs):
            started.append(kwargs["initargs"])
            raise PoolStarted

        monkeypatch.setenv("MACHLAB_WORKERS", "2")
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", record)
        out = tmp_path / "run"
        with pytest.raises(PoolStarted):
            run_sweep(mini_cfg, out)
        [initargs] = started
        assert initargs == (canonical_text(mini_cfg), out)
        assert len(pickle.dumps(initargs)) < 4 * 1024
        monkeypatch.setattr(sweep, "_worker_setup", None)
        sweep._init_worker(*initargs)
        result = sweep._run_one_eps_job(0.2)

        assert isinstance(result, list) and len(result) == 5
        for ledger in result:
            assert type(ledger) is EnergyLedger
            assert [f.name for f in dataclasses.fields(ledger)] == [
                "dissipation", "v_work", "sponge_mass"]
            assert all(type(value) is float for value in dataclasses.astuple(ledger))
        assert len(pickle.dumps(result)) < 1024
        assert (out / "eps_0p2" / "snap_004.dat").exists()

    @pytest.mark.parametrize("stage, error", [
        ("eigensolve", EigensolverFailure("ARPACK did not converge for sector 2")),
        ("reference", NanDetected("non-finite velocity at t = 0.04")),
    ])
    def test_parent_failure_stops_pool(self, stage, error, tmp_path, monkeypatch, capsys):
        # the parent solves the eigenproblem and runs the reference while
        # the members step; either failing fails the started run as a
        # failing member does: exit 1 with the same stderr line pooled or
        # not, no worker left behind and no manifest
        def fail(*args, **kwargs):
            raise error

        if stage == "eigensolve":
            monkeypatch.setattr(sp, "spectral_decompose", fail)
        else:
            monkeypatch.setattr(IncompressibleSolver, "run", fail)
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(MINI_CFG)
        errors = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MACHLAB_WORKERS", workers)
            out = tmp_path / f"o{workers}"
            assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert (out / "config.txt").exists()
            assert not (out / "manifest.json").exists()
            assert multiprocessing.active_children() == []
        assert errors[0] == f"numerical failure: {error}\n"
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("shape", [(129, 129), (128, 128), (33, 33), (32, 32)])
    def test_gaussian_smooth_matches_ndimage(self, shape):
        from scipy.ndimage import gaussian_filter

        for seed in range(4):
            x = np.random.default_rng(seed).standard_normal(shape)
            np.testing.assert_array_equal(sweep.gaussian_smooth(x, 4.0),
                                          gaussian_filter(x, 4.0))

    def test_random_velocity_leaves_ndimage_unimported(self):
        # scipy.ndimage pulls in scipy.special, which a fresh process would
        # pay for in time and memory just to smooth the random fields
        code = (
            "import sys\n"
            "from machlab.config import parse_config\n"
            "from machlab.sweep import build_scenario\n"
            f"sc = build_scenario(parse_config({STATIC_MINI_CFG!r}))\n"
            "rho1, u0, v0 = sc.initial_fields\n"
            "assert abs(u0).max() > 0.0\n"
            "print('scipy.ndimage' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestVerify:
    @pytest.mark.parametrize("run", ["mini_run", "sinusoidal_mini_run"])
    def test_fresh_run_all_pass(self, run, request):
        report = verify_run(request.getfixturevalue(run)["out_dir"])
        assert report["ok"], [c for c in report["checks"] if not c["passed"]]

    @staticmethod
    def _silenced_spectral_run(out, extra=""):
        """A spectral mini run whose rage.csv reads D = 0 at every eps while
        T > 0, as a silent probe would write, under a matching manifest."""
        cfg = parse_config(MINI_CFG + "\n[run]\nscenario = spectral\n" + extra)
        run_dir = Path(run_sweep(cfg, out)["out_dir"])
        header, rows = read_csv(run_dir / "rage.csv")
        assert all(float(r[1]) > 0.0 and float(r[2]) > 0.0 for r in rows)
        write_csv(run_dir / "rage.csv", header, [[r[0], 0.0, *r[2:]] for r in rows])
        write_manifest(run_dir, read_manifest(run_dir)["config_digest"])
        return run_dir

    @staticmethod
    def _rage_check(report):
        assert next(c for c in report["checks"] if c["name"] == "artifact_digests")["passed"]
        return next(c for c in report["checks"] if c["name"] == "rage_decay_decreasing")

    def test_silent_probe_fails_rage_check(self, tmp_path):
        # an identically zero probe gives D = 0 at every eps while T > 0,
        # which measures no decay (run_sweep refuses such a probe, so the
        # table is written by hand)
        report = verify_run(self._silenced_spectral_run(tmp_path / "silent"))
        check = self._rage_check(report)
        assert not check["passed"], check
        assert check["context"] == "sweep: D = 0 at every eps while T > 0"
        assert not report["ok"]

    def test_one_row_rage_table_checked(self, tmp_path):
        # a single-eps sweep's rage.csv gets the same check: it passes with
        # its D > 0 and fails once D reads 0 at T > 0
        one_eps = "[sweep]\neps = 0.2\n"
        cfg = parse_config(MINI_CFG + "\n[run]\nscenario = spectral\n" + one_eps)
        check = self._rage_check(verify_run(run_sweep(cfg, tmp_path / "one")["out_dir"]))
        assert check["passed"], check
        report = verify_run(self._silenced_spectral_run(tmp_path / "silent", one_eps))
        check = self._rage_check(report)
        assert not check["passed"], check
        assert check["context"] == "sweep: D = 0 at every eps while T > 0"
        assert not report["ok"]

    def _copy(self, src, tmp_path, name):
        dst = tmp_path / name
        shutil.copytree(src, dst)
        return dst

    def test_missing_snapshot_named(self, mini_run, tmp_path):
        broken = self._copy(mini_run["out_dir"], tmp_path, "missing")
        victim = next(iter((broken / "eps_0p2").glob("snap_*.dat")))
        victim.unlink()
        with pytest.raises(MissingArtifact) as err:
            verify_run(broken)
        assert victim.name in str(err.value)

    def test_missing_snapshots_fail_count(self, mini_run, tmp_path):
        # a member's folder and the reference's gone and one snapshot of
        # the other member, under a manifest that agrees: no artifact is
        # missing, yet each shortfall fails its snapshot count, by name
        broken = self._copy(mini_run["out_dir"], tmp_path, "dropped")
        shutil.rmtree(broken / "eps_0p1")
        shutil.rmtree(broken / "reference")
        (broken / "eps_0p2" / "snap_004.dat").unlink()
        write_manifest(broken, read_manifest(broken)["config_digest"])
        report = verify_run(broken)
        assert not report["ok"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert {c["name"] for c in failed} == {"snapshot_count"}
        assert sorted(c["context"] for c in failed) == [
            "eps=0.1: 0 snapshots stored for 5 sample times",
            "eps=0.2: 4 snapshots stored for 5 sample times",
            "reference: 0 snapshots stored for 5 sample times",
        ]

    @pytest.mark.parametrize("table, kept, failure", [
        ("mass.csv", lambda row: row[1] != "0.1",
         ("mass_accounting", "eps=0.1: mass.csv has 0 rows for 5 sample times")),
        ("rage.csv", lambda row: False,
         ("eps_rows", "rage.csv: rows at eps (none) for the configured 0.2, 0.1")),
        ("summary.csv", lambda row: row[0] == "0.2",
         ("eps_rows", "summary.csv: rows at eps 0.2 for the configured 0.2, 0.1")),
    ], ids=["mass-member", "rage-all", "summary-member"])
    def test_missing_rows_fail(self, table, kept, failure, mini_run, tmp_path):
        # rows of a table dropped under a manifest that agrees: the check
        # that read them must fail, naming the gap, instead of passing over
        # the member whose rows are gone
        broken = self._copy(mini_run["out_dir"], tmp_path, "rows")
        header, rows = read_csv(broken / table)
        left = [row for row in rows if kept(row)]
        assert len(left) < len(rows)
        write_csv(broken / table, header, left)
        write_manifest(broken, read_manifest(broken)["config_digest"])
        report = verify_run(broken)
        assert [(c["name"], c["context"]) for c in report["checks"]
                if not c["passed"]] == [failure]

    def test_eps_matched_by_written_text(self, tmp_path):
        # the tables write eps to 12 significant digits: a member whose eps
        # has more is matched to its rows by that text, and its fresh run
        # verifies
        cfg = parse_config(MINI_CFG + "\n[sweep]\neps = 0.2, 0.1000000000001\n")
        assert cfg["sweep"]["eps"][1] != 0.1
        report = verify_run(run_sweep(cfg, tmp_path / "long-eps")["out_dir"])
        assert report["ok"], [c for c in report["checks"] if not c["passed"]]
        names = [c["name"] for c in report["checks"]]
        assert names.count("mass_accounting") == 2 and names.count("eps_rows") == 2

    def test_every_missing_file_named(self, mini_run, tmp_path):
        broken = self._copy(mini_run["out_dir"], tmp_path, "missing-two")
        assert check_artifacts(broken, read_manifest(broken)) is None
        victims = [broken / "eps_0p1" / "snap_001.dat", broken / "energy.csv"]
        for victim in victims:
            victim.unlink()
        with pytest.raises(MissingArtifact) as err:
            check_artifacts(broken, read_manifest(broken))
        for victim in victims:
            assert str(victim.relative_to(broken)) in str(err.value)

    def test_old_extra_fields_still_verify(self, mini_cfg, mini_run, tmp_path):
        # snapshots holding fields beyond the ones verify reads (r, psi, a
        # reference pressure, as older runs stored) still verify
        old = self._copy(mini_run["out_dir"], tmp_path, "old")
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        for eps in mini_cfg["sweep"]["eps"]:
            for i, path in enumerate(sorted((old / _eps_dirname(eps)).glob("snap_*.dat"))):
                meta, fields = read_snapshot(path)
                ac = stored_acoustic_pair(old, eps, i)
                write_snapshot(path, meta["time"], {**fields, "r": ac.r, "psi": ac.psi})
        for path in (old / "reference").glob("snap_*.dat"):
            meta, fields = read_snapshot(path)
            pressure = np.zeros((grid.nx, grid.ny))
            write_snapshot(path, meta["time"], {**fields, "pressure": pressure})
        write_manifest(old, mini_cfg.digest())
        assert set(read_snapshot(old / "eps_0p1" / "snap_004.dat")[1]) == {
            "rho", "u", "v", "r", "psi"}
        report = verify_run(old)
        assert report["ok"], [c for c in report["checks"] if not c["passed"]]

    def test_no_manifest_refused(self, mini_run, tmp_path):
        broken = self._copy(mini_run["out_dir"], tmp_path, "incomplete")
        (broken / "manifest.json").unlink()
        with pytest.raises(IncompleteRun):
            verify_run(broken)

    def test_corrupted_density_detected(self, mini_run, tmp_path):
        broken = self._copy(mini_run["out_dir"], tmp_path, "corrupt")
        victim = sorted((broken / "eps_0p2").glob("snap_*.dat"))[-1]
        meta, fields = read_snapshot(victim)
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        fields["rho"][grid.nx // 2, grid.ny // 4] = 25.0  # unphysical spike
        write_snapshot(victim, meta["time"], fields)
        # a manifest that agrees with the spike leaves the physics to notice
        write_manifest(broken, read_manifest(broken)["config_digest"])
        report = verify_run(broken)
        assert not report["ok"]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "artifact_digests" not in failed
        assert failed & {"energy_snapshot_consistent", "density_positive",
                         "far_field_quiet"}

    def test_moved_obstacle_face_fails_slip(self, mini_run, tmp_path):
        # one obstacle face of a stored u moved by 1e-6, under a manifest
        # that agrees with it: the body no longer carries the fluid there
        broken = self._copy(mini_run["out_dir"], tmp_path, "slip")
        victim = broken / "eps_0p1" / "snap_002.dat"
        meta, fields = read_snapshot(victim)
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        face = tuple(np.argwhere(face_masks(grid, "obstacle")[0])[0])
        fields["u"][face] += 1e-6
        write_snapshot(victim, meta["time"], fields)
        write_manifest(broken, read_manifest(broken)["config_digest"])
        report = verify_run(broken)
        assert not report["ok"]
        checks = {(c["name"], c["context"]): c for c in report["checks"]}
        assert checks[("artifact_digests", "all")]["passed"]
        slip = checks[("obstacle_slip", "eps=0.1")]
        assert not slip["passed"]
        assert slip["value"] == pytest.approx(1e-6, rel=1e-6)
        assert checks[("obstacle_slip", "eps=0.2")]["passed"]

    def test_swapped_snapshot_fails_digest_only(self, mini_run, tmp_path):
        # a valid snapshot, one density value moved by one part in 1e12:
        # every physics check passes and only the manifest digest differs
        broken = self._copy(mini_run["out_dir"], tmp_path, "swapped")
        victim = broken / "eps_0p1" / "snap_002.dat"
        meta, fields = read_snapshot(victim)
        fields["rho"][fields["rho"].shape[0] // 2, 0] *= 1.0 + 1e-12
        write_snapshot(victim, meta["time"], fields)
        report = verify_run(broken)
        assert not report["ok"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["artifact_digests"]
        assert failed[0]["context"] == str(victim.relative_to(broken))
        assert failed[0]["value"] == 1.0


class TestStoredAcousticPair:
    @pytest.fixture(scope="class")
    def in_memory(self, mini_cfg):
        """Per eps, each snapshot's acoustic pair, rerun in memory the way
        run_one_eps runs the member."""
        sc = build_scenario(mini_cfg)
        out = {}
        for eps in mini_cfg["sweep"]["eps"]:
            samples = sc.solver.run(sc.solver.init_state(*sc.initial_fields, eps),
                                    sample_schedule(mini_cfg))
            out[eps] = [sp.extract_acoustic_potential(
                state, sc.grid, sc.path, sc.law,
                lifting_sample(sc.solver.lifting, sc.grid, state.t)) for state, _ in samples]
        return out

    @staticmethod
    def _agrees(rebuilt, ref):
        """The snapshot stores rho, u, v exactly, so the rebuilt pair equals
        the in-memory one bit for bit."""
        return np.array_equal(rebuilt.r, ref.r) and np.array_equal(rebuilt.psi, ref.psi)

    def test_matches_in_memory_pair(self, mini_run, in_memory):
        assert [len(pairs) for pairs in in_memory.values()] == [5, 5]
        for eps, pairs in in_memory.items():
            for i, ref in enumerate(pairs):
                rebuilt = stored_acoustic_pair(mini_run["out_dir"], eps, i)
                assert (rebuilt.eps, rebuilt.t) == (ref.eps, ref.t)
                assert self._agrees(rebuilt, ref), (eps, i)

    @pytest.mark.parametrize("mutation", ["wrong_eps", "wrong_snapshot"])
    def test_mutated_rebuild_fails(self, mutation, mini_run, in_memory, monkeypatch):
        if mutation == "wrong_eps":
            monkeypatch.setattr(verify, "FluidState",
                                lambda rho, u, v, t, eps: FluidState(rho, u, v, t, 2.0 * eps))
        shift = int(mutation == "wrong_snapshot")
        for eps, pairs in in_memory.items():
            for i, ref in enumerate(pairs[:-1]):
                rebuilt = stored_acoustic_pair(mini_run["out_dir"], eps, i + shift)
                assert not self._agrees(rebuilt, ref), (eps, i)


class TestSnapshotRoundTrip:
    """The parent derives every per-snapshot term from the stored
    snapshots. They equal the terms of the in-memory samples bit for bit,
    though a reloaded state's padded layout holds zero ghost entries where
    the stepped state held rho_ref and the body's velocity."""

    @staticmethod
    def _same(a, b):
        return ([(r.eps, r.metric_name, r.q, r.window, r.t_or_sup) for r in a]
                == [(r.eps, r.metric_name, r.q, r.window, r.t_or_sup) for r in b]
                and all(np.array_equal(x.value, y.value) for x, y in zip(a, b)))

    @pytest.mark.parametrize("run, text", [("mini_run", MINI_CFG),
                                           ("sinusoidal_mini_run", SINUSOIDAL_MINI_CFG),
                                           ("static_mini_run", STATIC_MINI_CFG)],
                             ids=["mini", "sinusoidal", "static"])
    def test_stored_terms_match_in_memory(self, run, text, request):
        out = Path(request.getfixturevalue(run)["out_dir"])
        cfg = parse_config(text)
        sc = build_scenario(cfg)
        lay = sc.grid.layout
        solver = sc.solver
        dec = sweep.decompose(cfg, sc.grid)
        reference = sweep.reference_run(sc)
        probes = observation_probes(sc.grid)
        ghosts_moved = 0
        for eps in cfg["sweep"]["eps"]:
            samples = solver.run(solver.init_state(*sc.initial_fields, eps),
                                 sample_schedule(cfg))
            for i, (state, ledger) in enumerate(samples):
                stored = sweep.stored_state(out, eps, i, sc.grid)
                ghosts_moved += not all(
                    np.array_equal(lay.flat(getattr(stored, name)), lay.flat(getattr(state, name)))
                    for name in ("rho", "u", "v"))
                ext = lifting_sample(solver.lifting, sc.grid, state.t)
                if i == 0:  # the initial state's energy terms, from either copy
                    initial = solver.energy_terms(state, ext)
                    assert solver.energy_terms(stored, ext) == initial, eps
                energy = solver.energy_report(state, ledger, ext, initial)
                assert solver.energy_report(stored, ledger, ext, initial) == energy, (eps, i)
                assert (np.sum(stored.rho[sc.grid.active])
                        == np.sum(state.rho[sc.grid.active])), (eps, i)
                args = (ext, reference[i], probes)
                terms = sweep.snapshot_terms(sc, dec, state, *args)
                terms_back = sweep.snapshot_terms(sc, dec, stored, *args)
                assert self._same(terms_back, terms), (eps, i)
        assert ghosts_moved > 0


def test_readme_library_sketch_runs(capsys):
    # the README's library sketch, run as written: one line per sample
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    exec(compile(sketch.split("```", 1)[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 51
    assert all(line.split()[1] == "True" for line in lines)


class TestCli:
    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[physics]\ngamma = 1.0\n")
        assert cli_main(["run", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("factor", ["0", "0.6"])
    def test_quadrature_factor_out_of_range_exit_code(self, tmp_path, factor, capsys):
        # rage_decay's quadrature factor is a constant now; a config that
        # still sets it, in range or not, is rejected before any computation
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINI_CFG + f"\n[spectral]\nquadrature_factor = {factor}\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_lifting_radius_without_taper_room_exit_code(self, tmp_path):
        # the sponge width sets the moving obstacle's lifting radius R; static
        # runs build no lifting, so the same widths are fine for them
        for width, reason in (
            ("0.75", "no room for the taper"),  # R = 0.225, collar 0.275
            ("0.9", "not above obstacle_radius"),  # R = 0.09 < a = 0.15
        ):
            text = MINI_CFG + f"\n[numerics]\nsponge_width = {width}\n"
            bad = tmp_path / f"bad-{width}.cfg"
            bad.write_text(text)
            out = str(tmp_path / "o")
            assert cli_main(["run", "--config", str(bad), "--out", out]) == 2
            with pytest.raises(ConfigValidationError, match=reason):
                parse_config(text)
            parse_config(text + "\n[motion]\nkind = static\n")

    @pytest.mark.parametrize("entries", [
        "[spectral]\ncutoff_one = 0.4\ncutoff_zero = 0.3",
        "[spectral]\ncutoff_zero = 1.5",  # not below extent = 1
        "[numerics]\nmodes = 3",  # no room for the spectral window
        "[numerics]\nmodes = 7",  # its fall (from mode K/2) before its rise ends
        "[numerics]\nmodes = 2500",  # beyond spectral.DESK_MODE_CAP
        "[initial]\npulse_amplitude = 2000",  # ill-prepared data bound
        "[spectral]\nsource_width = 0",  # D(eps) = 0 at every eps
        "[spectral]\nsource_width = -0.1",
        # a probe off the grid: D = 0 at T > 0
        "[run]\nscenario = spectral\n[spectral]\nsource_center_x = 10\n[sweep]\neps = 0.2",
        # a number that is nan or inf, refused as it is read
        "[geometry]\nextent = nan",
        "[sweep]\neps = 0.2, nan",
        "[physics]\nshear_viscosity = nan",
        "[numerics]\nsponge_width = nan",
        "[initial]\npulse_amplitude = inf",
        # two members that would share the snapshot directory eps_0p2
        "[sweep]\neps = 0.2000001, 0.2",
    ], ids=["cutoff_order", "cutoff_extent", "modes_3", "modes_7", "modes_cap", "pulse_bound",
            "probe_width_0", "probe_width_negative", "probe_off_grid", "extent_nan", "eps_nan",
            "viscosity_nan", "sponge_nan", "pulse_inf", "eps_shared_dir"])
    def test_config_refused_without_traceback(self, entries, tmp_path):
        # each of these used to pass validation and then die with a
        # traceback or write meaningless rows; each is refused before the run
        # directory exists, the data bound on the members' initial states
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(MINI_CFG + "\n" + entries + "\n")
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "machlab.cli", "run", "--config", str(cfgfile),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_grid_beyond_cell_cap_exit_code(self, tmp_path, capsys):
        # 256x256 cells around the disk: refused on its active-cell count,
        # the one the eigensolve would have refused after the reference run
        cfgfile = tmp_path / "fine.cfg"
        cfgfile.write_text(MINI_CFG.replace("cell_size = 0.03125", "cell_size = 0.0078125"))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        grid = build_grid(2, 1.0, 0.15, 0.0078125)
        assert f"grid has {grid.n_active} active cells, beyond the desk-scale cap" in err
        assert grid.n_active > sp.DESK_CELL_CAP
        assert not out.exists()

    def test_probe_off_grid_refused_before_eigensolve(self, tmp_path, monkeypatch, capsys):
        # the probe needs no eigenpair, so its refusal costs no solve
        solves = []

        def no_solve(*args, **kwargs):
            solves.append(args)
            raise AssertionError("the eigensolve ran before the probe check")

        monkeypatch.setattr(sp, "spectral_decompose", no_solve)
        cfgfile = tmp_path / "probe.cfg"
        cfgfile.write_text(MINI_CFG + "\n[spectral]\nsource_center_x = 10\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the probe at (10, 0) with width" in err
        assert "misses every active cell of the grid" in err
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_worker_count_exit_code(self, value, tmp_path, monkeypatch, capsys):
        # refused before the run directory exists, not after the reference run
        monkeypatch.setenv("MACHLAB_WORKERS", value)
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(MINI_CFG)
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert "MACHLAB_WORKERS" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_failure_exit_code(self, mini_run, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(mini_run["out_dir"], broken)
        victim = sorted((broken / "eps_0p2").glob("snap_*.dat"))[-1]
        meta, fields = read_snapshot(victim)
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        fields["rho"][grid.nx // 2, grid.ny // 4] = 25.0
        write_snapshot(victim, meta["time"], fields)
        assert cli_main(["verify", str(broken)]) == 1

    def test_verify_missing_start_energy_row_reported(self, mini_run, tmp_path, capsys):
        # energy.csv without the t = 0 row of eps = 0.1: the snapshot energy
        # check, whose tolerance scales with E(0), fails naming the row, and
        # the report still prints
        broken = tmp_path / "broken"
        shutil.copytree(mini_run["out_dir"], broken)
        table = broken / "energy.csv"
        lines = table.read_text().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("0,0.1,")]
        assert len(kept) == len(lines) - 1
        table.write_text("".join(kept))
        assert cli_main(["verify", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] energy_snapshot_consistent (eps=0.1: energy.csv has no t = 0 row)" in out
        assert "[PASS] energy_snapshot_consistent (eps=0.2)" in out
        assert out.endswith("verify: FAILURES PRESENT\n")

    def test_verify_missing_later_energy_rows_reported(self, mini_run, tmp_path, capsys):
        # energy.csv keeps only the t = 0 row of eps = 0.1: the snapshot
        # energy check must not pass on the initial data alone, and names
        # the snapshot times the table does not book
        broken = tmp_path / "broken"
        shutil.copytree(mini_run["out_dir"], broken)
        table = broken / "energy.csv"
        lines = table.read_text().splitlines(keepends=True)
        kept = [line for line in lines
                if not (",0.1," in line and not line.startswith("0,"))]
        assert len(kept) == len(lines) - 4
        table.write_text("".join(kept))
        assert cli_main(["verify", str(broken)]) == 1
        out = capsys.readouterr().out
        assert ("[FAIL] energy_snapshot_consistent (eps=0.1: energy.csv has no row at "
                "t = 0.02, 0.04, 0.06, 0.08)") in out
        assert "[PASS] energy_snapshot_consistent (eps=0.2)" in out

    @pytest.mark.parametrize("defect", SPOILED)
    def test_verify_unreadable_snapshot_exit_code(self, defect, mini_run, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(mini_run["out_dir"], broken)
        victim = broken / "eps_0p1" / "snap_002.dat"
        _spoil_snapshot(victim, defect)
        assert cli_main(["verify", str(broken)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and str(victim) in lines[0], lines

    @pytest.mark.parametrize("defect", ["no_u", "short_u", "flat_rho"])
    def test_verify_misshapen_field_exit_code(self, defect, mini_run, tmp_path, capsys):
        # a valid v2 snapshot whose field is missing or not of its grid
        # shape: exit code 3 and one line naming the path and the field,
        # from verify and from the stored acoustic pair alike
        broken = tmp_path / "broken"
        shutil.copytree(mini_run["out_dir"], broken)
        victim = broken / "eps_0p2" / "snap_002.dat"
        meta, fields = read_snapshot(victim)
        field = "rho" if defect == "flat_rho" else "u"
        if defect == "no_u":
            del fields["u"]
        elif defect == "short_u":
            fields["u"] = fields["u"][:-1]
        else:
            fields["rho"] = fields["rho"].ravel()
        write_snapshot(victim, meta["time"], fields)
        assert cli_main(["verify", str(broken)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and str(victim) in lines[0], lines
        assert f"field {field!r}" in lines[0], lines
        with pytest.raises(SnapshotFormatError, match=f"field {field!r}"):
            stored_acoustic_pair(broken, 0.2, 2)

    def test_verify_pass_exit_code(self, mini_run):
        assert cli_main(["verify", mini_run["out_dir"]]) == 0

    def test_spectrum_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(MINI_CFG)
        assert cli_main(["spectrum", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "k,lambda,residual"
        first = lines[1].split(",")
        assert float(first[1]) == 0.0  # kernel eigenvalue

    def test_sweep_eps_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(MINI_CFG.replace("snapshots = 5", "snapshots = 2")
                           .replace("horizon = 0.08", "horizon = 0.01"))
        out = tmp_path / "sweepout"
        code = cli_main(["run", "--config", str(cfgfile), "--eps", "0.2",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "summary.csv")
        assert len(rows) == 1 and float(rows[0][0]) == 0.2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ",".join(SUMMARY_HEADER)
        assert float(lines[2].split(",")[0]) == 0.2

    @pytest.mark.parametrize("eps", ["0.2,abc", "0.2,", "", "0.2,nan"])
    def test_malformed_eps_override_exit_code(self, eps, tmp_path, capsys):
        # read like the config's own eps list, and refused before the run
        # directory exists
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(MINI_CFG)
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(cfgfile), "--eps", eps, "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entrypoint(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[sweep]\neps = 0.1, 0.5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "machlab.cli", "run", "--config", str(cfgfile)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr
