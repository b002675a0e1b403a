import ast
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from machlab.cli import main as cli_main
from machlab.config import SCHEMA, canonical_text, default_config, parse_config
from machlab.errors import (
    ConfigParseError,
    ConfigValidationError,
    IncompleteRun,
    MissingArtifact,
)
from machlab.geometry import build_grid
from machlab.storage import read_csv, read_snapshot, write_snapshot
from machlab.sweep import SUMMARY_HEADER, run_sweep
from machlab.verify import verify_run

from conftest import MINI_CFG


class TestConfig:
    def test_minimal_round_trips(self):
        cfg = parse_config("")
        text = canonical_text(cfg)
        assert canonical_text(parse_config(text)) == text

    def test_defaults_filled(self):
        cfg = default_config()
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
        ("spectral", "reflection_safety"),
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

    def test_digest_stable(self):
        assert parse_config("").digest() == parse_config("").digest()
        other = parse_config("[run]\nseed = 5\n")
        assert other.digest() != parse_config("").digest()


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        grid = build_grid(2, 1.0, 0.15, 1.0 / 16.0)
        rng = np.random.default_rng(0)
        fields = {
            "rho": rng.random((grid.nx, grid.ny)),
            "u": rng.random((grid.nx + 1, grid.ny)),
        }
        path = tmp_path / "snap.dat"
        write_snapshot(path, grid, 0.125, fields)
        meta, back = read_snapshot(path)
        assert meta["time"] == 0.125
        assert meta["h"] == grid.h
        for name in fields:
            np.testing.assert_allclose(back[name], fields[name], rtol=1e-11)


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

    def test_worker_pool_matches_sequential(self, mini_cfg, mini_run, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("MACHLAB_WORKERS", "2")
        parallel = run_sweep(mini_cfg, tmp_path / "parallel")

        def files(root):
            return sorted(p.relative_to(root) for p in Path(root).rglob("*")
                          if p.is_file())

        names = files(mini_run["out_dir"])
        assert files(parallel["out_dir"]) == names
        assert Path("eps_0p1", "snap_004.dat") in names
        for name in names:
            a = (Path(mini_run["out_dir"]) / name).read_bytes()
            b = (Path(parallel["out_dir"]) / name).read_bytes()
            assert a == b, name


class TestVerify:
    @pytest.mark.parametrize("run", ["mini_run", "sinusoidal_mini_run"])
    def test_fresh_run_all_pass(self, run, request):
        report = verify_run(request.getfixturevalue(run)["out_dir"])
        assert report["ok"], [c for c in report["checks"] if not c["passed"]]

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
        write_snapshot(victim, grid, meta["time"], fields)
        report = verify_run(broken)
        assert not report["ok"]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed & {"energy_snapshot_consistent", "density_positive",
                         "far_field_quiet"}


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

    def test_verify_failure_exit_code(self, mini_run, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(mini_run["out_dir"], broken)
        victim = sorted((broken / "eps_0p2").glob("snap_*.dat"))[-1]
        meta, fields = read_snapshot(victim)
        grid = build_grid(2, 1.0, 0.15, 1.0 / 32.0)
        fields["rho"][grid.nx // 2, grid.ny // 4] = 25.0
        write_snapshot(victim, grid, meta["time"], fields)
        assert cli_main(["verify", str(broken)]) == 1

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
        code = cli_main(["sweep", "--config", str(cfgfile), "--eps", "0.2",
                         "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out / "summary.csv")
        assert len(rows) == 1 and float(rows[0][0]) == 0.2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ",".join(SUMMARY_HEADER)
        assert float(lines[2].split(",")[0]) == 0.2

    def test_module_entrypoint(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[sweep]\neps = 0.1, 0.5\n")
        proc = subprocess.run(
            [sys.executable, "-m", "machlab.cli", "run", "--config", str(cfgfile)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr
