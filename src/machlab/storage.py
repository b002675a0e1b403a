"""Run-directory artifacts: binary snapshots, CSV tables, and the manifest.

Snapshot format v2: a NumPy `.npz` archive (uncompressed zip of `.npy`
entries) holding the snapshot `time` as a float64 scalar and each named
field as a C-ordered float64 array, in the writer's order. The values are
exact, and the bytes depend on the values alone: numpy dates every zip
entry 1980-01-01. All writers are deterministic: fixed key order, fixed
float formatting, sorted rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from .errors import IncompleteRun, MissingArtifact, SnapshotFormatError

FLOAT_FMT = "%.12g"
MANIFEST_NAME = "manifest.json"


def write_snapshot(path, time, fields: dict):
    """Write named cell/face arrays and the time to exactly `path`. The
    grid is not stored: the run's config.txt rebuilds it."""
    arrays = {name: np.ascontiguousarray(arr, dtype=np.float64)
              for name, arr in fields.items()}
    # a file object, since np.savez appends `.npz` to a path
    with Path(path).open("wb") as fh:
        np.savez(fh, time=np.float64(time), **arrays)


def read_snapshot(path):
    """Read a v2 snapshot; returns ({"time": t}, fields dict). Anything else
    (a v1 text snapshot, a truncated or corrupted file, no time, a pickled
    array) raises SnapshotFormatError naming the path."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise SnapshotFormatError(
                f"{path} is not a machlab v2 snapshot: not an .npz archive (run "
                "directories from before v2 must be regenerated with `machlab run`)")
        fh.seek(0)  # is_zipfile leaves the file at its end
        try:
            with np.load(fh, allow_pickle=False) as archive:
                fields = {name: archive[name] for name in archive.files}
        except (ValueError, zipfile.BadZipFile) as exc:  # object arrays; CRC
            raise SnapshotFormatError(f"{path} is not a machlab v2 snapshot: {exc}") from exc
    time = fields.pop("time", None)
    if time is None or time.shape != ():
        raise SnapshotFormatError(f"{path} is not a machlab v2 snapshot: no scalar time")
    return {"time": float(time)}, fields


def write_csv(path, header, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [FLOAT_FMT % x if isinstance(x, float) else x for x in row]
            )


def read_csv(path):
    with Path(path).open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(run_dir, config_digest: str):
    """Record every artifact with its digest; written last, marks completion."""
    run_dir = Path(run_dir)
    entries = {}
    for p in sorted(run_dir.rglob("*")):
        if p.is_file() and p.name != MANIFEST_NAME:
            entries[str(p.relative_to(run_dir))] = _file_digest(p)
    manifest = {"config_digest": config_digest, "files": entries}
    (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True))


def read_manifest(run_dir):
    run_dir = Path(run_dir)
    mpath = run_dir / MANIFEST_NAME
    if not mpath.exists():
        raise IncompleteRun(
            f"{run_dir} has no manifest; the producing run did not complete"
        )
    return json.loads(mpath.read_text())


def check_artifacts(run_dir, manifest) -> None:
    """Raise one MissingArtifact naming every manifest-promised file that
    is missing."""
    run_dir = Path(run_dir)
    missing = [rel for rel in manifest["files"] if not (run_dir / rel).exists()]
    if missing:
        raise MissingArtifact(f"run directory lacks promised files: {missing}")


def changed_artifacts(run_dir, manifest) -> list:
    """The manifest-promised files whose sha256 digest no longer matches
    the one recorded, in manifest order."""
    run_dir = Path(run_dir)
    return [rel for rel, digest in manifest["files"].items()
            if _file_digest(run_dir / rel) != digest]
