"""Run-directory artifacts: ASCII snapshots, CSV tables, and the manifest.

Snapshot format: an ASCII header (dimension, extents, cell size, time)
followed by named fields, each stored row-major with one grid row per
line. All writers are deterministic: fixed key order, fixed float
formatting, sorted rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import IncompleteRun, MissingArtifact

FLOAT_FMT = "%.12g"
MANIFEST_NAME = "manifest.json"


def write_snapshot(path, grid, time, fields: dict):
    """Write named cell/face arrays with the grid header."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write("# machlab snapshot v1\n")
        fh.write(f"dimension {grid.dimension}\n")
        fh.write(
            f"extent {grid.x0!r} {grid.x1!r} {grid.y0!r} {grid.y1!r}\n"
        )
        fh.write(f"h {grid.h!r}\n")
        fh.write(f"time {time!r}\n")
        for name, arr in fields.items():
            arr = np.asarray(arr)
            fh.write(f"field {name} {arr.shape[0]} {arr.shape[1]}\n")
            np.savetxt(fh, arr, fmt=FLOAT_FMT)


def read_snapshot(path):
    """Read a snapshot; returns (meta dict, fields dict)."""
    path = Path(path)
    meta = {}
    fields = {}
    with path.open() as fh:
        header = fh.readline()
        if "machlab snapshot" not in header:
            raise ValueError(f"{path} is not a machlab snapshot")
        line = fh.readline()
        meta["dimension"] = int(line.split()[1])
        parts = fh.readline().split()
        meta["extent"] = tuple(float(x) for x in parts[1:5])
        meta["h"] = float(fh.readline().split()[1])
        meta["time"] = float(fh.readline().split()[1])
        while True:
            line = fh.readline()
            if not line:
                break
            tok = line.split()
            if tok[0] != "field":
                raise ValueError(f"unexpected snapshot line: {line!r}")
            name, n0, n1 = tok[1], int(tok[2]), int(tok[3])
            rows = [np.fromstring(fh.readline(), sep=" ") for _ in range(n0)]
            arr = np.vstack(rows)
            if arr.shape != (n0, n1):
                raise ValueError(f"field {name} has shape {arr.shape}, not {(n0, n1)}")
            fields[name] = arr
    return meta, fields


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
