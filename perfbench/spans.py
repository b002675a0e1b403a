"""Span tracing from outside machlab: wrap public layer functions in place.

A Tracer replaces each traced function, at the name its caller looks up,
with a wrapper that records a span (name, start, end, parent, run id) and
the counts the benchmark reports. Spans stay in memory until the caller
writes them out. Nothing inside machlab is edited.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from pathlib import Path

from machlab.storage import MANIFEST_NAME

# span name -> per-layer metric stem whose self time it adds to
LAYER_OF_SPAN = {
    "sweep.run": "sweep.self",
    "sweep.member": "sweep.self",
    "compressible.step": "compressible.step",
    "compressible.cfl": "compressible.cfl",
    "compressible.run": "compressible.ledger",
    "compressible.energy_report": "compressible.ledger",
    "geometry.lifting": "geometry.lifting",
    "spectral.eigensolve": "spectral.eigensolve",
    "spectral.decay": "spectral.decay",
    "spectral.forcing": "spectral.forcing",
    "spectral.extract": "spectral.extract",
    "storage.write": "storage.write",
    "storage.read": "storage.read",
    "incompressible.run": "incompressible.run",
    "operators.poisson": "operators.poisson",
    "diagnostics.metrics": "diagnostics.metrics",
    "verify.run": "verify.check",
}


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations.

    `spans` holds (name, start, end, parent) rows with parent the row index
    of the enclosing span, or -1 for a root.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _file_bytes(path) -> int:
    return os.stat(path).st_size


class Tracer:
    """Owns the spans and counters of one traced machlab run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, tag]
        self.counts = Counter()
        self.dt = {}  # eps -> [steps, dt_min, dt_max]
        self._stack = []

    # -- recording ------------------------------------------------------------

    def _open(self, name, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), 0.0, parent, tag])
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a root or nested span named `name`."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr, name, observe=None, tag=None):
        """Replace owner.attr by a span-recording wrapper.

        `observe(args, kwargs, result)` runs inside the span after the call
        and records counts; `tag(args)` labels the span (used for eps).
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, tag(args) if tag else None)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                tracer._close(idx)

        setattr(owner, attr, traced)

    # -- observers ------------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] += n

    def _on_step(self, args, kwargs, result):
        state, dt = args[1], args[2] if len(args) > 2 else kwargs["dt"]
        row = self.dt.setdefault(state.eps, [0, math.inf, 0.0])
        row[0] += 1
        row[1] = min(row[1], dt)
        row[2] = max(row[2], dt)

    def _on_decompose(self, args, kwargs, result):
        self._count("spectral.eigensolve_calls")
        self.counts["spectral.modes"] = result.modes

    def _on_decay(self, args, kwargs, result):
        dec = args[0]
        # rage_decay integrates on max(2, ceil(T / dt)) + 1 trapezoid nodes
        nodes = max(2, math.ceil(result.horizon / result.quadrature_dt)) + 1
        self._count("spectral.decay_nodes", nodes)
        self._count("spectral.decay_flops", 8 * nodes * dec.grid.n_active * result.modes)

    def _on_write(self, args, kwargs, result):
        self._count("storage.files_written")
        self._count("storage.bytes_written", _file_bytes(args[0]))

    def _on_write_manifest(self, args, kwargs, result):
        self._count("storage.files_written")
        self._count("storage.bytes_written", _file_bytes(Path(args[0]) / MANIFEST_NAME))

    def _on_read(self, args, kwargs, result):
        self._count("storage.bytes_read", _file_bytes(args[0]))

    def _on_read_manifest(self, args, kwargs, result):
        self._count("storage.bytes_read", _file_bytes(Path(args[0]) / MANIFEST_NAME))

    def _counter(self, key):
        return lambda args, kwargs, result: self._count(key)

    # -- patch table ------------------------------------------------------------

    def install(self):
        """Wrap every traced layer function where its caller looks it up."""
        from machlab import compressible, geometry, incompressible, operators
        from machlab import spectral, sweep, verify

        solver = compressible.CompressibleSolver
        self.wrap(solver, "step", "compressible.step", observe=self._on_step)
        self.wrap(solver, "cfl_limit", "compressible.cfl")
        self.wrap(solver, "run", "compressible.run")
        self.wrap(solver, "energy_report", "compressible.energy_report")

        lifting_calls = self._counter("geometry.lifting_calls")
        self.wrap(geometry.ExtensionField, "sample", "geometry.lifting", lifting_calls)
        self.wrap(geometry.ExtensionField, "sample_dt", "geometry.lifting", lifting_calls)

        # sweep reaches these through the module object `sp`
        self.wrap(spectral, "spectral_decompose", "spectral.eigensolve", self._on_decompose)
        self.wrap(spectral, "rage_decay", "spectral.decay", self._on_decay)
        forcing_calls = self._counter("spectral.forcing_calls")
        self.wrap(spectral, "assemble_forcing", "spectral.forcing", forcing_calls)
        self.wrap(spectral, "forcing_channel_norms", "spectral.forcing", forcing_calls)
        self.wrap(spectral, "extract_acoustic_potential", "spectral.extract")

        # sweep and verify import these by name
        self.wrap(sweep, "write_snapshot", "storage.write", self._on_write)
        self.wrap(sweep, "write_csv", "storage.write", self._on_write)
        self.wrap(sweep, "write_manifest", "storage.write", self._on_write_manifest)
        self.wrap(verify, "read_snapshot", "storage.read", self._on_read)
        self.wrap(verify, "read_csv", "storage.read", self._on_read)
        self.wrap(verify, "read_manifest", "storage.read", self._on_read_manifest)
        self.wrap(verify, "check_artifacts", "storage.read")
        self.wrap(sweep, "uniform_estimate_report", "diagnostics.metrics")
        self.wrap(sweep, "convergence_metrics", "diagnostics.metrics")
        self.wrap(sweep, "run_one_eps", "sweep.member", tag=lambda args: args[2])

        inc = incompressible.IncompressibleSolver
        self.wrap(inc, "init_state", "incompressible.run")
        self.wrap(inc, "run", "incompressible.run")
        self.wrap(inc, "step", "incompressible.run", self._counter("incompressible.steps"))
        self.wrap(operators.DiscreteOperators, "poisson_solve", "operators.poisson",
                  self._counter("operators.poisson_solves"))

    # -- results ----------------------------------------------------------------

    def layer_self_times(self, root_name) -> dict:
        """Self time per layer stem over the trees rooted at `root_name`,
        plus the inclusive time of each sweep member keyed by its eps."""
        rows = [(s[0], s[1], s[2], s[3]) for s in self.spans]
        root = []
        for name, _, _, parent in rows:
            root.append(name if parent < 0 else root[parent])
        out = Counter()
        for span, own, top in zip(self.spans, self_times(rows), root):
            if top != root_name:
                continue
            out[LAYER_OF_SPAN[span[0]]] += own
            if span[0] == "sweep.member":
                out[f"sweep.member.{span[4]:g}"] += span[2] - span[1]
        return dict(out)

    def root_duration(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[3] == -1)

    def write(self, path):
        """Write every span as JSON rows (name, start, end, parent, run id)."""
        rows = [
            {"name": n if tag is None else f"{n}.{tag:g}", "start": a, "end": b,
             "parent": p, "run_id": self.run_id}
            for n, a, b, p, tag in self.spans
        ]
        Path(path).write_text(json.dumps(rows))
