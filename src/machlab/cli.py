"""Command-line surface: run (optionally with an --eps list that replaces
the config's, read like the config's own eps list), verify, spectrum.

Exit codes: 0 all-pass, 1 numerical failure, 2 config error (a malformed
--eps included), 3 unreadable run directory (no manifest, a missing file,
or a snapshot that is not v2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import _parse_value, canonical_text, parse_config
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    IncompleteRun,
    MachlabError,
    MissingArtifact,
    SnapshotFormatError,
)
from .sweep import (
    EIGENVALUE_HEADER,
    build_scenario,
    decompose,
    eigenvalue_rows,
    run_sweep,
    write_eigenvalues,
)
from .verify import format_report, verify_run, verify_to_json

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_RUN_DIR = 3


def _load_config(path, eps_override=None):
    cfg = parse_config(Path(path).read_text())
    if eps_override is not None:
        cfg["sweep"]["eps"] = _parse_value("floats", eps_override, None, None)
        cfg = parse_config(canonical_text(cfg))  # re-validate the override
    return cfg


def _cmd_run(args):
    """The run directory, then the summary table as CSV."""
    cfg = _load_config(args.config, eps_override=args.eps)
    out = args.out or f"runs/{cfg['run']['label']}-{cfg.digest()}"
    result = run_sweep(cfg, out)
    print(f"run directory: {result['out_dir']}")
    print(",".join(result["header"]))
    for row in result["summary"]:
        print(",".join(f"{x:g}" if isinstance(x, float) else str(x) for x in row))
    return EXIT_OK


def _cmd_verify(args):
    report = verify_run(args.directory)
    if args.json:
        print(verify_to_json(report))
    else:
        print(format_report(report))
    return EXIT_OK if report["ok"] else EXIT_NUMERICAL


def _cmd_spectrum(args):
    cfg = _load_config(args.config)
    dec = decompose(cfg, build_scenario(cfg).grid)
    if args.out:
        write_eigenvalues(args.out, dec)
        print(f"wrote {dec.modes} eigenvalues to {args.out}")
    else:
        print(",".join(EIGENVALUE_HEADER))
        for row in eigenvalue_rows(dec):
            print(",".join(map(str, row)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="machlab",
        description="Low-Mach-limit numerical laboratory: compressible flow "
        "around a translating obstacle, acoustic dispersion, and the "
        "incompressible-limit convergence metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured scenario end to end")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--eps", default=None, help="comma-separated eps list")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="re-check invariants of a run directory")
    p_verify.add_argument("directory")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_spec = sub.add_parser("spectrum", help="eigenvalue table only")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigParseError, ConfigValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IncompleteRun, MissingArtifact, SnapshotFormatError) as exc:
        print(f"run directory error: {exc}", file=sys.stderr)
        return EXIT_RUN_DIR
    except MachlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
