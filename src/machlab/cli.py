"""Command-line surface: run, sweep, verify, spectrum.

Exit codes: 0 all-pass, 1 numerical failure, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import canonical_text, parse_config
from .errors import ConfigParseError, ConfigValidationError, MachlabError
from .sweep import build_scenario, decompose, run_sweep, write_eigenvalues
from .verify import format_report, verify_run, verify_to_json

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _load_config(path, eps_override=None):
    cfg = parse_config(Path(path).read_text())
    if eps_override:
        cfg["sweep"]["eps"] = tuple(float(x) for x in eps_override.split(","))
        cfg = parse_config(canonical_text(cfg))  # re-validate the override
    return cfg


def _cmd_run(args):
    cfg = _load_config(args.config)
    out = args.out or f"runs/{cfg['run']['label']}-{cfg.digest()}"
    result = run_sweep(cfg, out)
    print(f"run directory: {result['out_dir']}")
    print(",".join(result["header"]))
    for row in result["summary"]:
        print(",".join(f"{x:g}" if isinstance(x, float) else str(x) for x in row))
    return EXIT_OK


def _cmd_sweep(args):
    cfg = _load_config(args.config, eps_override=args.eps)
    out = args.out or f"runs/{cfg['run']['label']}-{cfg.digest()}"
    result = run_sweep(cfg, out)
    print(f"run directory: {result['out_dir']}")
    for row in result["summary"]:
        print(row)
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
        print("k,lambda,residual")
        for k, (lam, res) in enumerate(zip(dec.eigenvalues, dec.residuals), start=1):
            print(f"{k},{lam:.12g},{res:.3e}")
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
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run with an eps-list override")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--eps", default=None, help="comma-separated eps list")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

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
    except MachlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
