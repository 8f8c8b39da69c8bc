"""Command-line interface.

Subcommands reproduce the reference datasets from a declarative JSON
config; ``validate`` runs the quick invariant suite. Physics parameters
live in the config only; flags cover execution concerns (output directory,
and the noise seed of ``appendix-d``, the one subcommand that draws noise).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config
from .errors import CpfsimError
from .runs import (
    run_appendix_d,
    run_figure2,
    run_sweep,
    run_validation,
    run_witness_comparison,
)

_RUNNERS = {
    "figure2": run_figure2,
    "appendix-d": run_appendix_d,
    "witness": run_witness_comparison,
    "sweep": run_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfsim",
        description=(
            "Conditional past-future correlations for qubit decay into a "
            "bosonic bath: exact curves, witness comparison, and noisy "
            "experiment simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("figure2", "equal-times CPF curves for the reference parameter sets"),
        ("appendix-d", "finite-count / visibility noise studies (needs a noise block)"),
        ("witness", "decay rate and survival vs CPF, the central contrast"),
        ("sweep", "generic CPF sweep over the configured grid and schemes"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="JSON run config")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if name == "appendix-d":
            p.add_argument("--seed", type=int, default=None, help="override the noise seed")
    sub.add_parser("validate", help="run the quick invariant suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return 0 if run_validation() else 1
    try:
        cfg = load_config(args.config)
        if args.command == "appendix-d" and args.seed is not None and cfg.noise is not None:
            cfg = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, seed=args.seed))
        path = _RUNNERS[args.command](cfg, args.out)
    except (CpfsimError, OSError) as exc:  # invalid input, or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
