"""Command-line interface.

    loqsim run FILE [--seed S] [--trials N] [--format json|csv] [--out PATH]
    loqsim hom [--steps K] ...
    loqsim cnot-herald ...
    loqsim teleport-cnot --trials N --seed S ...
    loqsim cluster-demo [--alpha A] [--beta B] [--gamma G] ...

Exit codes: 0 on success, 2 on experiment-description errors (and on
--trials < 1, --seed < 0, --steps < 2, --trials or --steps over
SECTOR_CAP, a non-finite cluster-demo angle or --trials on a sweep
spec), 1 on runtime errors.  A description error prints as
`FILE: line L, col C: message`, whether the parser or the run found it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__
from .dsl import SpecError, parse
from .interferometer import SECTOR_CAP
from .runner import (
    Report,
    cluster_demo_report,
    cnot_herald_report,
    format_report,
    hom_report,
    run,
    teleport_cnot_report,
)


def _checked(kind, ok, rule: str):
    """argparse type for a `kind` value that passes `ok`; argparse exits 2
    otherwise, as for text `kind` cannot read."""

    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    convert.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return convert


_seed = _checked(int, lambda value: value >= 0, ">= 0")
_finite_float = _checked(float, math.isfinite, "finite")
_steps = _checked(int, lambda value: 2 <= value <= SECTOR_CAP, f">= 2 and <= {SECTOR_CAP}")
_trials = _checked(int, lambda value: 1 <= value <= SECTOR_CAP, f">= 1 and <= {SECTOR_CAP}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing reads it, never changes it."""
    parser = argparse.ArgumentParser(
        prog="loqsim",
        description="Desk-scale linear-optical quantum computing simulator",
    )
    parser.add_argument("--version", action="version", version=f"loqsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, help="override the RNG seed")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None, help="output format"
        )
        p.add_argument("--out", type=Path, default=None, help="write to a file")

    p_run = sub.add_parser("run", help="run an experiment description file")
    p_run.add_argument("file", type=Path)
    p_run.add_argument("--trials", type=_trials, help="override trial count")
    common(p_run)

    p_hom = sub.add_parser("hom", help="two-photon coincidence vs overlap")
    p_hom.add_argument("--steps", type=_steps, default=11)
    common(p_hom)

    p_cnot = sub.add_parser("cnot-herald", help="heralded CNOT success table")
    common(p_cnot)

    p_tc = sub.add_parser("teleport-cnot", help="teleported-CNOT resource Monte Carlo")
    p_tc.add_argument("--trials", type=_trials, default=10000)
    common(p_tc)

    p_cd = sub.add_parser("cluster-demo", help="5-node linear-cluster rotation")
    p_cd.add_argument("--alpha", type=_finite_float, default=50.0, help="degrees")
    p_cd.add_argument("--beta", type=_finite_float, default=-35.0, help="degrees")
    p_cd.add_argument("--gamma", type=_finite_float, default=20.0, help="degrees")
    common(p_cd)

    return parser


def _emit(report: Report, fmt: str, out: Path | None) -> int:
    text = format_report(report, fmt)
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        out.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed if args.seed is not None else 0
    try:
        if args.command == "run":
            try:
                text = args.file.read_text()
            except OSError as exc:
                print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
                return 1
            try:
                spec = parse(text)
                report = run(spec, seed=args.seed, trials=args.trials)
            except SpecError as exc:
                print(f"{args.file}: {exc}", file=sys.stderr)
                return 2
            fmt = args.format or spec.emit
        elif args.command == "hom":
            fmt = args.format or "json"
            report = hom_report(steps=args.steps, seed=seed)
        elif args.command == "cnot-herald":
            fmt = args.format or "json"
            report = cnot_herald_report(seed=seed)
        elif args.command == "teleport-cnot":
            fmt = args.format or "json"
            report = teleport_cnot_report(trials=args.trials, seed=seed)
        else:  # cluster-demo
            fmt = args.format or "json"
            report = cluster_demo_report(
                alpha_deg=args.alpha,
                beta_deg=args.beta,
                gamma_deg=args.gamma,
                seed=seed,
            )
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    return _emit(report, fmt, args.out)


if __name__ == "__main__":
    sys.exit(main())
