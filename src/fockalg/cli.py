"""Command-line front end: one subcommand per experiment plus run-all.

Each subcommand takes the flags listed for its experiment in
``experiments.EXPERIMENTS``, plus --out.  Exit code is 0 when every verdict
passes, 1 when one fails, and 2 on a usage or input error, which is reported
in one line on stderr.  Reports are written as JSON (one object per
experiment) when --out is given, and a one-line summary per experiment is
always printed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .words import BasisCapExceeded


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(parse, flag: str):
    """parse (a checked parser of experiments.EXPERIMENTS) as an argparse type
    that keeps its ValueError message (argparse would report "invalid parse_flag
    value") and names the flag."""
    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid {flag} {text!r}: {exc}") from None
    return parse_flag


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockalg",
        description="Truncated Fock-space experiments; exit code 0 if every verdict passes, "
                    "1 if one fails, 2 on a usage or input error.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, flags in experiments.EXPERIMENTS.items():
        p = sub.add_parser(name)
        for flag, (_, kind, text) in flags.items():
            p.add_argument(f"--{flag}", type=kind if isinstance(kind, type) else _checked(kind, flag),
                           help=text)
        p.add_argument("--out", help="write the report JSON here")
    p = sub.add_parser("run-all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="directory for report files")
    return parser


def _run(args) -> list:
    if args.experiment == "run-all":
        return experiments.run_all(seed=args.seed, out_dir=args.out)
    flags = experiments.EXPERIMENTS[args.experiment]
    kwargs = {kw: getattr(args, flag) for flag, (kw, _, _) in flags.items()
              if getattr(args, flag) is not None}
    rep = experiments.experiment(args.experiment)(**kwargs)
    if args.out is not None:
        out = Path(args.out)
        if out.is_dir():
            out = out / f"{rep.name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rep.to_json())
    return [rep]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        reports = _run(args)
    except (ValueError, BasisCapExceeded) as exc:
        print(f"fockalg {args.experiment}: error: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        print(rep.summary_line())
    return 0 if all(rep.verdict for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
