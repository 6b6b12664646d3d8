"""Command line front end.

Three subcommands cover the benchmark workflow:

  afem run    one adaptive solve, CSV logs to --out; one flag per
              AdaptiveConfig field, defaulting to the field's default
  afem sweep  a batch of runs from a sweep specification file
  afem rates  rate report over a benchmark output directory

`rates --assert` exits with status 2 when a fitted rate misses its
reference slope, which makes regression checks scriptable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .driver import AdaptiveConfig, field_types
from .experiments import (collect_rates, parse_sweep_spec, rates_report,
                          run_benchmark)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afem",
        description="adaptive finite elements for quasilinear problems")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a single adaptive run",
                         description=AdaptiveConfig.__doc__)
    types = field_types(AdaptiveConfig)
    for f in fields(AdaptiveConfig):
        flag = "--" + f.name.replace("_", "-")
        if types[f.name] is bool:
            run.add_argument(flag, action="store_true")
        else:
            run.add_argument(flag, type=types[f.name], help="default %(default)s",
                             default=f.default)
    run.add_argument("--out", required=True, help="output directory")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("--spec", required=True,
                       help="sweep specification file (key=value lines)")
    sweep.add_argument("--out", required=True, help="output directory")

    rates = sub.add_parser("rates", help="report convergence rates")
    rates.add_argument("--in", dest="in_dir", required=True,
                       help="benchmark output directory")
    rates.add_argument("--assert", dest="check", action="store_true",
                       help="exit 2 unless every rate matches its reference")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = AdaptiveConfig(**{f.name: getattr(args, f.name)
                                       for f in fields(AdaptiveConfig)})
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        run_benchmark([config], out_dir=args.out, verbose=True)
        return 0
    if args.command == "sweep":
        try:
            with open(args.spec) as fh:
                configs = parse_sweep_spec(fh.read())
            if not configs:
                raise ValueError("sweep spec expands to no runs")
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 1
        try:
            run_benchmark(configs, out_dir=args.out, verbose=True)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        return 0
    if args.command == "rates":
        try:
            rows = collect_rates(args.in_dir)
        except (FileNotFoundError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 1
        ok = rates_report(rows)
        if args.check and not ok:
            return 2
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
