"""Command line front end.

Three subcommands cover the benchmark workflow:

  afem run    one adaptive solve, CSV logs to --out; one flag per
              AdaptiveConfig field, defaulting to the field's default
  afem sweep  a batch of runs from a sweep specification file
  afem rates  rate report over a benchmark output directory

A flag of `afem run` and a key of a sweep file are read by the same
parser, `experiments._coerce`, so both accept and reject the same text.
A user error (a bad value, a missing file) or a run past the driver's
iteration limits prints its message and exits with status 1; `rates
--assert` exits with status 2 when a fitted rate misses its reference
slope, which makes regression checks scriptable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .driver import AdaptiveConfig, field_types
from .experiments import (_coerce, collect_rates, parse_sweep_spec,
                          rates_report, run_benchmark)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afem",
        description="adaptive finite elements for quasilinear problems")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a single adaptive run",
                         description=AdaptiveConfig.__doc__)
    types = field_types(AdaptiveConfig)
    for f in fields(AdaptiveConfig):
        # every value stays text here, for `_coerce`
        flag = "--" + f.name.replace("_", "-")
        if types[f.name] is bool:
            run.add_argument(flag, action="store_const", const="true", default="false")
        else:
            run.add_argument(flag, help="default %(default)s", default=str(f.default))
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
    try:
        if args.command == "rates":
            ok = rates_report(collect_rates(args.in_dir))
            return 2 if args.check and not ok else 0
        if args.command == "run":
            configs = [AdaptiveConfig(**{f.name: _coerce(f.name, getattr(args, f.name))
                                         for f in fields(AdaptiveConfig)})]
        else:
            with open(args.spec) as fh:
                configs = parse_sweep_spec(fh.read())
            if not configs:
                raise ValueError("sweep spec expands to no runs")
        run_benchmark(configs, out_dir=args.out, report=print)
    except (OSError, RuntimeError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
