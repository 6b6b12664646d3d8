"""Benchmark harness: batches of adaptive runs, CSV output, rate fitting.

A benchmark takes a list of run configurations, executes them, and fits
the convergence rate of the estimator against the number of elements and
against the cumulative solver cost.  Results land in three CSV layouts:

  <run_id>.csv         per-step solver log (see driver.StepRecord)
  <run_id>.levels.csv  one row per mesh level
  runs.csv             one row per run: configuration, outcome, fitted rates
                       and the largest observed PCG and Picard contractions

Sweep specification files are plain text, one ``key=value`` line per
configuration field, comma-separated values expanding as a cartesian
product; a key appears at most once per block.  Blocks are separated by
lines that are empty after stripping whitespace and expand independently,
so unrelated parameter families can share one file; duplicate
configurations run once.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from .driver import (LEVEL_TYPES, AdaptiveConfig, RunLog, field_types, read_csv,
                     run_adaptive, write_csv)
from .problems import get_problem

_CONFIG_TYPES = field_types(AdaptiveConfig)


def _coerce(key: str, raw: str):
    """Configuration field ``key`` from its text form, by the field's type.

    The one reader of configuration text: sweep files, `afem run` flags and
    the configuration cells of runs.csv.  Integer fields read integral text
    exactly, and integral values in float notation (``1e5``).  Text that does
    not read as the field's type raises ValueError naming the key and text.
    """
    kind, text = _CONFIG_TYPES[key], raw.strip()
    try:
        if kind is bool:
            return {"1": True, "true": True, "yes": True, "on": True,
                    "0": False, "false": False, "no": False, "off": False}[text.lower()]
        if kind is not int:
            return kind(text)
        if text.lstrip("+-").isdigit():
            return int(text)  # float would round it above 2**53
        if float(text).is_integer():
            return int(float(text))
    except (KeyError, ValueError):
        pass
    raise ValueError(f"bad {kind.__name__} value for {key}: {raw!r}")


# runs.csv in column order: the run id, the configuration fields that tell
# runs apart, then the outcome
_RUNS_TYPES = dict(
    run_id=str,
    **{c: partial(_coerce, c)
       for c in ("domain", "theta", "lambda_alg", "lambda_pic", "max_elements")},
    n_levels=int, n_steps=int, nT=int, eta=float, cumcost=int, rate_vs_n=float,
    rate_vs_cost=float, max_alg_ratio=float, max_pic_ratio=float, exit_reason=str,
    seconds=float)
RUNS_COLUMNS = tuple(_RUNS_TYPES)
LEVEL_COLUMNS = tuple(LEVEL_TYPES)

# slope check used by `rates --assert`
RATE_TOLERANCE = 0.08


def fit_rate(xs: Sequence[float], ys: Sequence[float], window: float = 10.0,
             min_points: int = 4) -> float:
    """Least-squares slope of log ys against log xs on the trailing window.

    Only the asymptotic tail is informative, so the fit keeps the points
    with ``x >= max(x) / window`` (one decade by default), widened to the
    last ``min_points`` points when the window is thinner than that.
    Returns NaN when fewer than two usable points remain, or when the tail
    holds fewer than two distinct x, through which no slope is defined.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if x.size < 2:
        return math.nan
    tail = x >= x.max() / window
    if tail.sum() < min(min_points, x.size):
        tail = np.zeros(x.size, dtype=bool)
        tail[-min(min_points, x.size):] = True
    if np.unique(x[tail]).size < 2:
        return math.nan
    return float(np.polyfit(np.log(x[tail]), np.log(y[tail]), 1)[0])


def expected_rate(config: AdaptiveConfig) -> float:
    """Reference estimator rate versus element count: `Problem.uniform_rate`
    under full refinement (theta = 1), else the optimal -1/2."""
    return get_problem(config.domain).uniform_rate if config.theta >= 1.0 else -0.5


def run_id_for(config: AdaptiveConfig) -> str:
    return "_".join([config.domain, "t%g" % config.theta, "a%g" % config.lambda_alg,
                     "p%g" % config.lambda_pic])


@dataclass(frozen=True)
class RunResult:
    run_id: str
    config: AdaptiveConfig
    log: RunLog
    rate_vs_n: float
    rate_vs_cost: float
    seconds: float

    def runs_row(self) -> dict:
        """The runs.csv row; ``max_alg_ratio`` and ``max_pic_ratio`` are the
        largest observed PCG and Picard contractions over all levels (None
        if no level has one), the paper's assumptions in numbers."""
        final = self.log.final()
        table = self.log.level_table()
        config = {c: getattr(self.config, c) for c in RUNS_COLUMNS
                  if c in _CONFIG_TYPES}
        largest = {"max_" + c: max((row[c] for row in table if row[c] is not None),
                                   default=None) for c in ("alg_ratio", "pic_ratio")}
        return dict(config, **largest, run_id=self.run_id, n_levels=len(table),
                    n_steps=len(self.log.records), nT=final.nT, eta=final.eta,
                    cumcost=final.cumcost, rate_vs_n=self.rate_vs_n,
                    rate_vs_cost=self.rate_vs_cost,
                    exit_reason=self.log.exit_reason, seconds=self.seconds)


def fit_rates(table: Sequence[dict]) -> tuple:
    """Estimator rates versus nT and versus cumcost over level-table rows."""
    ns, etas, costs = ([row[c] for row in table] for c in ("nT", "eta", "cumcost"))
    return fit_rate(ns, etas), fit_rate(costs, etas)


def rates_from_log(log: RunLog) -> tuple:
    return fit_rates(log.level_table())


def read_levels_csv(path: str) -> List[dict]:
    return read_csv(path, LEVEL_TYPES, LEVEL_COLUMNS)


def run_benchmark(configs: Iterable[AdaptiveConfig],
                  out_dir: Optional[str] = None,
                  report: Optional[Callable[[str], None]] = None) -> List[RunResult]:
    """Run each configuration once, optionally writing CSVs to out_dir and
    passing a one-line summary of each run to ``report`` (None: silent).
    A run's CSVs and runs.csv are written as it ends, so one that raises
    keeps those before it.

    Raises ValueError before the first run when two different
    configurations would write to the same run id.
    """
    by_id = {}
    for config in configs:
        run_id = run_id_for(config)
        if by_id.setdefault(run_id, config) != config:
            raise ValueError("run id %s is shared by %s and %s"
                             % (run_id, by_id[run_id], config))
    results = []
    for run_id, config in by_id.items():
        start = time.perf_counter()
        log = run_adaptive(config)
        seconds = time.perf_counter() - start
        rate_n, rate_cost = rates_from_log(log)
        result = RunResult(run_id, config, log, rate_n, rate_cost, seconds)
        results.append(result)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, run_id)
            log.to_csv(path + ".csv")
            write_csv(LEVEL_COLUMNS, log.level_table(), path + ".levels.csv")
            write_csv(RUNS_COLUMNS, [r.runs_row() for r in results],
                      os.path.join(out_dir, "runs.csv"))
        if report is not None:
            final = log.final()
            report("%-32s nT=%-8d eta=%-12.4g rate_vs_n=%-8.4f "
                   "rate_vs_cost=%-8.4f %.1fs"
                   % (result.run_id, final.nT, final.eta, rate_n, rate_cost,
                      seconds))
    return results


def robustness_grid(max_elements: int = 40000) -> List[AdaptiveConfig]:
    """Parameter grid probing insensitivity of the convergence rate.

    Three families around the `AdaptiveConfig` defaults (zshape, theta=0.5,
    lambdas=1e-2): the algebraic threshold sweep, the linearization
    threshold sweep, and the bulk parameter sweep, each one block of a
    sweep specification; overlapping members run once.
    """
    budget = f"max-elements = {max_elements}\n"
    return parse_sweep_spec(f"lambda-alg = 1e-1, 1e-2, 1e-3, 1e-4\n{budget}\n"
                            f"lambda-pic = 1, 1e-1, 1e-2, 1e-3, 1e-4\n{budget}\n"
                            f"theta = 0.1, 0.3, 0.5, 0.7, 0.9\n{budget}")


def parse_sweep_spec(text: str) -> List[AdaptiveConfig]:
    """Expand a sweep specification into configurations, in file order."""
    configs: List[AdaptiveConfig] = []
    # blocks are separated by lines that are empty after strip()
    groups = itertools.groupby(text.splitlines(), key=lambda line: not line.strip())
    for block in (lines for blank, lines in groups if not blank):
        grid = {}
        for line in block:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("expected key=value, got %r" % line)
            key, raw = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError("unknown configuration key %r" % key)
            if key in grid:
                raise ValueError("key %r repeats within one block" % key)
            grid[key] = [_coerce(key, part) for part in raw.split(",")]
        if not grid:
            continue
        keys = list(grid)
        for combo in itertools.product(*(grid[k] for k in keys)):
            config = AdaptiveConfig(**dict(zip(keys, combo)))
            if config not in configs:
                configs.append(config)
    return configs


def _read_named(read: Callable[[str], List[dict]], path: str) -> List[dict]:
    """``read(path)``, a ValueError it raises re-raised with ``path`` in
    front, so that in a directory of many runs the bad file is named."""
    try:
        return read(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def collect_rates(directory: str) -> List[dict]:
    """Summarize a benchmark output directory for reporting.

    Rates are recomputed from the per-level CSVs when present so the
    report reflects the data on disk, not just the stored index.
    """
    index = os.path.join(directory, "runs.csv")
    if not os.path.isfile(index):
        raise FileNotFoundError("no runs.csv in %s" % directory)
    rows = []
    for run in _read_named(partial(read_csv, types=_RUNS_TYPES, required=RUNS_COLUMNS), index):
        config = AdaptiveConfig(**{c: run[c] for c in RUNS_COLUMNS
                                   if c in _CONFIG_TYPES})
        rate_n, rate_cost = run["rate_vs_n"], run["rate_vs_cost"]
        levels_path = os.path.join(directory, run["run_id"] + ".levels.csv")
        if os.path.isfile(levels_path):
            rate_n, rate_cost = fit_rates(_read_named(read_levels_csv, levels_path))
        expected = expected_rate(config)
        ok = (math.isfinite(rate_n)
              and abs(rate_n - expected) <= RATE_TOLERANCE)
        rows.append({"run_id": run["run_id"], "nT": run["nT"],
                     "eta": run["eta"], "rate_vs_n": rate_n,
                     "rate_vs_cost": rate_cost, "expected": expected, "ok": ok})
    return rows


def rates_report(rows: List[dict], out=None) -> bool:
    """Print the rate table to ``out`` (stdout by default); True when every
    run matches its reference."""
    print("%-32s %10s %12s %12s %10s %6s"
          % ("run_id", "nT", "rate_vs_n", "rate_vs_cost", "expected", "ok"), file=out)
    for row in rows:
        print("%-32s %10d %12.4f %12.4f %10.4f %6s"
              % (row["run_id"], row["nT"], row["rate_vs_n"], row["rate_vs_cost"],
                 row["expected"], "yes" if row["ok"] else "NO"), file=out)
    return all(row["ok"] for row in rows)
