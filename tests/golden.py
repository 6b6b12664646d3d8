"""Golden step logs: their configurations, and the command that regenerates them.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py [--write] [--check]

reruns every configuration in `GOLDEN_CONFIGS` and prints, per file in
`tests/data/golden/`, whether the integer columns are identical, the
first level whose ``nT`` differs if any does, and the largest relative
change of each float column with the ``(l, k, j)`` of its record.  A change is measured on the
scale `test_step_log_matches_golden` uses: relative to the old entry, but
never to less than 1e-12 of the column's largest value.  The rerun is read
back through its CSV text first, so both sides carry the same 12 digits and
an unchanged run reads 0.  Then it prints the sha1 of the step log of each
benchmark workload, with the configurations of `perfbench/workloads.py`,
and the sha1 of its `INTEGER_COLUMNS` alone; running the command at two
commits compares all five "same numbers" runs of the ROADMAP.  With
``--check`` it exits with status 1 if a golden file changed or a workload
digest does not begin with its entry of `PINNED_DIGESTS` or of
`PINNED_INTEGER_DIGESTS`.  ``--write`` rewrites the golden files that
changed and the entries of `PINNED_DIGESTS`, in this file, that no longer
match; an entry of `PINNED_INTEGER_DIGESTS` only together with its full
digest, and it prints that the integer columns moved.  A re-pin of floats
alone thus leaves the integer pins as they were, and ``--check`` shows
that no step, level or element count moved.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from afem.driver import AdaptiveConfig, RunLog, StepRecord, field_types, run_adaptive, write_csv

GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_CONFIGS = {
    "zshape_diagnostics": dict(domain="zshape", max_elements=20000,
                               track_error=True, diagnostics=True),
    "lshape_lambda_alg": dict(domain="lshape", lambda_alg=1e-4, max_elements=10000),
    "square_linear_error": dict(domain="square_linear", max_elements=20000,
                                track_error=True),
}
# leading hex digits of the sha1 of each benchmark workload's step log, and
# of the CSV text of its integer columns alone
PINNED_DIGESTS = {"zshape-bulk": "e37c01fae310", "zshape-fine": "f9919501cb37",
                  "lshape-tight": "8b71750ae5fa"}
INTEGER_COLUMNS = ["l", "k", "j", "step", "nT", "cumcost", "alg_stop", "pic_stop"]
PINNED_INTEGER_DIGESTS = {"zshape-bulk": "2445cf54971c", "zshape-fine": "4db03c47a5fd",
                          "lshape-tight": "0b2ead9118b1"}


def compare(want: RunLog, got: RunLog) -> list:
    """Report lines for a rerun ``got`` against the stored log ``want``."""
    if got.columns() != want.columns():
        return [f"columns {want.columns()} -> {got.columns()}"]
    n = min(len(want.records), len(got.records))
    lines = [] if n == len(want.records) == len(got.records) else \
        [f"records {len(want.records)} -> {len(got.records)}; compared over the first {n}"]
    types = field_types(StepRecord)
    ints = [c for c in got.columns() if types[c] is not float]
    same = all(getattr(a, c) == getattr(b, c)
               for a, b in zip(want.records[:n], got.records[:n]) for c in ints)
    lines.append(f"integer columns {'identical' if same else 'DIFFER'}")
    moved = next((a.l for a, b in zip(want.records, got.records) if a.nT != b.nT), None)
    if moved is not None:
        lines.append(f"nT first differs on level {moved}")
    for column in got.columns():
        if column in ints:
            continue
        b = np.array([getattr(r, column) for r in want.records[:n]], dtype=float)
        a = np.array([getattr(r, column) for r in got.records[:n]], dtype=float)
        scale = np.maximum(np.abs(b), 1e-12 * np.abs(b).max(initial=0.0))
        change = np.divide(np.abs(a - b), scale, out=np.zeros(n), where=a != b)
        line = f"{column}: largest relative change {change.max(initial=0.0):.3g}"
        if change.any():
            rec = want.records[int(change.argmax())]
            line += f" at (l, k, j) = ({rec.l}, {rec.k}, {rec.j})"
        lines.append(line)
    return lines


def benchmark_configs() -> dict:
    """Workload name -> `AdaptiveConfig` kwargs, read from perfbench/workloads.py."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: workloads.spec(name)["config"] for name in workloads.WORKLOADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the changed golden files and digest pins")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a changed golden file or an unpinned digest")
    args = parser.parse_args(argv)
    same = True
    for name in sorted(GOLDEN_CONFIGS):
        path = GOLDEN / f"{name}.csv"
        old = path.read_text()
        text = run_adaptive(AdaptiveConfig(**GOLDEN_CONFIGS[name])).to_csv()
        same &= text == old
        print(f"{path.name}: {'unchanged' if text == old else 'changed'}")
        for line in compare(RunLog.from_csv(io.StringIO(old)), RunLog.from_csv(io.StringIO(text))):
            print("  " + line)
        if args.write and text != old:
            path.write_text(text)
            print("  rewritten")
    this = Path(__file__)
    for name, config in benchmark_configs().items():
        log = run_adaptive(AdaptiveConfig(**config))
        digest = hashlib.sha1(log.to_csv().encode()).hexdigest()
        ints = hashlib.sha1(write_csv(INTEGER_COLUMNS, map(vars, log.records)).encode()).hexdigest()
        pin, int_pin = PINNED_DIGESTS[name], PINNED_INTEGER_DIGESTS[name]
        pinned, ints_pinned = digest.startswith(pin), ints.startswith(int_pin)
        same &= pinned and ints_pinned
        print(f"{name}: sha1 {digest}{'' if pinned else ' (pinned ' + pin + ')'}")
        print(f"  integer columns: sha1 {ints}{'' if ints_pinned else ' (pinned ' + int_pin + ')'}")
        if args.write and not pinned:
            text = this.read_text().replace(f'"{name}": "{pin}"', f'"{name}": "{digest[:len(pin)]}"')
            if not ints_pinned:
                text = text.replace(f'"{name}": "{int_pin}"', f'"{name}": "{ints[:len(pin)]}"')
            this.write_text(text)
            print("  pin rewritten" if ints_pinned else
                  "  pin rewritten; the integer columns MOVED, their pin rewritten too")
    return 1 if args.check and not same else 0


if __name__ == "__main__":
    sys.exit(main())
