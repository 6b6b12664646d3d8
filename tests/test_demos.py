"""Every demo script runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    # one BLAS thread as in the benchmark; TMPDIR keeps demo output in tmp_path
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
