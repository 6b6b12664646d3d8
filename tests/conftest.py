"""One BLAS thread for the whole suite.

A threaded BLAS splits a long dot product across threads and sums the
parts in another order, so the last bits of a PCG step depend on the
thread count.  The pinned digests of `tests/golden.py` are taken with one
thread, and a grid member outside the paper's regime moves its step count
on those bits.  pytest imports this file before any test module imports
numpy, so the pins below take effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
