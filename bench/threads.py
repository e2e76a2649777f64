"""Thread pinning shared by the launcher and the worker.

The variables are set before numpy is imported, so no BLAS or OpenMP pool
starts more threads than the single worker the benchmark assumes.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
