"""Test-session setup: BLAS gets one thread, as `perfbench/run.py` gives it.

The wall-clock speed-up tests compare one batched call against many single
calls; a BLAS thread pool on a busy host adds noise to the batched side only.
OpenBLAS reads these variables when numpy loads, so they are set here, before
any test module imports numpy; `test_kernel.py::test_blas_runs_one_thread`
checks that they took effect.
"""
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
