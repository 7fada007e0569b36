"""Test-session setup: BLAS gets one thread, as `perfbench/run.py` gives it.

The wall-clock speed-up tests compare one batched call against many single
calls; a BLAS thread pool on a busy host adds noise to the batched side only.
OpenBLAS reads these variables when numpy loads, so they are set here, before
any test module imports numpy; `test_kernel.py::test_blas_runs_one_thread`
checks that they took effect.

`run_python` runs code in a fresh interpreter, for checks of what happens
when a process starts: which BLAS kernel numpy picks, which modules load.
`openblas_lib` finds the OpenBLAS library numpy loaded, and `blas_coretype`
names each kernel a fresh process can be made to pick with OPENBLAS_CORETYPE.
"""
import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


@pytest.fixture
def run_python():
    """`run(code, *args, timeout=..., **env)` runs `python -c code *args` in a
    fresh process that imports this package from the source tree the tests
    import, with the keyword arguments as extra environment variables, and
    returns the CompletedProcess with text stdout and stderr."""
    import microgait
    src = os.path.dirname(os.path.dirname(microgait.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(code, *args, timeout, **env):
        return subprocess.run([sys.executable, "-c", code, *args],
                              env={**os.environ, **env, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=timeout)
    return run


@pytest.fixture
def openblas_lib():
    """The path of the scipy-openblas library that numpy's wheels bundle;
    skips the test where numpy has none."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if not libs:
        pytest.skip("numpy does not bundle scipy-openblas here")
    return libs[0]


# each kernel with the /proc/cpuinfo flag it needs
@pytest.fixture(params=[("SkylakeX", "avx512f"), ("Haswell", "avx2"), ("Prescott", "pni")],
                ids="-".join)
def blas_coretype(request, openblas_lib):
    """An OPENBLAS_CORETYPE value, one per param; skips a kernel this CPU cannot run."""
    coretype, flag = request.param
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists() and flag not in cpuinfo.read_text().split():
        pytest.skip(f"this CPU cannot run the {coretype} kernel")
    return coretype
