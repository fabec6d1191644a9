"""Tier-1 runs with one BLAS thread, as ``bench/run.py`` does.

The tests' small matrices gain nothing from a second BLAS thread: on two
cores it took the suite from 24 to 44 s of wall time and from 23 to 75 s of
CPU time. The variables are read once, when numpy loads OpenBLAS, so they
are set here, before any test module imports numpy; a value already in the
environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
