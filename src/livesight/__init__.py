"""Foresight-augmented ranking for live-stream rooms.

Two forecasters look ahead from the current time bucket — one predicts the
next few values of the room's statistic panel, the other the next product
category — and their outputs (plus internal encodings) are frozen and fed
as extra features into a multi-task CTR/CVR ranker.

Importing the package pins BLAS to one thread, so that a run uses one CPU
and trains the same forecaster floats on any core count. A value already in
the environment wins. The pin acts only if numpy is not loaded yet: a caller
that imports numpy before livesight keeps numpy's own thread count.
`NUMPY_FIRST` and `BLAS_THREADS` record which case held and the thread
variables as numpy read them, for the forecaster checkpoint key.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_FIRST = "numpy" in sys.modules
_unpinned = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")
# the variables as numpy read them on its first import: before the pin if it came first
BLAS_THREADS = _unpinned if NUMPY_FIRST else {name: os.environ[name] for name in BLAS_THREAD_VARS}
