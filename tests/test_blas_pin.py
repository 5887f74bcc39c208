"""The package pins BLAS to one thread before numpy loads.

numpy is already loaded in the test process, so each check runs in a fresh
interpreter that imports livesight first, as the CLI, the suite and the
benchmark do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import livesight

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = """
import json, os
import livesight, numpy
a = numpy.ones((256, 256))
a @ a
task = "/proc/self/task"
print(json.dumps({
    "env": {name: os.environ.get(name) for name in %r},
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}))
""" % (PINNED,)


def probe(**env):
    base = {k: v for k, v in os.environ.items() if k not in PINNED}
    base["PYTHONPATH"] = str(Path(livesight.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", PROBE], env={**base, **env},
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_the_suite_imports_livesight_before_numpy():
    # tests/conftest.py's import: the checkpoint keys the tests see are the CLI's
    assert livesight.NUMPY_FIRST is False


def test_importing_livesight_pins_one_blas_thread():
    seen = probe()
    assert seen["env"] == dict.fromkeys(PINNED, "1")
    if seen["threads"] is not None:  # one thread after a GEMM: OpenBLAS started no other
        assert seen["threads"] == 1


def test_a_thread_count_the_user_set_is_kept():
    seen = probe(OPENBLAS_NUM_THREADS="2")
    assert seen["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                           "MKL_NUM_THREADS": "1"}
