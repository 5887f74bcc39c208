# Import livesight before any test module imports numpy. The package pins
# BLAS to one thread only if numpy is not loaded yet, and the checkpoint key
# hashes `livesight.NUMPY_FIRST`: without this import the suite loads numpy
# first, BLAS stays unpinned and every checkpoint name changes.
import livesight  # noqa: F401
