"""Traced-heap measurements for the memory-bound tests."""

import tracemalloc


def traced_growth(run, small, large):
    """How much higher the traced heap peaks during `run(large)` than during
    `run(small)`, each measured after a warm-up call."""

    def peak(arg):
        run(arg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(arg)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    return peak(large) - peak(small)
