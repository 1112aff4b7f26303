"""Row blocks of one network evaluation, run on every BLAS thread's core.

OpenBLAS runs each matrix product of the sine stack on all its threads,
but numpy's elementwise passes (the shift adds, the sine, the cosine
slope, the frame sums) run on the calling thread alone, so the other
cores wait through about half of each step. `RowRunner.blocks` instead
splits the rows into one block per BLAS thread and runs each block's
whole layer loop in its own thread while BLAS is pinned to one thread,
so every core runs both kinds of work.

No row's value depends on its block: the layer products round alike at
any row offset and thread count, and the one-column output layer is a
row-wise reduction, not a BLAS product that rounds by row offset. A
weight gradient, a sum over every row, is formed per frame inside the
blocks and summed over the frames in frame order once they have joined.
So `train`, `encode` and `decode` write the same bytes for any thread
count.

A second block pays from about 2^14 activation elements a block (rows
times the layer width) on. On a 2-core Xeon at 2.1 GHz (float32, latent
steps of 4- and 10-layer networks at widths 32 to 256, OpenBLAS's own
threads at rest) two blocks beat one at 21 of 22 points of 2^14 to 2^16
elements, cutting the step time by 19-40% at 2^16, and lost at 15 of 16
points of 2^12 and 2^13. Right after unpinned calls, while OpenBLAS's
threads still spin, pinned blocks lost at up to 2^16 elements. So the
floor, BLOCK_FLOOR, is four times the break-even.

The pin goes through `openblas_set_num_threads_local` of the OpenBLAS
numpy loaded. In the scipy-openblas builds numpy ships, that call sets
the process-wide thread count (and returns the previous one), so the pin
is held once for all callers: the first caller to enter a block phase
sets one thread, the last to leave restores the previous count. Without
the symbol every evaluation runs as one block, on the calling thread.
"""

from __future__ import annotations

import ctypes
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from functools import partial

# Fewest activation elements (rows x layer width) in a block: four times
# the measured break-even above, below which the thread hand-off costs
# more than the second core gives back.
BLOCK_FLOOR = 2**16


def _openblas_set_threads():
    """`openblas_set_num_threads_local` as a ctypes function, or None.

    The symbol is looked up through numpy's core extension module, so the
    search covers exactly the BLAS library that numpy itself links.
    """
    try:
        from numpy._core import _multiarray_umath
        fn = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


class RowRunner:
    """Runs a function over contiguous row blocks, one per BLAS thread.

    `set_threads(n)` sets the BLAS thread count and returns the previous
    one; None means BLAS cannot be pinned and every call runs as one
    block. The block count is the BLAS thread count at construction.
    Block threads come from one pool shared by every caller.
    """

    def __init__(self, set_threads):
        self._set_threads = set_threads
        self.threads = 1
        if set_threads is not None:
            previous = set_threads(1)
            set_threads(previous)
            self.threads = max(1, previous)
        self._lock = threading.Lock()
        self._holders = 0
        self._restore = self.threads
        self._pool: ThreadPoolExecutor | None = None

    def cuts(self, units: int, unit_size: int) -> list[int]:
        """Block boundaries, in units, over `units` runs of `unit_size`
        activation elements.

        The blocks hold whole units, as evenly as possible; there are at most
        `threads` of them and each holds at least BLOCK_FLOOR elements, or
        there is one block.
        """
        n = min(self.threads, units)
        while n > 1 and (units // n) * unit_size < BLOCK_FLOOR:
            n -= 1
        return [units * i // n for i in range(n + 1)]

    @contextmanager
    def blocks(self, units: int, unit_size: int):
        """Yield a function that runs `fn(lo, hi)` over each block of
        `units` runs of `unit_size` activation elements, and returns the
        results in block order.

        With one block, everything runs in the calling thread, as is. With
        several, BLAS stays pinned to one thread for the whole `with`
        body, so the small products around the blocks do not wake
        OpenBLAS's own threads, which would then spin on the cores the
        blocks need.
        """
        cuts = self.cuts(units, unit_size)
        with self._pinned() if len(cuts) > 2 else nullcontext():
            yield partial(self._map, cuts)

    def _map(self, cuts, fn) -> list:
        """`fn(lo, hi)` over each pair of neighbouring cuts, the first in
        the calling thread and the rest in the pool; an exception from any
        call is raised once every call has finished."""
        if len(cuts) == 2:
            return [fn(cuts[0], cuts[1])]
        pool = self._executor()
        futures = [pool.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        try:
            first = fn(cuts[0], cuts[1])
        finally:
            wait(futures)
        return [first] + [f.result() for f in futures]

    @contextmanager
    def _pinned(self):
        with self._lock:
            if not self._holders:
                self._restore = self._set_threads(1)
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if not self._holders:
                    self._set_threads(self._restore)

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.threads - 1,
                                                thread_name_prefix="vfuncta-rows")
            return self._pool

    def close(self) -> None:
        """Stop the pool's threads; a later block phase starts a new pool."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


RUNNER = RowRunner(_openblas_set_threads())
