"""Worker pools: shard evaluation batches across processes.

:class:`WorkerPool` runs ``map(fn, items)`` in-process for
``workers=1`` and on a forking :mod:`multiprocessing` pool otherwise;
there ``fn`` must be a module-level (picklable) function, and the
optional ``initializer`` seeds per-process state once.

Either way a worker exception fails the whole batch loudly with a
:class:`WorkerPoolError` naming the failed item — no hang, no partial
silent result — and a failed process pool is terminated so no orphan
workers linger.
"""

from __future__ import annotations

import multiprocessing


class WorkerPoolError(RuntimeError):
    """A worker failed while evaluating a batch."""


def _context():
    # fork shares the parent's loaded model/board state for free; fall
    # back to spawn where fork does not exist (non-POSIX platforms).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform dependent
        return multiprocessing.get_context("spawn")


class WorkerPool:
    """``map`` batches across ``workers`` processes (1 = in-process).

    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(self, workers=1, initializer=None, initargs=()):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = None
        if workers > 1:
            self._pool = _context().Pool(processes=workers,
                                         initializer=initializer,
                                         initargs=initargs)
        elif initializer is not None:
            initializer(*initargs)

    def map(self, fn, items):
        """Apply ``fn`` to every item; order-preserving.  Raises
        :class:`WorkerPoolError` if any worker raises."""
        items = list(items)
        if self._pool is not None:
            try:
                return self._pool.map(fn, items)
            except Exception as error:
                self.close()
                raise WorkerPoolError(
                    f"worker failed while evaluating a batch of "
                    f"{len(items)}: {error!r}") from error
        results = []
        for index, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as error:
                raise WorkerPoolError(
                    f"worker failed on item {index + 1}/{len(items)}: "
                    f"{error!r}") from error
        return results

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
