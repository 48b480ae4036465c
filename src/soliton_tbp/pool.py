"""Worker processes for sweeps and large phase grids: how many, when they start, and the ordered map.

Each task is thousands of short numpy calls, so threads would serialize
on the GIL; the workers are processes forked from the caller, at most
`SOLITON_TBP_THREADS` of them.  Fork, not spawn or forkserver: those
re-import __main__, which breaks a caller's script without a __main__
guard, and re-import numpy and the package in every worker.  A fork
copies only the calling thread, so a caller with other threads (whose
locks the copy could inherit held) runs its tasks in-process, and so does
a worker: a pool is never started inside another, and the variable caps
every level.  The workers inherit what the caller holds at the fork, so
a task need only carry what differs between tasks.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from functools import partial

from .errors import InvalidParameterError

THREADS_ENV = "SOLITON_TBP_THREADS"
# Tasks a pool keeps submitted and not yet read, per worker: the parent holds
# that many futures however many tasks it maps.
PENDING_PER_WORKER = 8

# True while this process holds a pool, and in the workers forked from it.
_pooled = False


def _worker_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        count = int(env) if env.strip().isdecimal() else 0
        if count < 1:
            raise InvalidParameterError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
        return count
    # the CPUs this process may run on: a cpuset-limited container's, not the host's
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


def _call(task):
    fn, args = task
    return fn(*args)


def _ordered_map(pool, tasks, pending: int):
    """The results of ``tasks``, (function, arguments) pairs run in ``pool``, in order.

    At most ``pending`` tasks are submitted and not yet read.  ``tasks`` is
    read lazily: the task after a yielded result is built once the caller
    has consumed it.
    """
    futures = deque()
    for fn, args in tasks:
        futures.append(pool.submit(fn, *args))
        if len(futures) == pending:
            yield futures.popleft().result()
    while futures:
        yield futures.popleft().result()


@contextmanager
def ordered_pool(workers: int, tasks: int):
    """(size, run): ``run(tasks)`` yields the results of (function, arguments) pairs in order.

    Up to ``workers`` processes are forked when there are more than one of
    them and of ``tasks`` (the most tasks one ``run`` hands out), this
    process has one thread and is not a worker, and the platform has the
    "fork" start method; ``run`` then keeps at most `PENDING_PER_WORKER`
    tasks per worker submitted and not yet read.  Otherwise ``run`` calls
    the tasks in-process and ``size`` is 1.  A task's error is raised where its
    result is read.  No worker outlives the block, on success or error.
    """
    global _pooled
    if workers > 1 and tasks > 1 and not _pooled and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            size = min(workers, tasks)
            _pooled = True
            pool = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"))
            try:
                yield size, partial(_ordered_map, pool, pending=PENDING_PER_WORKER * size)
            finally:
                _pooled = False
                # after an error, cancel what has not started and reap every worker
                pool.shutdown(wait=True, cancel_futures=True)
            return
    yield 1, partial(map, _call)
