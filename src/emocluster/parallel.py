"""Independent jobs on forked worker processes, one per CPU this process may
use (``taskset`` limits them).  Results come back in item order and each job
is deterministic, so the output is the same for any worker count.
"""

import os
import warnings

_job = None  # (fn, items) of the fork_map whose workers are running, inherited by them


def worker_count() -> int:
    """CPUs in this process's affinity mask; 1 where the platform cannot fork or has no mask."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def _run(index: int):
    fn, items = _job
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(items[index])
    return result, [(str(w.message), w.category) for w in caught]


def fork_map(fn, items: list) -> list:
    """[fn(x) for x in items], on up to worker_count() forked processes.

    Workers inherit fn and items through fork, so fn may be a closure: only
    an index goes out and only a result is pickled back.  One worker or item,
    or a call from inside a job, runs in-process, so nothing oversubscribes.
    A job's warnings are re-issued here in item order; its exception is raised.
    """
    global _job
    workers = min(worker_count(), len(items))
    if workers <= 1 or _job is not None:
        return [fn(x) for x in items]
    # imported here: at the top they would add to every command's start-up
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    _job = (fn, items)
    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        results = []
        for result, caught in pool.map(_run, range(len(items))):
            for message, category in caught:
                warnings.warn(message, category, stacklevel=2)
            results.append(result)
        return results
    finally:
        pool.shutdown(cancel_futures=True)
        _job = None
