"""Independent jobs on forked worker processes, one per CPU this process may
use (``taskset`` limits them).  Results come back in item order and each job
is deterministic, so the output is the same for any worker count.

Before the first fork the parent writes all the work into one task pipe, in
one write, and closes its write end: min(n, L) four-byte lane numbers, with
L = PIPE_BUF // 4 (1024 on Linux), which fit in any pipe.  A worker takes lane
j off the pipe and runs jobs j, j + L, j + 2L, ... in order, then the next
lane, until the pipe is empty.  Each worker sends one frame per job back on
its own result pipe.  The parent runs no thread of its own: it polls the
result pipes, and every worker is killed or has exited, and is reaped, before
fork_map returns or raises.
"""

import os
import sys
import warnings

_job = None  # (fn, items) of the fork_map whose workers are running, inherited by them

_INDEX_BYTES = 4  # one lane number on the task pipe, little-endian
_HEADER_BYTES = 8  # the length of the pickled frame that follows, little-endian
_READ_BYTES = 1 << 16  # one result-pipe read: the default pipe capacity
_LOST_LISTED = 10  # the lost-job error lists this many indices, then counts the rest


def worker_count() -> int:
    """CPUs in this process's affinity mask; 1 where the platform cannot fork or has no mask."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


class _WorkerTraceback(Exception):
    """A failed job's traceback in its worker, raised as its exception's cause."""


def _serve(tasks: int, out: int, lanes: int) -> None:
    """A worker: for each lane number read off the task pipe until it is
    empty, run that lane's jobs (every lanes-th index from the lane number) in
    order, and write (index, ok, result or (exception, traceback), warnings)
    back for each."""
    import pickle

    fn, items = _job
    # every lane number is in the pipe before any worker starts, so each read returns a whole one
    while chunk := os.read(tasks, _INDEX_BYTES):
        for index in range(int.from_bytes(chunk, "little"), len(items), lanes):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    value, ok = fn(items[index]), True
                except Exception as exc:
                    import traceback  # only here: a worker that fails no job never loads it

                    value, ok = (exc, traceback.format_exc()), False
            caught = [(str(w.message), w.category) for w in caught]
            try:
                frame = pickle.dumps((index, ok, value, caught), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # a reduce method may raise anything
                what = "result" if ok else f"exception {value[0]!r}"
                error = RuntimeError(f"fork_map job {index}: cannot pickle its {what} ({type(exc).__name__}: {exc})")
                frame = pickle.dumps((index, False, (error, "" if ok else value[1]), caught), pickle.HIGHEST_PROTOCOL)
            view = memoryview(len(frame).to_bytes(_HEADER_BYTES, "little") + frame)
            while view:
                view = view[os.write(out, view) :]


def fork_map(fn, items: list) -> list:
    """[fn(x) for x in items], on up to worker_count() forked processes.

    Workers inherit fn and items through fork, so fn may be a closure: only
    an index goes out and only a result is pickled back.  One worker or item,
    or a call from inside a job, runs in-process, so nothing oversubscribes.
    A job's warnings are re-issued here in item order.  The first failing job
    in item order raises its exception, with the worker's traceback as its
    cause, after the warnings of the jobs before it; a worker that exits
    without returning a job raises RuntimeError naming the first lost jobs.
    """
    global _job
    workers = min(worker_count(), len(items))
    if workers <= 1 or _job is not None:
        return [fn(x) for x in items]
    # imported here: at the top they would add to every command's start-up
    import pickle
    import select
    import signal

    n = len(items)
    lanes = min(n, select.PIPE_BUF // _INDEX_BYTES)
    sys.stdout.flush()  # or each worker would write the parent's buffered output again
    sys.stderr.flush()
    pids, buffers = [], {}  # buffers: result pipe -> bytes read but not yet parsed
    task_r = task_w = -1
    finished = False
    # SIGINT waits while the workers are forked, since CPython drops an exception raised
    # in its at-fork callbacks, and while they are reaped; then it raises
    caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        _job = (fn, items)
        task_r, task_w = os.pipe()
        # at most PIPE_BUF bytes into an empty pipe: one write, which never blocks
        os.write(task_w, b"".join(j.to_bytes(_INDEX_BYTES, "little") for j in range(lanes)))
        os.close(task_w)  # so a worker's read of the emptied pipe returns b""
        task_w = -1
        for _ in range(workers):
            out_r, out_w = os.pipe()
            buffers[out_r] = bytearray()
            try:
                pid = os.fork()
            except OSError:
                os.close(out_w)
                raise
            if pid == 0:  # the worker: it must leave through os._exit, never return
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)
                    for fd in buffers:
                        os.close(fd)
                    _serve(task_r, out_w, lanes)
                except Exception:
                    import traceback

                    traceback.print_exc()
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(0)
            pids.append(pid)
            os.close(out_w)
        os.close(task_r)
        task_r = -1
        signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)

        poller = select.poll()
        for fd in buffers:
            poller.register(fd, select.POLLIN)
        done, results = [None] * n, []  # done[i]: (ok, value, warnings) of job i, until re-issued
        while len(results) < n:
            if not buffers:
                lost = [i for i in range(len(results), n) if done[i] is None]
                more = f" and {len(lost) - _LOST_LISTED} more" if len(lost) > _LOST_LISTED else ""
                del lost[_LOST_LISTED:]
                raise RuntimeError(f"fork_map: worker processes exited without returning job(s) {lost}{more}")
            for fd, _ in poller.poll():
                chunk = os.read(fd, _READ_BYTES)
                if not chunk:  # the worker has exited
                    poller.unregister(fd)
                    os.close(fd)
                    del buffers[fd]
                    continue
                buf = buffers[fd]
                buf += chunk
                while len(buf) >= _HEADER_BYTES:
                    end = _HEADER_BYTES + int.from_bytes(buf[:_HEADER_BYTES], "little")
                    if len(buf) < end:
                        break
                    # a view, not a slice, which would copy the frame; released before buf shrinks
                    with memoryview(buf)[_HEADER_BYTES:end] as frame:
                        index, *outcome = pickle.loads(frame)
                    done[index] = outcome
                    del buf[:end]
            while len(results) < n and done[len(results)] is not None:
                ok, value, caught = done[len(results)]
                done[len(results)] = ()  # re-issued: keep no second reference to the result
                for message, category in caught:
                    warnings.warn(message, category, stacklevel=2)
                if not ok:
                    exc, trace = value
                    raise exc from (_WorkerTraceback(trace) if trace else None)
                results.append(value)
        finished = True
        return results
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            _job = None
            for pid in pids:
                if not finished:  # done workers exit by themselves once the task pipe is empty and closed
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for fd in (task_r, task_w, *buffers):
                if fd >= 0:
                    os.close(fd)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, caller_mask)
