"""The one worker pool under every batch run.

Every per-shard unit of work — property kernels, chunked structure
emission + relabel — goes through one :class:`ShardPool`; an
in-memory run's one shard per table runs inline, on the same retry
budget, and its tasks overlap on a second pool's threads (``submit``).
The backend is chosen here and nowhere else: the run keeps its global
state in the spool and formats its export in the parent whichever
backend runs the shards, so the choice changes where kernels run,
never what they read or write.  The pool abstracts the two backends:

``thread``
    a :class:`~concurrent.futures.ThreadPoolExecutor`; cheap, shares
    the parent's memory, but the GIL caps the numpy-light portions of
    the kernels at roughly one core.

``process``
    a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
    (forked where the platform allows, so runtime-registered
    generators are inherited).  Workers receive small picklable
    descriptors — spool paths, shard bounds, seeds — write their
    results straight into the spool directory, and ack metadata back;
    the spool files are the IPC channel, the result queue carries only
    dicts.

Scheduling is a *bounded in-flight window*, not lock-step waves:
:meth:`ShardPool.ordered_map` yields results in submission order with
at most ``workers + 1`` jobs in flight — shared by the threads mapping
at once, as out of core the plan's independent tasks do — so a skewed
shard no longer idles the other workers while peak memory stays at the
documented ``(workers + 1) x shard_rows``.

Shard jobs are pure functions of their argument tuples, so a failed
shard is safe to re-run: with ``retries=N`` the pool respawns after a
:class:`~concurrent.futures.process.BrokenProcessPool` (a worker
killed mid-shard) once, however many callers saw it break, and each
caller re-submits its window; after an ordinary worker exception it
re-submits just the failed shard, backing off exponentially between
attempts.  Exhausted retries surface as :class:`ShardedError`
carrying the failing shard id and — when the exception crossed the
process boundary intact — the formatted worker-side traceback; the
executor translates that into spool cleanup, so a crash never leaks a
spool directory.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = ["BACKENDS", "ShardPool", "ShardedError"]

BACKENDS = ("thread", "process")


class ShardedError(RuntimeError):
    """A sharded worker failed irrecoverably (retries exhausted).

    Attributes
    ----------
    shard:
        submission index of the failing shard job (None when unknown).
    worker_traceback:
        the formatted traceback from the worker side, when one crossed
        the process boundary; None for a worker killed outright (the
        kernel leaves no Python traceback to forward).
    """

    def __init__(self, message, shard=None, worker_traceback=None):
        super().__init__(message)
        self.shard = shard
        self.worker_traceback = worker_traceback


def _remote_traceback(exc):
    """Formatted worker-side traceback for a pool exception.

    ``ProcessPoolExecutor`` chains a ``_RemoteTraceback`` (the string
    form of the worker's traceback) as ``__cause__`` when it re-raises
    a picklable worker exception in the parent; fall back to the local
    format for thread-backend exceptions, whose traceback objects are
    shared directly.
    """
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    formatted = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return formatted or None


class ShardPool:
    """Bounded-window ordered scheduler over a thread/process pool.

    The pool is created lazily on first use and persists across tasks
    (one fork per run, not per shard).  ``workers == 1`` on the thread
    backend short-circuits to inline execution — the reference serial
    path every other configuration must byte-match; it retries on the
    same budget, and an exhausted budget propagates the kernel's own
    exception, exactly as a serial run would raise it.

    ``retries`` bounds re-runs *per shard*; each re-run sleeps an
    exponential backoff first (``BACKOFF * 2**(attempt-1)`` seconds,
    capped at :data:`BACKOFF_CAP`).
    """

    BACKOFF = 0.1
    BACKOFF_CAP = 2.0

    def __init__(self, backend="thread", workers=1, retries=0):
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.workers = max(int(workers), 1)
        self.retries = max(int(retries), 0)
        self._pool = None
        self._lock = threading.Lock()  # callers on threads share _pool
        # The in-flight bound every caller of ordered_map shares.
        self._slots = threading.BoundedSemaphore(self.workers + 1)

    def _executor(self):  # with ``_lock`` held
        if self._pool is None:
            if self.backend == "process":
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    ctx = multiprocessing.get_context("spawn")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=ctx
                )
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def ordered_map(self, fn, jobs):
        """Yield ``fn(*args)`` per arg-tuple, in submission order.

        At most ``workers + 1`` jobs are in flight across every thread
        mapping at once; submission advances as the consumers drain
        results, so shard-cost skew cannot idle workers the way
        lock-step waves did.  A caller with jobs in flight drains its
        own oldest rather than wait for a slot: callers never wait on
        each other.
        """
        jobs = iter(jobs)
        if self.workers == 1 and self.backend == "thread":
            for args in jobs:
                yield self._inline(fn, args)
            return
        # Pending items hold a slot until yielded: [index, args, future,
        # attempts, executor], args kept so a failed shard can re-run.
        pending = deque()
        try:
            for index, args in enumerate(jobs):
                while not self._slots.acquire(blocking=not pending):
                    yield self._next_result(fn, pending)
                item = [index, args, None, 0, None]
                pending.append(item)
                self._submit(fn, pending, item)
            while pending:
                yield self._next_result(fn, pending)
        finally:
            for item in pending:
                if item[2] is not None:
                    item[2].cancel()
                self._slots.release()

    def submit(self, fn, *args):
        """``fn(*args)`` on a worker, as a future: no window, no retry."""
        with self._lock:
            return self._executor().submit(fn, *args)

    def _inline(self, fn, args):
        """``fn(*args)`` in this thread, re-run on failure within the
        same budget and backoff as a pooled shard; the kernel's own
        exception propagates once the budget is spent."""
        attempts = 0
        while True:
            try:
                return fn(*args)
            except Exception:
                attempts += 1
                if attempts > self.retries:
                    raise
                self._back_off(attempts)

    def _back_off(self, attempts):
        delay = min(self.BACKOFF * (2 ** (attempts - 1)), self.BACKOFF_CAP)
        if delay > 0:
            time.sleep(delay)

    def _submit(self, fn, pending, item):
        """Submit ``item``'s job, absorbing a pool that broke under us.

        A worker SIGKILL can surface on the *submit* side — the pool
        breaks while the window is still filling — so submission runs
        through the same retry accounting as result collection, the
        head in-flight shard (the probable victim) charged.
        """
        while True:
            with self._lock:
                executor = self._executor()
                try:
                    item[2], item[4] = executor.submit(fn, *item[1]), executor
                    return
                except BrokenProcessPool as exc:
                    error = exc
            self._retry(fn, pending, pending[0], error, executor)

    def _next_result(self, fn, pending):
        """Resolve the head-of-queue shard, retrying up to the budget;
        its slot is free once it is returned."""
        while True:
            item = pending[0]
            try:
                result = item[2].result()
            except BrokenProcessPool as exc:
                self._retry(fn, pending, item, exc, item[4])
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                self._retry(fn, pending, item, exc)
            else:
                pending.popleft()
                self._slots.release()
                return result

    def _retry(self, fn, pending, item, exc, broken=None):
        """Re-run ``item`` after ``exc`` — or, when ``broken`` is the
        executor that broke under it, every item this caller had on it.
        The first caller to see an executor broken discards it (it
        respawns lazily) and is charged an attempt, its head being the
        probable victim; the others' items were collateral."""
        victim = broken is None
        if broken is not None:
            with self._lock:
                victim = self._pool is broken
                if victim:
                    self._pool = None
            if victim:
                broken.shutdown(wait=False)
        if victim:
            item[3] += 1
            if item[3] > self.retries:
                raise self._failure(
                    item[0], item[3], exc, broken is not None
                ) from exc
            self._back_off(item[3])
        rerun = [item] if broken is None else [
            entry for entry in pending if entry[4] is broken]
        with self._lock:
            executor = self._executor()
            for entry in rerun:
                entry[2], entry[4] = executor.submit(fn, *entry[1]), executor

    def _failure(self, shard, attempts, exc, pool_broken):
        tried = f"after {attempts} attempt{'s' if attempts != 1 else ''}"
        if pool_broken:
            return ShardedError(
                f"sharded worker process died mid-shard (shard {shard}, "
                f"{tried}); the run was aborted and its spool output "
                "discarded",
                shard=shard,
                worker_traceback=None,
            )
        remote = _remote_traceback(exc)
        message = (
            f"sharded worker failed on shard {shard} {tried}: {exc!r}"
        )
        if remote:
            message += "\n--- worker traceback ---\n" + remote.rstrip("\n")
        return ShardedError(message, shard=shard, worker_traceback=remote)

    def close(self):
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
