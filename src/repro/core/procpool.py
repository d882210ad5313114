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
:meth:`ShardPool.ordered_map` keeps at most ``window`` jobs submitted
ahead of the consumer and yields results in submission order, so a
skewed shard no longer idles the other workers while peak memory stays
at the documented ``workers x shard_rows``.

Shard jobs are pure functions of their argument tuples, so a failed
shard is safe to re-run: with ``retries=N`` the pool respawns after a
:class:`~concurrent.futures.process.BrokenProcessPool` (a worker
killed mid-shard) and re-submits the window, or re-submits just the
failed shard after an ordinary worker exception, backing off
exponentially between attempts.  Exhausted retries surface as
:class:`ShardedError` carrying the failing shard id and — when the
exception crossed the process boundary intact — the formatted
worker-side traceback; the executor translates that into spool
cleanup, so a crash never leaks a spool directory.
"""

from __future__ import annotations

import multiprocessing
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

    def _executor(self):
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

    def ordered_map(self, fn, jobs, window=None):
        """Yield ``fn(*args)`` per arg-tuple, in submission order.

        At most ``window`` (default ``workers + 1``) jobs are in
        flight; submission advances as the consumer drains results, so
        shard-cost skew cannot idle workers the way lock-step waves
        did, and the parent never holds more than a window of results.
        """
        jobs = iter(jobs)
        if self.workers == 1 and self.backend == "thread":
            for args in jobs:
                yield self._inline(fn, args)
            return
        window = max(int(window if window else self.workers + 1), 1)
        # Pending items are [shard_index, args, future, attempts]; args
        # are retained while in flight so a failed shard can be re-run.
        pending = deque()
        index = 0
        try:
            for args in jobs:
                item = [index, args, None, 0]
                self._submit(fn, pending, item)
                pending.append(item)
                index += 1
                if len(pending) >= window:
                    yield self._next_result(fn, pending)
            while pending:
                yield self._next_result(fn, pending)
        finally:
            for item in pending:
                item[2].cancel()

    def submit(self, fn, *args):
        """``fn(*args)`` on a worker, as a future: no window, no retry."""
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
        through the same retry accounting as result collection: the
        head in-flight shard (the probable victim) is charged an
        attempt, the pool respawned, the window resubmitted, and then
        this item submitted onto the fresh pool.
        """
        while True:
            try:
                item[2] = self._executor().submit(fn, *item[1])
                return
            except BrokenProcessPool as exc:
                victim = pending[0] if pending else item
                self._retry(fn, pending, victim, exc, pool_broken=True)

    def _next_result(self, fn, pending):
        """Resolve the head-of-queue shard, retrying up to the budget."""
        while True:
            item = pending[0]
            try:
                result = item[2].result()
            except BrokenProcessPool as exc:
                self._retry(fn, pending, item, exc, pool_broken=True)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                self._retry(fn, pending, item, exc, pool_broken=False)
            else:
                pending.popleft()
                return result

    def _retry(self, fn, pending, item, exc, pool_broken):
        item[3] += 1
        if item[3] > self.retries:
            raise self._failure(item[0], item[3], exc, pool_broken) from exc
        self._back_off(item[3])
        if pool_broken:
            # The executor is unusable once broken: discard it, respawn
            # lazily, and resubmit the whole in-flight window (their
            # futures all died with the pool).  Only the head item's
            # attempt counter advances — the trailing shards were
            # collateral, not the (probable) culprit.
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            for entry in pending:
                entry[2] = self._executor().submit(fn, *entry[1])
        else:
            item[2] = self._executor().submit(fn, *item[1])

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
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
