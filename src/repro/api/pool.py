"""The one process-pool fan-out every orchestrator shares.

The suite (experiments), the DSE engine (candidates) and
:meth:`~repro.api.session.Session.run_batch` (requests; scale-out chips
ride on it) all fan work out through :func:`fan_out`, so submission,
completion-order collection and worker-death handling live in one place.
A worker that dies mid-task (killed, ``os._exit``, out of memory) breaks
the whole pool; every task left unfinished then comes back as a
:class:`WorkerDied` naming its index, instead of hanging or escaping as a
bare ``BrokenProcessPool``.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Sequence


class WorkerDied(RuntimeError):
    """A pool worker process died before its task finished."""


def runs_inline(
    tasks: Sequence, jobs: int, pool: ProcessPoolExecutor | None = None
) -> bool:
    """Whether :func:`fan_out` runs ``tasks`` in the calling process."""
    return len(tasks) <= 1 or (pool is None and jobs <= 1)


def fan_out(
    fn: Callable[..., Any],
    tasks: Sequence[tuple],
    jobs: int,
    pool: ProcessPoolExecutor | None = None,
) -> Iterator[tuple[int, Any, BaseException | None]]:
    """Run ``fn(*task)`` for every task; yield ``(index, value, error)``.

    Results arrive in completion order.  ``error`` is ``None`` on success;
    a task's exception comes back as the exception object, never raised.
    Runs inline when :func:`runs_inline` says so; otherwise on ``pool``
    when given (left open: a long-lived pool keeps its workers' memos),
    else on a ``min(jobs, len(tasks))``-worker pool owned and closed here.
    ``fn`` must be a module-level function: workers receive it by name.
    """
    if runs_inline(tasks, jobs, pool):
        for index, task in enumerate(tasks):
            try:
                value = fn(*task)
            except Exception as error:
                yield index, None, error
            else:
                yield index, value, None
        return
    owned = pool is None
    executor = ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) if owned else pool
    pending = {}
    try:
        for index, task in enumerate(tasks):
            try:
                pending[executor.submit(fn, *task)] = index
            except BrokenProcessPool as broken:
                # A worker already died (in this call or an earlier one on
                # a shared pool): nothing more can be submitted.
                for unsent in range(index, len(tasks)):
                    yield unsent, None, _worker_died(unsent, broken)
                break
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool as broken:
                    yield index, None, _worker_died(index, broken)
                except Exception as error:
                    yield index, None, error
                else:
                    yield index, value, None
    finally:
        if owned:
            executor.shutdown(wait=True, cancel_futures=True)


def _worker_died(index: int, cause: BrokenProcessPool) -> WorkerDied:
    error = WorkerDied(f"a pool worker process died before task {index} finished")
    error.__cause__ = cause
    return error
