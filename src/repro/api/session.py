"""The session: one ``run(request) -> RunResult`` entry point for everything.

:class:`Session` is the facade every consumer in the repository goes
through — the experiment harness, the DSE objective evaluation and the
``sim``/``scaleout`` CLI verbs.
It layers three levels of reuse under a single dispatch path:

1. an **in-process memo** keyed by the request's canonical cache key, so
   repeated identical runs inside one process (sweeps, suite experiments
   sharing a baseline) never re-simulate;
2. the harness **on-disk** :class:`~repro.harness.cache.ResultCache`
   (when the session is given one, or a ``results_dir`` to build one in),
   keyed by the same canonical request plus the source-tree version, so
   re-runs across processes are incremental exactly like suite re-runs;
3. a **process-pool fan-out** in :meth:`Session.run_batch`, through the
   same :func:`~repro.api.pool.fan_out` the suite and DSE engines use:
   workers rebuild the per-process dataset and preprocessing-plan memos
   deterministically, results travel as JSON-normalised payloads, and
   serial, parallel and cached batches are therefore identical.

Because every result is normalised through its JSON form before it is
memoised, stored or returned, a fresh run, a memo hit, a disk hit and a
worker-process run of the same request all yield byte-identical payloads.
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.api.backends import get_backend
from repro.api.pool import WorkerDied, fan_out, runs_inline
from repro.api.request import SimRequest
from repro.api.result import RunResult
from repro.obs import TELEMETRY_KEY, aggregate_phases, metrics, trace
from repro.obs import ledger as run_ledger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.cache import ResultCache

#: Process-wide memo of run payloads, keyed by the request's cache key.
#: Each payload is kept once, as its JSON text, and every hit decodes a
#: fresh dict, so no caller shares nested state with the memo or with
#: another caller.  Consulted even by cache-disabled sessions; cleared via
#: :func:`clear_memo`.
_RUN_MEMO: dict[str, str] = {}

#: Memo entry bound: payloads carry full per-phase detail, so an unbounded
#: memo would grow with every distinct request for the life of the process
#: (e.g. a long DSE search).  Least-recently-used eviction keeps the hot
#: working set — sweeps, shared baselines — resident:
#: insertion order is recency order, and :meth:`Session._lookup` refreshes
#: an entry's position on every memo hit.
_MEMO_LIMIT = 4096


def clear_memo() -> None:
    """Drop every memoised run payload (tests that vary global state)."""
    _RUN_MEMO.clear()


def _memoise(key: str, payload: dict) -> None:
    """Insert one (normalised) payload as JSON text, evicting least-recent
    entries past :data:`_MEMO_LIMIT`."""
    _RUN_MEMO.pop(key, None)  # repro: allow(CONC001) per-process LRU memo; detached workers rebuild payloads deterministically, never share it back
    while len(_RUN_MEMO) >= _MEMO_LIMIT:
        _RUN_MEMO.pop(next(iter(_RUN_MEMO)))  # repro: allow(CONC001) per-process LRU memo eviction; see above
    _RUN_MEMO[key] = json.dumps(payload)  # repro: allow(CONC001) per-process LRU memo insert; see above


def _normalise(payload: dict) -> dict:
    """Round-trip a payload through JSON so fresh, memoised, cached and
    worker-produced results are byte-identical (numpy scalars included)."""
    from repro.harness.report import json_default

    return json.loads(json.dumps(payload, default=json_default))


def _execute_body(request: SimRequest) -> dict:
    """Run one request under a ``session.execute`` span; returns its normalised payload."""
    with trace.span(
        "session.execute", backend=request.backend, dataset=request.dataset
    ):
        start = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        result = get_backend(request.backend).run(request)
        result.seconds = time.perf_counter() - start  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
    return _normalise(result.to_dict())


def _execute_request(request_dict: dict, telemetry: bool = False) -> dict:
    """Run one request in a worker; module-level so it pickles across.

    Workers rebuild the (memoised) bundles and shard plans from the request,
    which is deterministic — the same mechanism the suite and DSE executors
    rely on.  Only the parent session memoises and persists the payload.

    With ``telemetry`` the worker records its spans and metrics locally and
    ships them home under :data:`~repro.obs.TELEMETRY_KEY`, attached *after*
    normalisation; the parent strips the key before the payload reaches
    memoisation, storage or the caller, so the byte-identity contract is
    untouched.
    """
    request = SimRequest.from_dict(request_dict)
    if not telemetry:
        return _execute_body(request)
    # Start from a clean slate: a forked worker inherits the parent's (or a
    # previous task's) tracer state, which must not leak into this task.
    trace.disable()  # repro: allow(CONC002) clean-slate reset of inherited tracer state before scoped collection; worker-local by design
    trace.drain()  # repro: allow(CONC002) clean-slate drain of inherited spans; worker-local by design
    with trace.collect() as spans, metrics.scoped() as task_metrics:
        payload = _execute_body(request)
    payload[TELEMETRY_KEY] = {"spans": spans, "metrics": task_metrics}
    return payload


class Session:
    """The one programmatic entry point for running simulations.

    Args:
        cache: explicit on-disk result cache to read/write.
        results_dir: build a :class:`ResultCache` under
            ``results_dir / "cache"`` (shared with the suite) when no
            explicit ``cache`` is given (see :meth:`ResultCache.resolve`).
        use_cache: disable to never read or write on-disk entries.
        force: recompute even on memo/cache hits (fresh results re-stored).
        jobs: worker processes for :meth:`run_batch`; ``1`` runs serially
            in-process, ``0`` uses one worker per CPU.
        memoize: disable to skip the in-process memo as well.
    """

    def __init__(
        self,
        cache: "ResultCache | None" = None,
        results_dir: str | Path | None = None,
        use_cache: bool = True,
        force: bool = False,
        jobs: int = 1,
        memoize: bool = True,
    ):
        from repro.harness.cache import ResultCache

        self.force = force
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.memoize = memoize
        self.cache = ResultCache.resolve(cache, use_cache, results_dir)

    # -- cache plumbing ----------------------------------------------------

    @staticmethod
    def _entry_name(request: SimRequest) -> str:
        """Readable on-disk entry name; the request itself is the identity."""
        return f"api-{request.backend}-{request.dataset}"

    def _lookup(self, request: SimRequest) -> RunResult | None:
        """Memo first, then disk; misses (or ``force``) return ``None``."""
        if self.force:
            return None
        key = request.cache_key()
        text = _RUN_MEMO.get(key) if self.memoize else None
        memo_hit = text is not None
        payload = None
        if text is not None:
            # Refresh recency so a repeatedly-hit entry survives eviction
            # pressure (the memo is LRU, not FIFO).
            _RUN_MEMO[key] = _RUN_MEMO.pop(key)  # repro: allow(CONC001) per-process LRU recency refresh; a worker's reorder affects only its own memo
            metrics.inc("session.memo_hits")
            payload = json.loads(text)
        if payload is None and self.cache is not None:
            payload = self.cache.get(self._entry_name(request), request.to_dict())
            if payload is not None:
                metrics.inc("session.disk_hits")
                if self.memoize:
                    _memoise(key, payload)
        if payload is None:
            return None
        self._record_ledger(request, "memo" if memo_hit else "disk", payload)
        # A memo hit decodes a fresh dict and a disk hit parsed its own, so
        # a caller mutating a returned detail dict cannot poison later hits.
        result = RunResult.from_dict(payload)
        result.status = "cached"
        result.seconds = 0.0
        return result

    def _admit(self, request: SimRequest, payload: dict) -> RunResult:
        """Memoise and persist a freshly produced (normalised) payload."""
        if self.memoize:
            _memoise(request.cache_key(), payload)
        if self.cache is not None:
            self.cache.put(self._entry_name(request), request.to_dict(), payload)
        return RunResult.from_dict(payload)

    # -- run ledger --------------------------------------------------------

    @staticmethod
    def _record_ledger(
        request: SimRequest,
        outcome: str,
        payload: dict | None = None,
        phases: dict | None = None,
    ) -> None:
        """One ledger line per finalised run (memo/disk/fresh/dedup/failed).

        Recording happens strictly after the payload has been normalised
        and admitted, so the bytes a caller (or the memo, or the disk
        cache) sees are identical whether the ledger is on or off.
        """
        if not run_ledger.ledger_enabled():
            return
        payload = payload or {}
        run_ledger.record_run(
            "session",
            f"{request.backend}:{request.dataset}",
            outcome=outcome,
            wall_seconds=payload.get("seconds", 0.0) if outcome == "fresh" else 0.0,
            backend=request.backend,
            dataset=request.dataset,
            cache_key=request.cache_key(),
            phases=phases,
            metrics=payload.get("metrics"),
        )

    # -- entry points ------------------------------------------------------

    def _execute_in_process(self, request: SimRequest) -> tuple[dict, dict]:
        """Run one request inline; returns ``(payload, phases)``.

        The per-phase breakdown is collected — via the nesting-safe
        ``trace.collect``, which leaves user-enabled tracing untouched —
        only while the run ledger is recording, and is empty otherwise.
        """
        if not run_ledger.ledger_enabled():
            return _execute_body(request), {}
        with trace.collect() as events:
            payload = _execute_body(request)
        return payload, aggregate_phases(events)

    def run(self, request: SimRequest) -> RunResult:
        """Execute one request (memo -> disk cache -> backend dispatch)."""
        return self.run_batch([request])[0]

    def run_batch(
        self,
        requests: Sequence[SimRequest],
        progress: Callable[[RunResult], None] | None = None,
    ) -> list[RunResult]:
        """Execute many requests, fanning misses out across worker processes.

        Results come back in request order.  Requests whose canonical key
        repeats within the batch are simulated once (later copies report
        ``cached``).  With ``jobs > 1`` the misses fan out across worker
        processes (:func:`~repro.api.pool.fan_out`); serial and parallel
        batches produce identical results (only the parent writes the disk
        cache).  The first failure is raised after its ledger
        ``failed`` line; a worker that died raises
        :class:`~repro.api.pool.WorkerDied` naming the request.
        ``progress`` (when given) is called once per request as its
        result is finalised: cache hits fire during the initial sweep,
        fresh runs as they complete (completion order under ``jobs > 1``),
        duplicates right after their source.
        """
        metrics.inc("session.requests", len(requests))
        results: list[RunResult | None] = [None] * len(requests)
        to_run: list[int] = []
        first_index: dict[str, int] = {}
        dups_of_source: dict[int, list[int]] = {}
        for index, request in enumerate(requests):
            hit = self._lookup(request)
            if hit is not None:
                results[index] = hit
                if progress is not None:
                    progress(hit)
                continue
            key = request.cache_key()
            if key in first_index and not self.force:
                source = first_index[key]
                dups_of_source.setdefault(source, []).append(index)
                metrics.inc("session.batch_dedup")
            else:
                first_index[key] = index
                to_run.append(index)
        metrics.inc("session.fresh_runs", len(to_run))

        def finalise(index: int, payload: dict, phases: dict | None = None) -> None:
            results[index] = self._admit(requests[index], payload)
            self._record_ledger(requests[index], "fresh", payload, phases)
            if progress is not None:
                progress(results[index])
            for dup in dups_of_source.get(index, ()):
                duplicate = RunResult.from_dict(copy.deepcopy(payload))
                duplicate.status = "cached"
                duplicate.seconds = 0.0
                results[dup] = duplicate
                self._record_ledger(requests[dup], "dedup", payload)
                if progress is not None:
                    progress(duplicate)

        with trace.span(
            "session.run_batch", requests=len(requests), fresh=len(to_run)
        ):
            if not runs_inline(to_run, self.jobs):
                # Ship worker telemetry home only while someone consumes
                # it — the user's trace, or the run ledger (which needs
                # the per-phase breakdown); the side-channel is not free.
                telemetry = trace.enabled or run_ledger.ledger_enabled()
                tasks = [(requests[index].to_dict(), telemetry) for index in to_run]
                with closing(fan_out(_execute_request, tasks, self.jobs)) as outcomes:
                    for position, payload, error in outcomes:
                        index = to_run[position]
                        if error is not None:
                            request = requests[index]
                            self._record_ledger(request, "failed")
                            if isinstance(error, WorkerDied):
                                raise WorkerDied(
                                    f"a pool worker process died running "
                                    f"{request.backend}:{request.dataset}"
                                ) from error
                            raise error
                        shipped = payload.pop(TELEMETRY_KEY, None)
                        phases = None
                        if shipped is not None:
                            if trace.enabled:
                                trace.ingest(shipped.get("spans", ()))  # repro: allow(CONC002) parent-only branch: detached workers run jobs=1 sessions, so the pool/ingest path never executes inside a worker
                                metrics.merge(shipped.get("metrics"))  # repro: allow(CONC002) parent-only branch; see above
                            if run_ledger.ledger_enabled():
                                phases = aggregate_phases(shipped.get("spans", ()))
                        finalise(index, payload, phases)
            else:
                for index in to_run:
                    try:
                        payload, phases = self._execute_in_process(requests[index])
                    except Exception:
                        self._record_ledger(requests[index], "failed")
                        raise
                    finalise(index, payload, phases)

        return [result for result in results if result is not None]


_DEFAULT_SESSION: Session | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def get_session() -> Session:
    """The shared in-process session (memo only, no disk cache).

    This is what the harness experiments, the sweep evaluators and the DSE
    objective layer run through, so any two of them asking for the same
    simulation pay for it once per process.  Construction is guarded by a
    double-checked lock so concurrent first calls share one session.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        with _DEFAULT_SESSION_LOCK:
            if _DEFAULT_SESSION is None:
                # repro: allow(CONC001) per-process shared session; a worker builds its own and its memo is rebuilt deterministically from requests
                _DEFAULT_SESSION = Session(use_cache=False)
    return _DEFAULT_SESSION
