"""The unified simulation-service API (the facade over every engine).

One typed contract for running anything this reproduction can simulate::

    from repro.api import Session, SimRequest

    session = Session()
    result = session.run(SimRequest(dataset="cora", backend="grow"))
    print(result.total_cycles, result.metrics)

    # Batches fan out across worker processes and share dataset /
    # preprocessing-plan memos; identical requests are cache hits.
    results = session.run_batch(
        [SimRequest(dataset=name, backend=b)
         for name in ("cora", "citeseer") for b in ("grow", "gcnax")]
    )

A :class:`SimRequest` validates and canonicalises itself at construction
(unknown dataset/backend names fail with did-you-mean suggestions) and its
JSON form is the universal cache key; a :class:`~repro.api.session.Session`
resolves it through the in-process memo, the on-disk
:class:`~repro.harness.cache.ResultCache` and finally the backend registry
(:func:`list_backends`).  Multi-chip systems are requests too — give the
``scaleout`` backend a :class:`ScaleOutSpec` fabric.

The experiment harness, the DSE objective evaluation and the ``sim``/
``run``/``scaleout`` CLI verbs route through this facade.
"""

from repro.api.backends import (
    Backend,
    get_backend,
    known_backend,
    list_backends,
    register_backend,
    suggest_backends,
)
from repro.api.errors import RequestError, UnknownBackendError, suggest_names
from repro.api.request import ScaleOutSpec, SimRequest
from repro.api.result import METRIC_NAMES, RunResult
from repro.api.session import Session, clear_memo, get_session

__all__ = [
    "Backend",
    "METRIC_NAMES",
    "RequestError",
    "RunResult",
    "ScaleOutSpec",
    "Session",
    "SimRequest",
    "UnknownBackendError",
    "clear_memo",
    "get_backend",
    "get_session",
    "known_backend",
    "list_backends",
    "register_backend",
    "suggest_backends",
    "suggest_names",
]
