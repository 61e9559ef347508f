"""Zero-dependency telemetry: span tracing, metrics, structured logging.

The package every other layer may import (it sits below even ``repro.api``
in the layering table — stdlib only, no imports from the rest of the
package).  Three process-wide singletons do the work:

* :data:`trace` — the span tracer.  ``with trace.span("grow.phase",
  phase=name): ...`` records a Chrome-trace-compatible event when tracing
  is enabled and costs one attribute read when it is not.
* :data:`metrics` — the always-on counters registry (memo hits, disk
  hits, batch dedup, chips run, bytes exchanged).
* :func:`get_logger` — the ``repro.*`` structured-logging hierarchy,
  silent until :func:`configure_logging` attaches the JSON-lines handler.
* :func:`record_run` — the append-only run ledger
  (:mod:`repro.obs.ledger`): one crash-safe JSONL line per run, queried
  by ``repro stats`` and rendered by ``repro dash``.

Cross-process spans travel in a side-channel dict keyed
:data:`TELEMETRY_KEY` that the session strips from worker payloads before
memoisation — see ``docs/architecture.md`` for the contract.
"""

from repro.obs.export import (
    SCHEMA,
    TraceSchemaError,
    load_trace,
    to_chrome_trace,
    validate_trace,
    write_trace,
)
from repro.obs.ledger import (
    LEDGER_ENV,
    RunLedger,
    disable_ledger,
    enable_ledger,
    ledger_enabled,
    ledger_path,
    load_ledger,
    record_run,
)
from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry, hit_rate, metrics
from repro.obs.summary import summarize_trace
from repro.obs.tracer import Tracer, aggregate_phases, trace

#: Key under which workers attach telemetry to result payloads; the session
#: pops it before the payload reaches memoisation, storage or the caller.
TELEMETRY_KEY = "__repro_telemetry__"


def cli_telemetry(trace_path=None, log_level=None, no_ledger=False):
    """Apply the shared ``--trace`` / ``--log-level`` / ``--no-ledger`` flags.

    Enables what was asked for and returns a zero-argument finaliser that
    writes the trace file (if any); callers run it after the verb finishes,
    success or failure, so partial runs still leave an inspectable trace.
    """
    if log_level:
        configure_logging(log_level)
    if trace_path:
        trace.enable()
    if no_ledger:
        disable_ledger()

    def finish():
        if trace_path:
            return write_trace(trace_path)
        return None

    return finish


__all__ = [
    "LEDGER_ENV",
    "MetricsRegistry",
    "RunLedger",
    "SCHEMA",
    "TELEMETRY_KEY",
    "TraceSchemaError",
    "Tracer",
    "aggregate_phases",
    "cli_telemetry",
    "configure_logging",
    "disable_ledger",
    "enable_ledger",
    "get_logger",
    "hit_rate",
    "ledger_enabled",
    "ledger_path",
    "load_ledger",
    "load_trace",
    "metrics",
    "record_run",
    "summarize_trace",
    "to_chrome_trace",
    "trace",
    "validate_trace",
    "write_trace",
]
