"""Persistent performance trajectory of the simulation stack.

``repro bench`` runs a fixed ladder of scenarios — growing chung-lu
workloads through the GROW backend, a four-chip scale-out system and a
DSE smoke search — and appends the measurements as a schema-versioned
``BENCH_<n>.json`` under ``benchmarks/``.  Successive files form the repository's performance
history: every entry records wall-clock, peak RSS, the simulated metrics
(which must never drift — they are covered by the bit-exactness golden
suite) and a digest of the scenario definition, so any change to what is
being measured is visible in the record.

Module map:

* :mod:`repro.bench.ladder` — the rung definitions, scenario digests and
  the single-sample runner;
* :mod:`repro.bench.worker` — ``python -m repro.bench.worker <rung>``,
  the fresh interpreter each sample is measured in;
* :mod:`repro.bench.emit` — the ``BENCH_<n>.json`` schema, monotonic
  numbering, validation and loading (regressions are classified by
  :mod:`repro.obs.trend`);
* :mod:`repro.bench.runner` — the driver behind the ``repro bench`` verb.
"""

from repro.bench.emit import (
    SCHEMA_VERSION,
    BenchSchemaError,
    build_document,
    load_bench,
    load_trajectory,
    next_bench_number,
    validate_document,
    write_bench,
)
from repro.bench.ladder import (
    DEFAULT_LADDER,
    RUNGS,
    BenchRung,
    run_rung,
    scenario_digest,
)
from repro.bench.runner import run_bench

__all__ = [
    "SCHEMA_VERSION",
    "BenchSchemaError",
    "BenchRung",
    "DEFAULT_LADDER",
    "RUNGS",
    "build_document",
    "load_bench",
    "load_trajectory",
    "next_bench_number",
    "run_bench",
    "run_rung",
    "scenario_digest",
    "validate_document",
    "write_bench",
]
