"""repro: a reproduction of GROW (HPCA 2023).

GROW is a row-stationary sparse-dense GEMM accelerator for graph
convolutional networks.  This package contains the full reproduction stack:

* ``repro.sparse``  — sparse-matrix formats and tile statistics
* ``repro.graph``   — graph containers, synthetic datasets, partitioning
* ``repro.gcn``     — GCN layers, feature generation, MAC counting
* ``repro.energy``  — energy and area models
* ``repro.accelerators`` — GCNAX, HyGCN, MatRaptor and GAMMA baselines
* ``repro.core``    — the GROW accelerator itself
* ``repro.analysis`` — workload characterisation (densities, tiles, bandwidth)
* ``repro.harness`` — experiment registry, suite orchestration (parallel
  execution + on-disk result caching) and structured reports
* ``repro.dse``     — design-space exploration (samplers, Pareto frontiers)
* ``repro.scaleout`` — multi-chip systems (sharding, interconnect, scaling)
* ``repro.api``     — the unified simulation-service facade: one typed
  ``Session.run(SimRequest) -> RunResult`` contract over every engine above

Quick start::

    from repro.api import Session, SimRequest
    result = Session().run(SimRequest(dataset="cora", backend="grow"))
    print(result.total_cycles)

    from repro.harness import run_experiment
    result = run_experiment("fig20_speedup", datasets=("cora", "citeseer"))
    print(result.to_table())

Or from the command line (see README.md for the full workflow)::

    python -m repro list --verbose
    python -m repro run fig20_speedup
    python -m repro sim --backend grow --datasets cora
    python -m repro suite --jobs 8        # full figure suite, cached
"""

__version__ = "1.1.0"

#: Convenience exports, resolved lazily (PEP 562) so that ``import repro``
#: stays standard-library-cheap: the stdlib-only subsystems (``repro.obs``,
#: ``repro.analyze`` — e.g. ``python -m repro check`` on a bare
#: interpreter) must be reachable without pulling in the numpy-backed
#: simulation stack.
_LAZY_EXPORTS = {
    "GrowConfig": "repro.core",
    "GrowSimulator": "repro.core",
    "GCNAXSimulator": "repro.accelerators",
}

__all__ = ["GrowConfig", "GrowSimulator", "GCNAXSimulator", "__version__"]


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
