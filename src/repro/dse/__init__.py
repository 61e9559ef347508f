"""Design-space exploration over the accelerator models.

This package turns the repository's simulators into a multi-objective
search engine:

* :mod:`repro.dse.space` — typed parameter spaces (numeric ranges,
  categorical choices, conditional parameters) with deterministic
  enumeration, seeded sampling and evolutionary operators.
* :mod:`repro.dse.samplers` — grid, seeded random and evolutionary
  samplers behind one :class:`~repro.dse.samplers.Sampler` protocol.
* :mod:`repro.dse.objectives` — candidate evaluation on cycles, DRAM
  traffic, energy and area, with constraint filtering (e.g. an area
  budget).
* :mod:`repro.dse.pareto` — dominance tests and non-dominated sorting.
* :mod:`repro.dse.engine` — :class:`~repro.dse.engine.DSERunner`:
  generation loop, process-pool fan-out, incremental caching
  through the suite's :class:`~repro.harness.cache.ResultCache`, and
  Pareto-frontier reports alongside the suite's artefacts.
* :mod:`repro.dse.presets` — named spaces (the CLI's ``--space`` choices)
  and the ``dse_grow_frontier`` suite experiment.

Quick example::

    from repro.dse import DSERunner
    from repro.harness import smoke_config

    report = DSERunner("grow-smoke", sampler="grid", config=smoke_config(),
                       budget=9, results_dir=None).run()
    print(report.frontier_result().to_table())

The CLI front end is ``python -m repro dse`` (see ``--help``).
"""

from repro.dse.space import (
    Categorical,
    Conditional,
    NumericRange,
    ParameterSpace,
    candidate_key,
    get_space,
    list_spaces,
    register_space,
    unregister_space,
)
from repro.dse.pareto import dominates, non_dominated_sort, pareto_indices, pareto_ranks
from repro.dse.objectives import (
    METRIC_NAMES,
    Constraint,
    Evaluation,
    Objective,
    ObjectiveSet,
    candidate_metrics,
    default_objectives,
)
from repro.dse.samplers import (
    SAMPLERS,
    EvolutionarySampler,
    GridSampler,
    RandomSampler,
    Sampler,
    make_sampler,
)
from repro.dse.engine import DSERunner, SearchReport, run_search
from repro.dse import presets as _presets  # noqa: F401  (registers spaces + suite experiment)

__all__ = [
    "Categorical",
    "Conditional",
    "NumericRange",
    "ParameterSpace",
    "candidate_key",
    "get_space",
    "list_spaces",
    "register_space",
    "unregister_space",
    "dominates",
    "non_dominated_sort",
    "pareto_indices",
    "pareto_ranks",
    "METRIC_NAMES",
    "Objective",
    "Constraint",
    "ObjectiveSet",
    "Evaluation",
    "candidate_metrics",
    "default_objectives",
    "Sampler",
    "GridSampler",
    "RandomSampler",
    "EvolutionarySampler",
    "SAMPLERS",
    "make_sampler",
    "DSERunner",
    "SearchReport",
    "run_search",
]
