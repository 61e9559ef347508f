"""Tests for the design-space exploration subsystem (`repro.dse`).

Covers the Pareto core on hand-built fronts (ties, duplicates,
single-objective), space enumeration/validation with conditionals, seeded
sampler determinism, parallel == serial search results, and cache reuse
across two identical searches.
"""

from __future__ import annotations

import pytest

from repro.accelerators.base import KB
from repro.api import ScaleOutSpec, Session, SimRequest, clear_memo
from repro.dse import (
    Categorical,
    Conditional,
    DSERunner,
    Evaluation,
    EvolutionarySampler,
    NumericRange,
    ObjectiveSet,
    Objective,
    Constraint,
    ParameterSpace,
    RandomSampler,
    default_objectives,
    dominates,
    get_space,
    non_dominated_sort,
    pareto_indices,
    pareto_ranks,
)
from repro.harness import smoke_config

# -- pareto ----------------------------------------------------------------

MIN2 = ("min", "min")


def test_dominates_basic():
    assert dominates((1, 1), (2, 2), MIN2)
    assert dominates((1, 2), (2, 2), MIN2)
    assert not dominates((1, 3), (2, 2), MIN2)  # trade-off: incomparable
    assert not dominates((2, 2), (1, 1), MIN2)


def test_dominates_equal_vectors_do_not_dominate():
    assert not dominates((1, 1), (1, 1), MIN2)


def test_dominates_respects_max_direction():
    assert dominates((1, 5), (1, 4), ("min", "max"))
    assert not dominates((1, 4), (1, 5), ("min", "max"))


def test_non_dominated_sort_hand_built_fronts():
    vectors = [(1, 4), (2, 3), (4, 1), (2, 4), (3, 3), (5, 5)]
    fronts = non_dominated_sort(vectors, MIN2)
    assert fronts[0] == [0, 1, 2]
    assert fronts[1] == [3, 4]
    assert fronts[2] == [5]
    assert pareto_ranks(vectors, MIN2) == [0, 0, 0, 1, 1, 2]


def test_pareto_ties_and_duplicates_share_a_front():
    vectors = [(1, 2), (2, 1), (1, 2), (3, 3)]
    assert pareto_indices(vectors, MIN2) == [0, 1, 2]  # duplicate of (1,2) kept


def test_pareto_single_objective():
    vectors = [(3,), (1,), (2,), (1,)]
    assert pareto_indices(vectors, ("min",)) == [1, 3]  # both minima, input order
    assert pareto_indices(vectors, ("max",)) == [0]
    assert pareto_indices([], MIN2) == []


# -- parameter spaces ------------------------------------------------------


def tiny_space() -> ParameterSpace:
    return ParameterSpace(
        name="test-tiny",
        params=(
            Categorical("hdn_cache_bytes", (64 * KB, 256 * KB)),
            Categorical("runahead_degree", (1, 8)),
        ),
    )


def conditional_space() -> ParameterSpace:
    return ParameterSpace(
        name="test-conditional",
        params=(
            Categorical("enable_runahead", (True, False)),
            Conditional(
                Categorical("runahead_degree", (2, 8, 32)),
                depends_on="enable_runahead",
                equals=True,
            ),
            NumericRange("hdn_cache_bytes", 64 * KB, 1024 * KB, num_points=3, log=True,
                         integer=True),
        ),
    )


def test_enumeration_is_deterministic_and_counts_conditionals():
    space = conditional_space()
    candidates = list(space.enumerate())
    # enabled branch: 3 degrees x 3 cache points; disabled branch: 3 cache points
    assert len(candidates) == space.size == 3 * 3 + 3
    assert candidates == list(space.enumerate())
    for candidate in candidates:
        space.validate(candidate)
        assert ("runahead_degree" in candidate) == candidate["enable_runahead"]


def test_numeric_range_grids():
    log_grid = NumericRange("x", 4.0, 64.0, num_points=5, log=True).grid()
    assert log_grid == pytest.approx((4.0, 8.0, 16.0, 32.0, 64.0))
    int_grid = NumericRange("x", 1, 4, num_points=7, integer=True).grid()
    assert int_grid == (1, 2, 3, 4)  # rounding duplicates collapse


def test_integer_range_with_fractional_bounds_stays_legal():
    import random

    param = NumericRange("x", 4.5, 10.5, num_points=4, integer=True)
    rng = random.Random(3)
    for value in param.grid() + tuple(param.sample(rng) for _ in range(50)):
        assert param.contains(value), value  # rounding never escapes the bounds
    with pytest.raises(ValueError, match="no integer"):
        NumericRange("x", 4.2, 4.8, integer=True)


def test_validate_rejects_bad_candidates():
    space = conditional_space()
    with pytest.raises(ValueError, match="missing"):
        space.validate({"enable_runahead": True, "hdn_cache_bytes": 64 * KB})
    with pytest.raises(ValueError, match="inactive/unknown"):
        space.validate(
            {"enable_runahead": False, "runahead_degree": 8, "hdn_cache_bytes": 64 * KB}
        )
    with pytest.raises(ValueError, match="not a legal value"):
        space.validate({"enable_runahead": False, "hdn_cache_bytes": 999})


def test_space_declaration_errors():
    with pytest.raises(ValueError, match="duplicate parameter"):
        ParameterSpace(name="dup", params=(Categorical("a", (1,)), Categorical("a", (2,))))
    with pytest.raises(ValueError, match="earlier parameter"):
        ParameterSpace(
            name="order",
            params=(
                Conditional(Categorical("b", (1,)), depends_on="a", equals=True),
                Categorical("a", (True,)),
            ),
        )


def test_mutation_and_crossover_stay_in_space():
    import random

    space = conditional_space()
    rng = random.Random(5)
    parent_a = space.random_candidate(rng)
    parent_b = space.random_candidate(rng)
    for _ in range(50):
        child = space.crossover(parent_a, parent_b, rng)
        space.validate(child)
        space.validate(space.mutate(child, rng, rate=0.5))


# -- samplers --------------------------------------------------------------


def synthetic_history(candidates) -> list[Evaluation]:
    return [
        Evaluation(
            candidate=c,
            metrics={"cycles": float(i), "area_mm2": float(len(candidates) - i)},
            feasible=True,
            status="ran",
        )
        for i, c in enumerate(candidates)
    ]


def test_random_sampler_seeded_determinism():
    space = get_space("grow-sizing")
    objectives = default_objectives()
    streams = []
    for _ in range(2):
        sampler = RandomSampler(batch_size=6)
        sampler.reset(space, objectives, seed=7)
        streams.append([sampler.ask([]) for _ in range(3)])
    assert streams[0] == streams[1]
    proposed = [c for batch in streams[0] for c in batch]
    assert len(proposed) == 18  # no dedup collisions at this size
    for candidate in proposed:
        space.validate(candidate)


def test_evolutionary_sampler_seeded_determinism():
    space = get_space("grow-sizing")
    objectives = default_objectives()
    streams = []
    for _ in range(2):
        sampler = EvolutionarySampler(batch_size=6)
        sampler.reset(space, objectives, seed=11)
        generation_1 = sampler.ask([])
        history = synthetic_history(generation_1)
        generation_2 = sampler.ask(history)
        history.extend(synthetic_history(generation_2))
        generation_3 = sampler.ask(history)
        streams.append([generation_1, generation_2, generation_3])
    assert streams[0] == streams[1]
    for batch in streams[0]:
        assert batch
        for candidate in batch:
            space.validate(candidate)


def test_evolutionary_sampler_exhausts_small_space():
    space = tiny_space()
    sampler = EvolutionarySampler(batch_size=8)
    sampler.reset(space, default_objectives(), seed=0)
    first = sampler.ask([])
    remaining = sampler.ask(synthetic_history(first))
    assert len(first) + len(remaining) == space.size  # every candidate proposed once
    assert sampler.ask(synthetic_history(first + remaining)) == []


# -- engine ----------------------------------------------------------------


@pytest.fixture(scope="module")
def search_config():
    return smoke_config(datasets=("cora",))


def run_search(space, config, **kwargs):
    defaults = dict(
        space=space, sampler="grid", config=config, budget=space.size, jobs=1,
        use_cache=False, results_dir=None,
    )
    defaults.update(kwargs)
    return DSERunner(**defaults).run()


def frontier_rows(report):
    return report.frontier_result().rows


def test_parallel_matches_serial(search_config):
    serial = run_search(tiny_space(), search_config, jobs=1)
    parallel = run_search(tiny_space(), search_config, jobs=2)
    assert [e.candidate for e in serial.evaluations] == [
        e.candidate for e in parallel.evaluations
    ]
    assert [e.metrics for e in serial.evaluations] == [e.metrics for e in parallel.evaluations]
    assert frontier_rows(serial) == frontier_rows(parallel)


def test_cache_reuse_across_identical_searches(tmp_path, search_config):
    first = run_search(
        tiny_space(), search_config, use_cache=True, results_dir=tmp_path / "results"
    )
    assert first.num_ran == tiny_space().size and first.num_cached == 0
    second = run_search(
        tiny_space(), search_config, use_cache=True, results_dir=tmp_path / "results"
    )
    assert second.num_cached == tiny_space().size and second.num_ran == 0
    assert frontier_rows(first) == frontier_rows(second)
    assert (tmp_path / "results" / "dse_test-tiny.json").exists()
    assert (tmp_path / "results" / "dse_test-tiny.md").exists()


def test_scaleout_smoke_search_sums_each_systems_requests(tmp_path):
    """A ``scaleout`` candidate's metrics are its system's ``scaleout``
    requests summed over the datasets (area is one system's), and serial,
    parallel and cached searches find the same frontier."""
    config = smoke_config()
    space = get_space("scaleout-smoke")
    clear_memo()
    serial = run_search(space, config, use_cache=True, results_dir=tmp_path)
    parallel = run_search(space, config, jobs=2)
    cached = run_search(space, config, use_cache=True, results_dir=tmp_path)
    assert space.size == 4
    assert serial.num_ran == parallel.num_ran == cached.num_cached == 4
    for evaluation in serial.evaluations:
        fabric = ScaleOutSpec(**evaluation.candidate)
        runs = Session(use_cache=False, memoize=False).run_batch(
            [
                SimRequest.from_experiment(config, name, backend="scaleout", fabric=fabric)
                for name in config.datasets
            ]
        )
        assert evaluation.metrics == {
            "cycles": sum(run.total_cycles for run in runs),
            "dram_bytes": float(sum(run.dram_bytes for run in runs)),
            "energy_nj": sum(run.energy_nj for run in runs),
            "area_mm2": runs[0].area_mm2,
        }
    assert frontier_rows(serial) == frontier_rows(parallel) == frontier_rows(cached)


def test_constraints_mark_candidates_infeasible(search_config):
    # An area budget below the largest HDN cache configuration's footprint.
    objectives = ObjectiveSet(
        objectives=(Objective("cycles"),),
        constraints=(Constraint("area_mm2", 3.0, "<="),),
    )
    report = run_search(tiny_space(), search_config, objectives=objectives)
    assert report.num_infeasible > 0
    assert report.frontier  # something small enough survives
    for evaluation in report.frontier:
        assert evaluation.metrics["area_mm2"] <= 3.0
    # Single objective: the frontier is every feasible minimum-cycles point.
    best = min(e.metrics["cycles"] for e in report.evaluations if e.feasible)
    assert all(e.metrics["cycles"] == best for e in report.frontier)


def test_invalid_candidate_is_recorded_as_failed(search_config):
    space = ParameterSpace(
        name="test-invalid",
        params=(Categorical("runahead_degree", (0,)),),  # GrowConfig rejects 0
    )
    report = run_search(space, search_config)
    assert report.num_failed == 1 and not report.ok
    assert "runahead_degree" in report.evaluations[0].error


def test_runahead_degree_provisions_the_ldn_table(search_config):
    """Searched degrees above 16 must not be silently clamped by the default
    LDN table (the Figure 25(a) convention: entries = max(16, degree))."""
    from repro.dse.objectives import candidate_metrics

    auto = candidate_metrics("grow", {"runahead_degree": 32}, search_config)
    clamped = candidate_metrics(
        "grow", {"runahead_degree": 32, "ldn_table_entries": 16}, search_config
    )
    degree_16 = candidate_metrics("grow", {"runahead_degree": 16}, search_config)
    assert clamped["cycles"] == degree_16["cycles"]  # explicit ldn still wins
    assert auto["cycles"] < clamped["cycles"]
