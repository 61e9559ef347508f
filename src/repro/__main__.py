"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                       — list the registered experiments.
* ``datasets``                   — print the synthetic dataset inventory
  (Table I, plus any scenario registered with ``--define``).
* ``run <experiment> [...]``     — run experiments and print their tables
  (``--json`` for machine-readable output).
* ``sim``                        — run one simulation request through the
  unified API facade (``repro.api``): any backend, any registered dataset
  or ``--scenario``-defined synthetic workload, optional config overrides
  and scale-out fabric; ``--json`` emits the canonical ``RunResult``
  payload.
* ``suite``                      — run many experiments in parallel with
  on-disk result caching and JSON/Markdown reports (the workhorse command).
* ``dse``                        — design-space exploration: search a named
  parameter space for the Pareto frontier (cycles vs area by default).
* ``scaleout``                   — simulate a multi-chip GROW system:
  partition-aware sharding, inter-chip traffic, scaling efficiency
  (``--json`` emits canonical ``RunResult`` payloads).
* ``report``                     — render previously computed suite/DSE/
  scale-out results without recomputing anything.
* ``bench``                      — run the fixed benchmark ladder and
  append the measurements as ``benchmarks/BENCH_<n>.json`` (the
  repository's performance trajectory), failing on wall-clock
  regressions beyond the allowed factor.
* ``check``                      — run the static-analysis invariant
  checker (``repro.analyze``) over the source tree: layering,
  determinism, cache-identity, pool-safety, exception-hygiene,
  worker-purity and vectorization-contract rules, the latter two
  whole-program over the pool call graph (``--json``, ``--sarif``,
  ``--changed``, ``--rules``; exits 1 on unsuppressed findings, 2 on
  parse/usage errors).
* ``trace <file>``               — summarise a trace written by ``--trace``:
  top spans, phase breakdown, cache hit rates.
* ``stats``                      — query the persistent run ledger
  (``benchmarks/ledger.jsonl``): runs by kind/backend/dataset/outcome,
  cache hit rates, slowest phases and runs.
* ``dash <out.html>``            — generate the self-contained HTML
  performance dashboard (benchmark trajectory with noise-aware trend
  classification, phase breakdowns, ledger analytics).

The ``sim``, ``run``, ``suite``, ``dse``, ``scaleout`` and ``bench`` verbs
share three telemetry flags: ``--trace FILE`` records every pipeline span
(including pool workers') into a Chrome trace-event JSON viewable in
Perfetto, ``--log-level LEVEL`` turns on the structured JSON logging
of the ``repro.*`` logger hierarchy, and ``--no-ledger`` skips the run
ledger (also disabled by ``REPRO_LEDGER=0``, redirected by
``REPRO_LEDGER=path``).

Examples::

    python -m repro list --verbose
    python -m repro run fig20_speedup --datasets cora citeseer
    python -m repro run fig20_speedup --json       # ExperimentResult dicts
    python -m repro sim --backend grow --datasets cora --override runahead_degree=32
    python -m repro sim --backend gcnax --smoke --json
    python -m repro datasets --define scenario.json
    python -m repro sim --scenario '{"name": "social100k", "generator": "chung-lu",
                                     "num_nodes": 100000, "average_degree": 12}'
    python -m repro sim --backend scaleout --chips 4 --topology mesh --smoke
    python -m repro suite --jobs 8                 # full figure suite, parallel
    python -m repro suite --jobs 8                 # second run: all cache hits
    python -m repro suite --smoke --jobs 2         # CI smoke target
    python -m repro dse --smoke --seed 7 --jobs 2  # seconds-scale frontier search
    python -m repro dse --space grow-sizing --sampler evolutionary --budget 48
    python -m repro scaleout --chips 4 --smoke     # 4-chip ring, smoke datasets
    python -m repro scaleout --chips 16 --topology mesh --link-bandwidth 64
    python -m repro report fig20_speedup
    python -m repro report dse_grow-smoke
    python -m repro bench                          # default ladder -> BENCH_<n>.json
    python -m repro bench --rungs grow-10k --repeats 3   # CI smoke rung
    python -m repro suite --smoke --trace suite.trace.json
    python -m repro trace suite.trace.json         # phase/cache summary
    python -m repro stats                          # ledger: runs, hit rates
    python -m repro stats --kind session --outcome fresh --slowest 5
    python -m repro dash dashboard.html            # self-contained HTML
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GROW (HPCA 2023) reproduction: regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list registered experiments")
    list_parser.add_argument(
        "--verbose", action="store_true", help="include a one-line summary per experiment"
    )

    datasets_parser = subparsers.add_parser(
        "datasets", help="print the synthetic dataset inventory"
    )
    datasets_parser.add_argument(
        "--define",
        action="append",
        default=None,
        metavar="SPEC",
        help="register a scenario dataset before printing: a path to a JSON "
        "scenario spec or an inline JSON object (repeatable); see "
        "repro.graph.registry for the spec schema",
    )

    run_parser = subparsers.add_parser("run", help="run experiments and print their tables")
    run_parser.add_argument("experiments", nargs="+", help="experiment ids (see 'list')")
    _add_config_arguments(run_parser)
    _add_telemetry_arguments(run_parser)
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the experiment results as JSON instead of tables",
    )

    sim_parser = subparsers.add_parser(
        "sim",
        help="run one simulation through the unified API facade (repro.api)",
    )
    sim_parser.add_argument(
        "--backend",
        default="grow",
        help="registered backend (grow, multipe, gcnax, hygcn, matraptor, gamma, scaleout)",
    )
    _add_config_arguments(sim_parser)
    _add_run_arguments(sim_parser, cache_by_default=False)
    sim_parser.add_argument(
        "--override",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="simulator-config override (repeatable), e.g. runahead_degree=32",
    )
    sim_parser.add_argument(
        "--no-partition",
        action="store_true",
        help="use the unpartitioned preprocessing plan (GROW backends)",
    )
    sim_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical RunResult payloads as JSON instead of a table",
    )
    _add_fabric_arguments(sim_parser, default_chips=1)
    _add_telemetry_arguments(sim_parser)

    suite_parser = subparsers.add_parser(
        "suite",
        help="run experiments in parallel with result caching and reports",
    )
    suite_parser.add_argument(
        "experiments", nargs="*", help="experiment ids (default: every registered experiment)"
    )
    _add_config_arguments(suite_parser)
    _add_run_arguments(suite_parser, cache_by_default=True)
    _add_telemetry_arguments(suite_parser)

    dse_parser = subparsers.add_parser(
        "dse",
        help="multi-objective design-space search with Pareto-frontier reports",
    )
    dse_parser.add_argument(
        "--space",
        default=None,
        help="registered parameter space (default grow-sizing, or grow-smoke with --smoke; "
        "see --list-spaces)",
    )
    dse_parser.add_argument(
        "--sampler",
        choices=("grid", "random", "evolutionary"),
        default="evolutionary",
        help="candidate sampler (default evolutionary)",
    )
    dse_parser.add_argument(
        "--budget", type=int, default=32, help="maximum candidate evaluations (default 32)"
    )
    dse_parser.add_argument(
        "--seed", type=int, default=0, help="sampler seed; same seed, same candidate stream"
    )
    dse_parser.add_argument(
        "--area-budget",
        type=float,
        default=None,
        metavar="MM2",
        help="feasibility constraint: 65 nm area must not exceed this many mm^2",
    )
    dse_parser.add_argument(
        "--list-spaces", action="store_true", help="list the registered spaces and exit"
    )
    _add_config_arguments(dse_parser)
    _add_run_arguments(dse_parser, cache_by_default=True)
    _add_telemetry_arguments(dse_parser)

    scaleout_parser = subparsers.add_parser(
        "scaleout",
        help="simulate a multi-chip GROW system (sharding + interconnect)",
    )
    _add_fabric_arguments(scaleout_parser, default_chips=4)
    scaleout_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical RunResult payloads as JSON instead of tables",
    )
    _add_config_arguments(scaleout_parser)
    _add_run_arguments(scaleout_parser, cache_by_default=True)
    _add_telemetry_arguments(scaleout_parser)

    subparsers.add_parser(
        "bench",
        help="run the benchmark ladder and append BENCH_<n>.json",
        add_help=False,
    )

    subparsers.add_parser(
        "check",
        help="run the static-analysis invariant checker (layering, "
        "determinism, cache identity, pools, exception hygiene, "
        "worker purity, vectorization contract)",
        add_help=False,
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarise a trace file written by --trace (spans, phases, caches)",
    )
    trace_parser.add_argument("file", type=Path, help="trace JSON written by --trace")
    trace_parser.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="how many spans to show in the top-spans table (default 15)",
    )

    stats_parser = subparsers.add_parser(
        "stats",
        help="query the persistent run ledger: runs, hit rates, slowest phases",
    )
    stats_parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="FILE",
        help="ledger JSONL to read (default: the active ledger, "
        "benchmarks/ledger.jsonl or $REPRO_LEDGER)",
    )
    stats_parser.add_argument(
        "--kind",
        choices=("session", "suite", "dse", "scaleout", "bench"),
        default=None,
        help="restrict to one record kind",
    )
    stats_parser.add_argument(
        "--backend", default=None, help="restrict to one backend (e.g. grow)"
    )
    stats_parser.add_argument(
        "--dataset", default=None, help="restrict to one dataset"
    )
    stats_parser.add_argument(
        "--outcome",
        default=None,
        help="restrict to one outcome (fresh, memo, disk, dedup, ok, failed, ...)",
    )
    stats_parser.add_argument(
        "--since",
        default=None,
        metavar="ISO",
        help="only records at or after this UTC instant (ISO prefix, "
        "e.g. 2026-08-01 or 2026-08-01T12:00)",
    )
    stats_parser.add_argument(
        "--last",
        type=int,
        default=0,
        metavar="N",
        help="also print the N most recent matching records",
    )
    stats_parser.add_argument(
        "--slowest",
        type=int,
        default=10,
        metavar="N",
        help="rows in the slowest-phases/slowest-runs tables (default 10)",
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    dash_parser = subparsers.add_parser(
        "dash",
        help="generate the self-contained HTML performance dashboard",
    )
    dash_parser.add_argument(
        "output", type=Path, help="path of the HTML file to write"
    )
    dash_parser.add_argument(
        "--bench-dir",
        type=Path,
        default=None,
        help="directory of the BENCH_<n>.json trajectory (default benchmarks)",
    )
    dash_parser.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="FILE",
        help="ledger JSONL to include (default: the active ledger)",
    )
    dash_parser.add_argument(
        "--markdown",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write a Markdown twin of the dashboard to FILE",
    )
    dash_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="trend tolerance band, e.g. 0.25 = ±25%% (default from repro.obs.trend)",
    )
    dash_parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="baseline window in documents (default from repro.obs.trend)",
    )

    report_parser = subparsers.add_parser(
        "report", help="render previously computed suite, DSE or scale-out results"
    )
    report_parser.add_argument(
        "experiments", nargs="*", help="experiment ids (default: everything in the results dir)"
    )
    report_parser.add_argument(
        "--results-dir",
        type=Path,
        default=None,
        help="directory holding <experiment>.json files (default benchmarks/results)",
    )
    report_parser.add_argument(
        "--format",
        choices=("markdown", "table"),
        default="markdown",
        help="output rendering (default markdown)",
    )
    return parser


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--datasets", nargs="*", default=None, help="restrict to these datasets"
    )
    parser.add_argument(
        "--bandwidth", type=float, default=None, help="override DRAM bandwidth in GB/s"
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="SPEC",
        help="define and run a synthetic scenario dataset: a path to a JSON "
        "scenario spec or an inline JSON object (repeatable).  Without "
        "--datasets, only the scenario(s) run; with it, they join the list",
    )


def _add_run_arguments(parser: argparse.ArgumentParser, cache_by_default: bool) -> None:
    """The run flags shared by the sim, suite, dse and scaleout verbs.

    Verbs that cache by default write under ``--results-dir`` (the suite's
    directory when omitted) unless ``--no-cache``; ``sim`` caches only when
    given a ``--results-dir``.
    """
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (0 = one per CPU; default 1)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-size CI configuration (two shrunken datasets)",
    )
    parser.add_argument(
        "--force", action="store_true", help="recompute even when a cached result exists"
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="report/cache directory shared by suite, dse and scaleout "
        "(default benchmarks/results)"
        if cache_by_default
        else "enable the on-disk result cache under DIR/cache (shared with the suite)",
    )
    if cache_by_default:
        parser.add_argument(
            "--no-cache", action="store_true", help="disable the on-disk result cache"
        )


def _session_from_args(args):
    """The API session behind the sim and scaleout verbs' run flags."""
    from repro.api import Session

    return Session(
        results_dir=args.results_dir,
        use_cache=not getattr(args, "no_cache", False),
        force=args.force,
        jobs=args.jobs,
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared telemetry flags (also offered by the bench verb's parser)."""
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="record pipeline spans into FILE as Chrome trace-event JSON "
        "(open in Perfetto, or summarise with 'python -m repro trace FILE')",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="enable structured JSON logging of the repro.* hierarchy at "
        "LEVEL (debug, info, warning, error)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the persistent run ledger "
        "(benchmarks/ledger.jsonl; see also REPRO_LEDGER)",
    )


def _add_fabric_arguments(parser: argparse.ArgumentParser, default_chips: int) -> None:
    """The scale-out fabric flags, shared by the scaleout and sim verbs.

    Defaults (except the chip count) come from :class:`repro.api.ScaleOutSpec`
    so the CLI, the request layer and the engine can never drift apart.
    """
    from repro.api import ScaleOutSpec
    from repro.api.request import EXCHANGE_PATTERNS, SHARD_METHODS, TOPOLOGY_KINDS

    spec = ScaleOutSpec()
    parser.add_argument(
        "--chips",
        type=int,
        default=default_chips,
        help=f"number of chips (default {default_chips})",
    )
    parser.add_argument(
        "--topology",
        choices=TOPOLOGY_KINDS,
        default=spec.topology,
        help=f"inter-chip fabric (default {spec.topology})",
    )
    parser.add_argument(
        "--link-bandwidth",
        type=float,
        default=spec.link_bandwidth_gbps,
        metavar="GBPS",
        help=f"bandwidth of one inter-chip link in GB/s (default {spec.link_bandwidth_gbps:g})",
    )
    parser.add_argument(
        "--link-latency",
        type=int,
        default=spec.link_latency_cycles,
        metavar="CYCLES",
        help=f"per-hop latency in cycles (default {spec.link_latency_cycles})",
    )
    parser.add_argument(
        "--exchange",
        choices=EXCHANGE_PATTERNS,
        default=spec.exchange,
        help=f"inter-chip exchange pattern (default {spec.exchange})",
    )
    parser.add_argument(
        "--shard-method",
        choices=SHARD_METHODS,
        default=spec.shard_method,
        help=f"cluster-to-chip assignment (default {spec.shard_method})",
    )


def _fabric_from_args(args):
    """Build a validated ScaleOutSpec from the shared fabric flags."""
    from repro.api import RequestError, ScaleOutSpec

    try:
        return ScaleOutSpec(
            num_chips=args.chips,
            topology=args.topology,
            link_bandwidth_gbps=args.link_bandwidth,
            link_latency_cycles=args.link_latency,
            exchange=args.exchange,
            shard_method=args.shard_method,
        )
    except RequestError as error:
        raise SystemExit(str(error)) from error


def _validate_experiments(names) -> None:
    from repro.harness.registry import validate_experiment_names

    import repro.harness  # noqa: F401  (populates the registry)

    validate_experiment_names(names)


def _parse_scenario_arguments(values) -> list:
    """Parse repeated ``--scenario``/``--define`` flags and register the specs.

    Each value is either a path to a JSON scenario-spec file or an inline
    JSON object (``'{"name": "social100k", "num_nodes": 100000, ...}'``).
    Every parsed spec is registered with the runtime registry (re-defining a
    previously registered scenario is allowed; shadowing a built-in is not).
    """
    from repro.graph import registry

    specs = []
    for value in values or ():
        text = value
        if not value.lstrip().startswith("{"):
            path = Path(value)
            if not path.is_file():
                raise SystemExit(
                    f"--scenario expects a JSON file path or an inline JSON "
                    f"object, and {value!r} is neither"
                )
            text = path.read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SystemExit(f"scenario spec {value!r} is not valid JSON: {error}")
        if not isinstance(data, dict):
            raise SystemExit(f"scenario spec {value!r} must be a JSON object")
        try:
            spec = registry.scenario_from_dict(data)
        except ValueError as error:
            raise SystemExit(str(error))
        if registry.is_builtin(spec.name):
            raise SystemExit(
                f"scenario {spec.name!r} cannot redefine a built-in dataset"
            )
        registry.register_dataset(spec, replace=True)
        specs.append(spec)
    return specs


def _config_from_args(args):
    from repro.api.errors import unknown_name_message
    from repro.graph import registry
    from repro.harness import default_config, smoke_config

    scenarios = _parse_scenario_arguments(getattr(args, "scenario", None))
    names = [name.lower() for name in (args.datasets or ())]
    known = registry.dataset_names()
    unknown = [name for name in names if name not in known]
    if unknown:
        lines = [unknown_name_message("dataset", name, known) for name in unknown]
        lines.append("(note: experiment ids go before --datasets)")
        raise SystemExit("\n".join(lines))
    scenario_names = [spec.name for spec in scenarios]
    if names:
        names += [name for name in scenario_names if name not in names]
    elif scenario_names:
        names = scenario_names

    overrides = {}
    if args.bandwidth is not None:
        overrides["bandwidth_gbps"] = args.bandwidth
    build = smoke_config if getattr(args, "smoke", False) else default_config
    # Every non-builtin name is registered by now, so the config's
    # construction-time snapshot carries each scenario's full definition
    # into suite/DSE/scale-out worker processes.
    return build(datasets=tuple(names) if names else None, **overrides)


def _cmd_list(args) -> int:
    from repro.harness import experiment_summary, list_experiments

    for name in list_experiments():
        if args.verbose:
            print(f"{name:28s} {experiment_summary(name)}")
        else:
            print(name)
    return 0


def _cmd_datasets(args) -> int:
    from repro.harness import default_config, run_experiment

    scenarios = _parse_scenario_arguments(args.define)
    config = default_config()
    if scenarios:
        config = config.with_scenarios(*scenarios)
    print(run_experiment("table1_datasets", config=config).to_table())
    return 0


def _cmd_run(args) -> int:
    from repro.harness import run_experiment
    from repro.harness.report import json_default

    _validate_experiments(args.experiments)
    config = _config_from_args(args)
    results = [run_experiment(name, config=config) for name in args.experiments]
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2, default=json_default))
        return 0
    for result in results:
        print(result.to_table())
        print()
    return 0


def _parse_override_arguments(pairs) -> dict:
    """Parse repeated ``--override KEY=VALUE`` flags (values read as JSON,
    falling back to plain strings: ``runahead_degree=32``, ``enable_runahead=true``,
    ``hdn_replacement=lru``)."""
    overrides = {}
    for pair in pairs or ():
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--override expects KEY=VALUE, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def _cmd_sim(args) -> int:
    from repro.api import RequestError, ScaleOutSpec, SimRequest
    from repro.harness.report import ExperimentResult, json_default

    config = _config_from_args(args)
    if args.backend == "scaleout":
        fabric = _fabric_from_args(args)
    else:
        fabric = None
        # Refuse rather than silently drop fabric flags on a chipless run.
        # (The sim parser's fabric defaults are ScaleOutSpec's defaults.)
        if _fabric_from_args(args) != ScaleOutSpec():
            raise SystemExit(
                "--chips/--topology/--link-bandwidth/--link-latency/--exchange/"
                f"--shard-method only apply to the 'scaleout' backend, not {args.backend!r}"
            )
    if args.no_partition and args.backend not in ("grow", "multipe"):
        raise SystemExit(
            f"--no-partition only applies to the 'grow'/'multipe' backends "
            f"(the {args.backend!r} backend never selects a preprocessing plan)"
        )
    overrides = _parse_override_arguments(args.override)
    try:
        requests = [
            SimRequest.from_experiment(
                config,
                dataset,
                backend=args.backend,
                overrides=overrides,
                partitioned=not args.no_partition,
                fabric=fabric,
            )
            for dataset in config.datasets
        ]
    except RequestError as error:
        raise SystemExit(str(error)) from error

    results = _session_from_args(args).run_batch(requests)
    if args.json:
        print(json.dumps([r.to_dict() for r in results], indent=2, default=json_default))
        return 0
    table = ExperimentResult(
        name=f"sim_{args.backend}",
        paper_reference="API facade (repro.api)",
        description=f"API facade runs on the {args.backend!r} backend",
        columns=["dataset", "backend", "cycles", "dram_mb", "energy_uj", "area_mm2", "status"],
    )
    for run in results:
        table.add_row(
            dataset=run.request.dataset,
            backend=run.backend,
            cycles=run.total_cycles,
            dram_mb=run.dram_bytes / 1e6,
            energy_uj=run.energy_nj / 1000.0,
            area_mm2=run.area_mm2,
            status=run.status,
        )
    print(table.to_table())
    return 0


def _cmd_suite(args) -> int:
    from repro.harness import SuiteRunner

    _validate_experiments(args.experiments)
    runner = SuiteRunner(
        config=_config_from_args(args),
        experiments=args.experiments or None,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        force=args.force,
        results_dir=args.results_dir,
    )

    def progress(outcome) -> None:
        label = {"ran": "ran   ", "cached": "cached", "failed": "FAILED"}[outcome.status]
        print(f"  {label}  {outcome.name}  ({outcome.seconds:.2f}s)")

    print(
        f"running {len(runner.experiments)} experiments with {runner.jobs} job(s); "
        f"reports -> {args.results_dir}"
    )
    report = runner.run(progress=progress)
    print(
        f"done in {report.total_seconds:.1f}s: {report.num_ran} ran, "
        f"{report.num_cached} cached, {report.num_failed} failed"
    )
    for outcome in report.outcomes:
        if outcome.error:
            print(f"\n{outcome.name} failed:\n{outcome.error}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_dse(args) -> int:
    from repro.dse import DSERunner, default_objectives, get_space, list_spaces

    if args.list_spaces:
        for name in list_spaces():
            space = get_space(name)
            print(
                f"{name:24s} {space.accelerator:6s} {space.size:5d} candidates  "
                f"{space.description}"
            )
        return 0

    space_name = args.space or ("grow-smoke" if args.smoke else "grow-sizing")
    try:
        space = get_space(space_name)
    except KeyError:
        raise SystemExit(
            f"unknown space {space_name!r}; choose from {list_spaces()} "
            "(see 'python -m repro dse --list-spaces')"
        )
    if args.budget < 1:
        raise SystemExit("--budget must be at least 1")

    runner = DSERunner(
        space=space,
        sampler=args.sampler,
        config=_config_from_args(args),
        objectives=default_objectives(area_budget_mm2=args.area_budget),
        budget=args.budget,
        jobs=args.jobs,
        seed=args.seed,
        use_cache=not args.no_cache,
        force=args.force,
        results_dir=args.results_dir,
    )

    print(
        f"searching space '{space.name}' ({space.accelerator}, {space.size} grid candidates) "
        f"with sampler={args.sampler} budget={args.budget} seed={args.seed} "
        f"jobs={runner.jobs}; reports -> {args.results_dir}"
    )

    def progress(generation, outcomes, frontier_size) -> None:
        ran = sum(1 for e in outcomes if e.status == "ran")
        cached = sum(1 for e in outcomes if e.status == "cached")
        failed = sum(1 for e in outcomes if e.status == "failed")
        infeasible = sum(1 for e in outcomes if e.ok and not e.feasible)
        print(
            f"  generation {generation}: {len(outcomes)} candidates "
            f"({ran} ran, {cached} cached, {failed} failed, {infeasible} infeasible); "
            f"frontier size {frontier_size}"
        )

    report = runner.run(progress=progress)
    print(
        f"done in {report.total_seconds:.1f}s: {len(report.evaluations)} evaluations "
        f"({report.num_ran} ran, {report.num_cached} cached, {report.num_failed} failed), "
        f"{len(report.frontier)} Pareto point(s)"
    )
    for evaluation in report.evaluations:
        if evaluation.error:
            print(f"\ncandidate {evaluation.candidate} failed:\n{evaluation.error}", file=sys.stderr)
    print()
    print(report.frontier_result().to_table())
    # Mirror 'suite': any failed evaluation is a nonzero exit, so the CI
    # smoke target cannot stay green while part of the space errors out.
    return 0 if report.ok else 1


def _cmd_scaleout(args) -> int:
    from repro.api import SimRequest
    from repro.harness.report import json_default
    from repro.scaleout import ChipTopology, ScaleOutResult, ScaleOutSimulator

    if args.chips < 1:
        raise SystemExit("--chips must be at least 1")
    try:
        topology = ChipTopology(
            num_chips=args.chips,
            kind=args.topology,
            link_bandwidth_gbps=args.link_bandwidth,
            link_latency_cycles=args.link_latency,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    # The simulator only renders the reports: every system runs as one
    # 'scaleout' request, so the session caches, fans out and forces it.
    simulator = ScaleOutSimulator(
        config=_config_from_args(args),
        topology=topology,
        exchange=args.exchange,
        shard_method=args.shard_method,
        results_dir=args.results_dir,
    )
    fabric = _fabric_from_args(args)
    requests = [
        SimRequest.from_experiment(simulator.config, dataset, backend="scaleout", fabric=fabric)
        for dataset in simulator.config.datasets
    ]
    session = _session_from_args(args)

    if not args.json:
        print(
            f"simulating a {args.chips}-chip {args.topology} system "
            f"({args.link_bandwidth:g} GB/s links, {args.link_latency} cycles/hop, "
            f"exchange={args.exchange}) with {session.jobs} job(s); "
            f"reports -> {args.results_dir}"
        )

    def progress(run) -> None:
        system = run.system_dict()
        print(
            f"  {system['dataset']}: {system['system_cycles']:.3e} cycles, "
            f"{system['interchip_bytes'] / 1e6:.2f} MB inter-chip, "
            f"efficiency {system['scaling_efficiency']:.2f} ({run.status})"
        )

    runs = session.run_batch(requests, progress=None if args.json else progress)
    results = [ScaleOutResult.from_dict(run.system_dict()) for run in runs]
    simulator.write_reports(results)
    if args.json:
        print(json.dumps([run.to_dict() for run in runs], indent=2, default=json_default))
        return 0
    print()
    print(simulator.report(results).to_table())
    return 0


def _cmd_report(args) -> int:
    from repro.harness import ExperimentResult

    results_dir = args.results_dir
    hint = "run 'python -m repro suite' (or 'python -m repro dse') first"
    if not results_dir.is_dir():
        print(f"results directory {results_dir} does not exist; {hint}", file=sys.stderr)
        return 1
    if args.experiments:
        paths = [results_dir / f"{name}.json" for name in args.experiments]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                f"no stored results for {[p.stem for p in missing]} in {results_dir}; {hint}",
                file=sys.stderr,
            )
            return 1
    else:
        paths = sorted(
            p for p in results_dir.glob("*.json") if p.name != "suite_report.json"
        )
        if not paths:
            print(f"no stored results in {results_dir}; {hint}", file=sys.stderr)
            return 1
    for path in paths:
        try:
            result = ExperimentResult.from_dict(json.loads(path.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            print(
                f"stored result {path} is unreadable ({error}); "
                "delete it and re-run 'python -m repro suite' or 'python -m repro dse'",
                file=sys.stderr,
            )
            return 1
        print(result.to_markdown() if args.format == "markdown" else result.to_table())
        print()
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import TraceSchemaError, load_trace, summarize_trace

    if args.top < 1:
        raise SystemExit("--top must be at least 1")
    try:
        document = load_trace(args.file)
    except TraceSchemaError as error:
        raise SystemExit(str(error)) from error
    complete = sum(
        1 for event in document.get("traceEvents", []) if event.get("ph") == "X"
    )
    if complete == 0:
        print(
            f"{args.file}: trace contains no complete spans — the traced "
            "process may have died before any span finished, or tracing "
            "was never enabled (run with --trace FILE)",
            file=sys.stderr,
        )
        return 1
    print(summarize_trace(document, top=args.top))
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import ledger as run_ledger
    from repro.obs.summary import format_table

    if args.last < 0:
        raise SystemExit("--last must be non-negative")
    if args.slowest < 1:
        raise SystemExit("--slowest must be at least 1")
    path = args.ledger if args.ledger is not None else run_ledger.ledger_path()
    if path is None:
        print(
            "the run ledger is disabled (REPRO_LEDGER); pass --ledger FILE",
            file=sys.stderr,
        )
        return 1
    path = Path(path)
    if not path.exists():
        print(
            f"no ledger at {path}; run a simulation (repro sim/suite/bench ...) "
            "first, or point --ledger at one",
            file=sys.stderr,
        )
        return 1
    records, bad = run_ledger.load_ledger(path)
    records = run_ledger.filter_records(
        records,
        kind=args.kind,
        backend=args.backend,
        dataset=args.dataset,
        outcome=args.outcome,
        since=args.since,
    )
    summary = run_ledger.summarize_records(records, slowest=args.slowest)
    if args.json:
        payload = dict(summary, ledger=str(path), bad_lines=len(bad))
        if args.last:
            payload["last"] = records[-args.last :]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    sections = [f"{summary['total']} matching record(s) in {path}"]
    if bad:
        sections[0] += f" ({len(bad)} corrupt line(s) skipped)"
    if summary["by_kind"]:
        rows = [
            [
                kind,
                str(entry["runs"]),
                f"{entry['wall_seconds']:.3f}s",
                ", ".join(
                    f"{name}={count}"
                    for name, count in sorted(entry["outcomes"].items())
                ),
            ]
            for kind, entry in sorted(summary["by_kind"].items())
        ]
        sections.append(
            "Runs by kind\n"
            + format_table(["kind", "runs", "wall total", "outcomes"], rows)
        )
    cache = summary["cache"]
    rate = cache["hit_rate"]
    sections.append(
        "Cache behaviour\n"
        + format_table(
            ["fresh", "memo", "disk", "dedup", "failed", "hit rate"],
            [
                [
                    str(cache["fresh"]),
                    str(cache["memo"]),
                    str(cache["disk"]),
                    str(cache["dedup"]),
                    str(cache["failed"]),
                    "-" if rate is None else f"{rate * 100:.1f}%",
                ]
            ],
        )
    )
    if summary["slowest_phases"]:
        rows = [
            [
                row["phase"],
                str(row["count"]),
                f"{row['total_seconds']:.3f}s",
                f"{row['mean_seconds']:.3f}s",
            ]
            for row in summary["slowest_phases"]
        ]
        sections.append(
            "Slowest phases\n"
            + format_table(["phase", "runs", "total", "mean"], rows)
        )
    if summary["slowest_runs"]:
        rows = [
            [
                row["ts"],
                row["kind"],
                row["name"],
                row["outcome"],
                f"{row['wall_seconds']:.3f}s",
            ]
            for row in summary["slowest_runs"]
        ]
        sections.append(
            "Slowest runs\n"
            + format_table(["when (UTC)", "kind", "name", "outcome", "wall"], rows)
        )
    if args.last:
        rows = [
            [
                str(record.get("ts", "?")),
                str(record.get("kind", "?")),
                str(record.get("name", "?")),
                str(record.get("outcome", "?")),
                f"{record.get('wall_seconds', 0.0):.3f}s",
            ]
            for record in records[-args.last :]
        ]
        sections.append(
            f"Last {len(rows)} record(s)\n"
            + format_table(["when (UTC)", "kind", "name", "outcome", "wall"], rows)
        )
    print("\n\n".join(sections))
    return 0


def _cmd_dash(args) -> int:
    from repro.obs import dashboard, trend

    if args.tolerance is not None and args.tolerance <= 0:
        raise SystemExit("--tolerance must be positive")
    if args.window is not None and args.window < 1:
        raise SystemExit("--window must be at least 1")
    bench_dir = args.bench_dir if args.bench_dir is not None else Path("benchmarks")
    try:
        path = dashboard.write_dashboard(
            args.output,
            bench_dir=bench_dir,
            ledger_path=args.ledger,
            markdown_path=args.markdown,
            tolerance=args.tolerance
            if args.tolerance is not None
            else trend.DEFAULT_TOLERANCE,
            window=args.window if args.window is not None else trend.DEFAULT_WINDOW,
        )
    except OSError as error:
        raise SystemExit(f"cannot write dashboard: {error}") from error
    print(f"wrote {path}")
    if args.markdown is not None:
        print(f"wrote {args.markdown}")
    return 0


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "bench":
        # The bench verb owns its argument parsing (shared with
        # benchmarks/perf.py), so hand everything after the verb through.
        from repro.bench.runner import main as bench_main

        return bench_main(raw[1:])
    if raw and raw[0] == "check":
        # The check verb owns its argument parsing and must work without
        # the simulation stack's dependencies (repro.analyze is
        # stdlib-only), so delegate before importing anything heavy.
        from repro.analyze.cli import main as check_main

        return check_main(raw[1:])
    args = _build_parser().parse_args(raw)
    if args.command in ("suite", "dse", "scaleout", "report") and args.results_dir is None:
        # The verbs that write (or read) reports default to the suite's
        # directory; sim caches only where it is told to.
        from repro.harness.suite import DEFAULT_RESULTS_DIR

        args.results_dir = DEFAULT_RESULTS_DIR
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "dash":
        return _cmd_dash(args)

    # Every remaining verb runs simulations and shares the telemetry flags;
    # the trace file is written even when the verb fails partway, so long
    # runs that die still leave an inspectable timeline behind.
    from repro.obs import cli_telemetry

    finish = cli_telemetry(args.trace, args.log_level, no_ledger=args.no_ledger)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sim":
            return _cmd_sim(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "dse":
            return _cmd_dse(args)
        if args.command == "scaleout":
            return _cmd_scaleout(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        trace_path = finish()
        if trace_path is not None:
            print(f"trace written to {trace_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
