"""One benchmark operation, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/pb_workloads.py --workload cold-100k \\
        --seed 0 --results-dir DIR [--trace]

``run.py`` starts this once per operation, from the repository root and with
an empty results directory, so nothing an earlier operation built or cached,
in memory or on disk, can make a cold operation warm.  It sets the workload
up, times the workload's pass through the public entry points, replays the
pass's requests from the on-disk cache and from the in-process memo, checks
every simulated output, and prints one JSON line.  With ``--trace`` the
layers are wrapped (see ``pb_trace``) for the whole measured region and the
line also carries their self-times.
"""

import time

# Set-up time starts before the simulator is imported: a slower import is
# slower set-up for every user.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import pb_trace  # noqa: E402
from pb_stats import Checker, fingerprint  # noqa: E402
from repro.api import RunResult, Session, SimRequest, clear_memo  # noqa: E402
from repro.harness.config import default_config  # noqa: E402
from repro.harness.report import json_default  # noqa: E402
from repro.harness.suite import SuiteRunner  # noqa: E402
from repro.harness.workloads import get_bundle  # noqa: E402
from repro.obs import metrics as counters  # noqa: E402

#: The seed the pinned outputs in ``expected.json`` belong to.
DEFAULT_SEED = 0

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

#: Replayed requests per cache layer and operation; a p95 needs 200.
REPLAY_SAMPLES = 3000

#: The paper's evaluation figures the ``figures`` workload regenerates.
FIGURES = (
    "fig17_hdn_hit_rate",
    "fig18_memory_traffic",
    "fig19_traffic_reduction",
    "fig20_speedup",
    "fig21_ablation",
    "fig22_energy",
    "fig24_pe_scaling",
    "fig25a_runahead_sweep",
    "fig25b_bandwidth_sweep",
    "fig26_spsp_comparison",
    "disc_replacement_policy",
    "scaleout_strong_scaling",
)


def chung_lu(name: str, num_nodes: int) -> dict:
    """The scenario family of the ``repro bench`` grow rungs."""
    return {
        "name": name,
        "generator": "chung-lu",
        "num_nodes": num_nodes,
        "average_degree": 16,
        "num_communities": 64,
        "feature_lengths": [128, 64, 16],
    }


class Workload:
    """One workload: set-up, the timed pass, and the checks after it.

    :meth:`settle` checks the pass's outputs, makes sure the on-disk cache
    holds the requests to replay, and returns them with the fingerprints
    every replay must reproduce and the result whose simulated per-layer
    figures are reported.
    """

    def __init__(self, seed: int, results_dir: Path, checker: Checker):
        self.seed = seed
        self.results_dir = results_dir
        self.checker = checker
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def settle(self) -> tuple[list[SimRequest], list[str], RunResult]:
        raise NotImplementedError

    @property
    def pinned(self) -> bool:
        return self.seed == DEFAULT_SEED


class Cold100k(Workload):
    """One grow request on a 100k-node graph through a cache-less session."""

    def setup(self) -> None:
        self.request = SimRequest(
            dataset="bench-grow-100k",
            backend="grow",
            seed=self.seed,
            scenario=chung_lu("bench-grow-100k", 100_000),
        )

    def run(self) -> None:
        self.result = Session(use_cache=False).run(self.request)

    def settle(self):
        if self.pinned:
            got = {key: self.result.metrics[key] for key in EXPECTED["cold-100k"]}
            self.checker.same("cold-100k metrics", got, EXPECTED["cold-100k"])
        else:
            self.checker.same("cold-100k status", self.result.status, "ran")
        cold = fingerprint(self.result.to_dict())
        self.digests["cold"] = hashlib.sha256(cold.encode()).hexdigest()
        # A memo-less session with the empty results directory recomputes the
        # run (the bundle is memoised) and writes the disk entry replayed next.
        fresh = Session(results_dir=self.results_dir, memoize=False).run(self.request)
        self.checker.same("recomputed cold-100k", fingerprint(fresh.to_dict()), cold)
        return [self.request], [cold], self.result


class Figures(Workload):
    """The paper's evaluation figures, serially, over the Table I bundles."""

    def setup(self) -> None:
        self.config = default_config(seed=self.seed)
        for name in self.config.datasets:
            get_bundle(name, self.config)
        clear_memo()

    def run(self) -> None:
        self.report = SuiteRunner(
            config=self.config,
            experiments=FIGURES,
            jobs=1,
            use_cache=False,
            results_dir=None,
        ).run()

    def settle(self):
        for outcome in self.report.outcomes:
            if outcome.result is None:
                self.checker.check(f"{outcome.name} raised:\n{outcome.error}", False)
                continue
            rows = json.dumps(outcome.result.rows, sort_keys=True, default=json_default)
            digest = hashlib.sha256(rows.encode()).hexdigest()
            self.digests[outcome.name] = digest
            if self.pinned:
                self.checker.same(f"{outcome.name} rows", digest, EXPECTED["figures"][outcome.name])
            else:
                self.checker.check(outcome.name, True)
        # The suite ran every Table I dataset's default grow request; their
        # fresh recomputation is the reference the memo replay must match.
        requests = [SimRequest.from_experiment(self.config, name) for name in self.config.datasets]
        fresh = Session(results_dir=self.results_dir, memoize=False).run_batch(requests)
        return requests, [fingerprint(result.to_dict()) for result in fresh], fresh[0]


class FanoutReplay(Workload):
    """32 grow requests on a 30k-node graph fanned out over two workers."""

    def setup(self) -> None:
        scenario = chung_lu("bench-fanout-30k", 30_000)
        self.requests = [
            SimRequest(
                dataset=scenario["name"],
                backend="grow",
                seed=self.seed,
                scenario=scenario,
                partitioned=partitioned,
                overrides={"hdn_cache_bytes": kib * 1024, "runahead_degree": degree},
            )
            for kib in (64, 128, 256, 512)
            for degree in (1, 4, 16, 64)
            for partitioned in (True, False)
        ]

    def run(self) -> None:
        self.results = Session(jobs=2, results_dir=self.results_dir).run_batch(self.requests)

    def settle(self):
        prints = [fingerprint(result.to_dict()) for result in self.results]
        for result in self.results:
            self.checker.same("fan-out status", result.status, "ran")
        digest = hashlib.sha256("\n".join(prints).encode()).hexdigest()
        self.digests["fanout"] = digest
        if self.pinned:
            self.checker.same("fan-out payloads", digest, EXPECTED["fanout-replay"])
        return self.requests, prints, self.results[0]


WORKLOADS = {"cold-100k": Cold100k, "figures": Figures, "fanout-replay": FanoutReplay}


def session_counters() -> dict[str, float]:
    return {
        name: counters.counter(f"session.{name}")
        for name in ("requests", "memo_hits", "disk_hits")
    }


def replay(requests, reference, results_dir: Path, checker: Checker) -> dict:
    """Replay ``requests`` from the disk cache and from the memo, alternately.

    Both kinds take turns request by request, so a drift in the host's speed
    affects them alike.  Returns each kind's per-request latencies in
    milliseconds and its hit rate, which must be 1.0; every replayed payload
    must be byte-identical to its reference.
    """
    sessions = {
        "disk": Session(results_dir=results_dir, memoize=False),
        "memo": Session(use_cache=False),
    }
    samples: dict[str, list[float]] = {kind: [] for kind in sessions}
    before = session_counters()
    for _ in range(math.ceil(REPLAY_SAMPLES / len(requests))):
        for request, want in zip(requests, reference):
            for kind, session in sessions.items():
                started = time.perf_counter()
                result = session.run(request)
                samples[kind].append((time.perf_counter() - started) * 1e3)
                checker.same(f"{kind} replay of {request.dataset}", fingerprint(result.to_dict()), want)
    after = session_counters()
    replays = {}
    for kind, latencies in samples.items():
        rate = (after[f"{kind}_hits"] - before[f"{kind}_hits"]) / len(latencies)
        checker.same(f"{kind} hit rate", rate, 1.0)
        replays[kind] = {"ms": latencies, "hit_rate": rate}
    return replays


def sim_metrics(result: RunResult) -> dict[str, float]:
    """Simulated cycles per GCN layer and phase, and aggregation's memory figures."""
    figures = {}
    for index, phase in enumerate(result.accelerator_result().phases):
        prefix = f"sim.layer{index // 2}.{phase.name}"
        figures[f"{prefix}.cycles"] = phase.total_cycles
        if phase.name == "aggregation":
            figures[f"{prefix}.dram_bytes"] = phase.dram_bytes
            figures[f"{prefix}.stall_cycles"] = phase.stall_cycles
            figures[f"{prefix}.hdn_hit_rate"] = phase.extra["hdn_hit_rate"]
    return figures


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any worker it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def measure(workload: Workload, trace: bool, results_dir: Path, checker: Checker) -> dict:
    """Set up, run, settle and replay one workload; the child's JSON record."""
    pb_trace.import_layers()
    workload.setup()
    record = {"setup_s": time.perf_counter() - _STARTED}

    recorder = pb_trace.Recorder(results_dir)
    if trace:
        recorder.install()
    region_started = time.perf_counter()
    before = session_counters()
    workload.run()
    record["run_s"] = time.perf_counter() - region_started
    record["peak_rss_mb"] = peak_rss_mb()
    after = session_counters()
    memo_hit_rate = (after["memo_hits"] - before["memo_hits"]) / (after["requests"] - before["requests"])
    requests, reference, sample = workload.settle()
    replays = replay(requests, reference, results_dir, checker)
    record["measured_s"] = time.perf_counter() - region_started
    recorder.uninstall()
    record["disk_ms"] = replays["disk"]["ms"]
    record["memo_ms"] = replays["memo"]["ms"]

    layers = sim_metrics(sample)
    layers["api.session.memo_hit_rate"] = memo_hit_rate
    layers["api.session.replay_disk_hit_rate"] = replays["disk"]["hit_rate"]
    layers["api.session.replay_memo_hit_rate"] = replays["memo"]["hit_rate"]
    if trace:
        recorder.merge_workers()
        attributed = recorder.self_seconds()
        checker.check(
            f"self-times {attributed:.4f}s exceed the traced wall {record['measured_s']:.4f}s",
            attributed <= record["measured_s"] * 1.01,
        )
        layers.update(recorder.metrics())
        layers["unattributed_s"] = record["measured_s"] - attributed
    record["layers"] = layers
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--results-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    checker = Checker()
    workload = WORKLOADS[args.workload](args.seed, args.results_dir, checker)
    # Anything the simulator prints must not corrupt the JSON line.
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        record = measure(workload, args.trace, args.results_dir, checker)
    except Exception as error:
        traceback.print_exc()
        record = {}
        checker.check(f"operation raised {error!r}", False)
    finally:
        sys.stdout = stdout
    record.update(
        traced=args.trace,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.failures[:5],
        digests=workload.digests,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
