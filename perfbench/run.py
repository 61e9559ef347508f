"""The repository benchmark.

    python3 perfbench/run.py --workload cold-100k --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each operation runs in a fresh interpreter
(``pb_workloads.py``) with an empty results directory under
``.perfbench-work/``; operations repeat until ``--seconds`` have passed.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` untraced
and traced operations alternate and the metrics are the per-layer ones.
A run that cannot measure exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

from pb_stats import percentiles

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-100k", "figures", "fanout-replay")

#: Every run must end within 180 s; stop operations a little before that.
DEADLINE_S = 170.0


def run_operation(args, root: Path, work: Path, index: int, traced: bool, deadline: float) -> dict:
    """One operation in a fresh interpreter; its JSON record."""
    results_dir = work / f"op-{index}"
    results_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # The run ledger would append to the tracked benchmarks/ledger.jsonl and
    # collect spans on every run.
    env["REPRO_LEDGER"] = "0"
    env["TMPDIR"] = str(work)
    command = [
        sys.executable,
        str(HERE / "pb_workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--results-dir", str(results_dir),
    ] + (["--trace"] if traced else [])
    # A session of its own lets a timeout stop the pool workers too.
    child = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"operation {index} ran past the {DEADLINE_S:.0f} s deadline") from None
    finally:
        shutil.rmtree(results_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"operation {index} exited with code {child.returncode}")
    return json.loads(lines[-1])


def hit_latencies(untraced: list[dict]) -> dict[str, float]:
    """p50 and p95 of every replayed hit of the untraced operations."""
    figures = {}
    for kind in ("disk", "memo"):
        summary = percentiles([ms for r in untraced for ms in r[f"{kind}_ms"]])
        figures[f"{kind}_hit_ms_p50"] = summary["p50"]
        figures[f"{kind}_hit_ms_p95"] = summary["p95"]
        print(f"perfbench: {summary['samples']} {kind} hits", file=sys.stderr)
    return figures


def end_to_end(records: list[dict]) -> dict[str, float]:
    untraced = [r for r in records if not r["traced"]]
    return hit_latencies(untraced) | {
        # Set-up is the same whether or not the operation is then traced.
        "setup_s": median([r["setup_s"] for r in records]),
        "run_s": median([r["run_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    """Means over the traced operations, so self-times still sum to the wall."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    figures = hit_latencies(untraced)
    figures.update({name: fmean(r["layers"][name] for r in traced) for name in traced[0]["layers"]})
    figures["traced_wall_s"] = fmean(r["measured_s"] for r in traced)
    figures["tracing_overhead_s"] = figures["traced_wall_s"] - fmean(r["measured_s"] for r in untraced)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    started = time.monotonic()
    deadline = started + DEADLINE_S
    work = root / ".perfbench-work" / f"run-{os.getpid()}"
    records: list[dict] = []
    try:
        while True:
            # With tracing, untraced and traced operations alternate, so the
            # overhead compares operations run under the same conditions.
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(run_operation(args, root, work, len(records), traced, deadline))
            enough = len(records) >= (2 if args.trace else 1)
            if enough and time.monotonic() - started >= args.seconds:
                break
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    failures = [text for r in records for text in r["failures"]]
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    if len(records) > 1:
        # Every operation of a run has the same seed, so the same outputs.
        attempted += 1
        if len({json.dumps(r["digests"], sort_keys=True) for r in records}) > 1:
            failed += 1
            failures.append("operations of one run disagree on their output digests")
    for text in failures:
        print(f"perfbench: FAILED {text}", file=sys.stderr)
    # An operation that raised has no timings; the rest still measure.
    measured = [r for r in records if "measured_s" in r]
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        figures = per_layer(measured) if args.trace else end_to_end(measured)
        metrics = {
            m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec[kind]
        }
    except (KeyError, ValueError, ZeroDivisionError, IndexError) as error:
        print(f"perfbench: cannot report metrics: {error!r}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
