"""The bench driver shared by ``repro bench`` and ``benchmarks/perf.py``.

Runs the requested rungs (each in its own worker process by default),
emits the next ``BENCH_<n>.json``, and checks the result for regressions
— exiting non-zero on one, so CI can gate on it.  The gate is the
trajectory gate of :mod:`repro.obs.trend`: every rung is classified
against a min-over-window baseline of the committed documents with a
tolerance band, which is robust to single-document noise.

Each measured rung also appends one ``bench`` record to the run ledger
(:mod:`repro.obs.ledger`) unless it is disabled.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.bench import emit
from repro.bench.ladder import DEFAULT_LADDER, RUNGS, run_rung


def _worker_environment() -> dict[str, str]:
    """Child env with the package's source root on PYTHONPATH."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


def _run_worker_once(name: str) -> dict:
    """Measure one rung once in a fresh interpreter (see ``repro.bench.worker``)."""
    command = [sys.executable, "-m", "repro.bench.worker", name, "1"]
    proc = subprocess.run(
        command, capture_output=True, text=True, env=_worker_environment()
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench worker for rung {name!r} failed "
            f"(exit {proc.returncode}):\n{proc.stderr.strip()}"
        )
    # The sample is the last stdout line; the rung's own output went to stderr.
    for line in reversed(proc.stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"bench worker for rung {name!r} printed no sample")


def _run_rung_isolated(name: str, repeats: int) -> dict:
    """Run every repeat in its own interpreter and merge the samples.

    A repeat inside one process would rerun only the cycle model — the
    dataset and preprocessing bundles are memoised per process — so each
    repeat gets a cold interpreter and the merged record keeps the
    minimum wall, the maximum RSS and the (identical) metrics.  The phase
    breakdown follows the wall estimator: the fastest repeat's wins.
    """
    merged = _run_worker_once(name)
    best_wall = min(merged["wall_samples"])
    for _ in range(repeats - 1):
        sample = _run_worker_once(name)
        if sample["metrics"] != merged["metrics"]:
            raise RuntimeError(
                f"rung {name!r} is not deterministic: repeat metrics differ"
            )
        merged["wall_samples"].extend(sample["wall_samples"])
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], sample["peak_rss_kb"])
        if min(sample["wall_samples"]) < best_wall and "phases" in sample:
            best_wall = min(sample["wall_samples"])
            merged["phases"] = sample["phases"]
    merged["wall_seconds"] = min(merged["wall_samples"])
    return merged


def _record_bench_ledger(sample: dict) -> None:
    """One ``bench`` ledger line per measured rung (no-op when disabled)."""
    from repro.obs import ledger as run_ledger

    if not run_ledger.ledger_enabled():
        return
    run_ledger.record_run(
        "bench",
        sample["rung"],
        outcome="ok",
        wall_seconds=sample["wall_seconds"],
        scenario_digest=sample["scenario_digest"],
        phases=sample.get("phases") or None,
        metrics=sample["metrics"],
    )


def run_bench(
    rungs: list[str] | None = None,
    repeats: int = 1,
    bench_dir: Path | str = emit.DEFAULT_BENCH_DIR,
    isolated: bool = True,
    notes: str = "",
    emit_json: bool = True,
    gate_tolerance: float | None = None,
    gate_window: int | None = None,
    out=sys.stdout,
) -> int:
    """Run the ladder, emit the next document, report regressions.

    Returns the process exit code: 0 on success, 1 on a regression.  The
    trend engine classifies each rung against the whole committed
    trajectory (min-over-window baseline, ``gate_tolerance`` band) and
    any ``regressed`` verdict fails.
    """
    from repro.obs import trend

    names = list(rungs) if rungs else list(DEFAULT_LADDER)
    unknown = [name for name in names if name not in RUNGS]
    if unknown:
        raise ValueError(f"unknown bench rung(s) {unknown}; choose from {sorted(RUNGS)}")

    bench_dir = Path(bench_dir)
    # Gate history must be captured before the new document is written,
    # so the candidate never competes against itself.
    history = trend.load_trajectory(bench_dir)

    samples = []
    for name in names:
        print(f"  running {name} ...", file=out, flush=True)
        if isolated:
            sample = _run_rung_isolated(name, repeats)
        else:
            sample = run_rung(name, repeats=repeats)
        print(
            f"    {sample['wall_seconds']:.3f}s wall, "
            f"{sample['peak_rss_kb'] / 1024:.0f} MB peak RSS",
            file=out,
        )
        samples.append(sample)
        _record_bench_ledger(sample)

    document = emit.build_document(samples, notes=notes)
    if emit_json:
        path = emit.write_bench(document, bench_dir)
        print(f"wrote {path}", file=out)

    report = trend.evaluate_gate(
        document,
        history,
        tolerance=gate_tolerance if gate_tolerance is not None else trend.DEFAULT_TOLERANCE,
        window=gate_window if gate_window is not None else trend.DEFAULT_WINDOW,
    )
    for rung_trend in report.rungs:
        print(f"  {rung_trend.describe()}", file=out)
    if not report.ok:
        names_failed = ", ".join(t.rung for t in report.regressions)
        print(
            f"trend gate FAILED (tolerance ±{report.tolerance * 100:.0f}%, "
            f"window {report.window}): {names_failed}",
            file=out,
        )
        return 1
    print(
        f"trend gate passed (tolerance ±{report.tolerance * 100:.0f}%, "
        f"window {report.window}, {report.documents} document(s) of history)",
        file=out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the fixed benchmark ladder and append BENCH_<n>.json.",
    )
    parser.add_argument(
        "--rungs",
        nargs="+",
        default=None,
        metavar="RUNG",
        help=f"rungs to run (default ladder: {', '.join(DEFAULT_LADDER)}; "
        f"known: {', '.join(sorted(RUNGS))})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="repeats per rung; wall_seconds records the minimum (default 1)",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=emit.DEFAULT_BENCH_DIR,
        help=f"directory of the BENCH_<n>.json trajectory (default {emit.DEFAULT_BENCH_DIR})",
    )
    parser.add_argument(
        "--in-process",
        action="store_true",
        help="run rungs in this interpreter instead of per-rung workers "
        "(faster, but RSS figures become cumulative)",
    )
    parser.add_argument(
        "--notes", default="", help="free-form note stored in the document"
    )
    parser.add_argument(
        "--no-emit",
        action="store_true",
        help="measure and compare without writing a new BENCH_<n>.json",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="symmetric tolerance band of the trend gate, e.g. 0.25 = ±25%% "
        "(default from repro.obs.trend)",
    )
    parser.add_argument(
        "--gate-window",
        type=int,
        default=None,
        metavar="N",
        help="how many recent comparable documents the trend gate's "
        "baseline spans (default from repro.obs.trend)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append bench records to the run ledger",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a Chrome/Perfetto trace of the driver process to FILE "
        "(in-process rungs only; isolated workers trace internally)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="emit structured JSON logs at LEVEL (debug, info, warning, ...)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    from repro.obs import cli_telemetry

    finish = cli_telemetry(args.trace, args.log_level, no_ledger=args.no_ledger)
    try:
        return run_bench(
            rungs=args.rungs,
            repeats=args.repeats,
            bench_dir=args.bench_dir,
            isolated=not args.in_process,
            notes=args.notes,
            emit_json=not args.no_emit,
            gate_tolerance=args.gate_tolerance,
            gate_window=args.gate_window,
        )
    except (ValueError, RuntimeError, emit.BenchSchemaError) as error:
        raise SystemExit(str(error)) from error
    finally:
        trace_path = finish()
        if trace_path is not None:
            print(f"trace written to {trace_path}", file=sys.stderr)
