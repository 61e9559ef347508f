"""The bench driver behind ``repro bench``.

Measures each requested rung in :data:`SAMPLES_PER_RUNG` fresh worker
interpreters, emits the next ``BENCH_<n>.json``, and checks the result
for regressions — exiting non-zero on one, so CI can gate on it.  The
gate is the trajectory gate of :mod:`repro.obs.trend`: every rung is
classified against a min-over-window baseline of the committed documents
with a tolerance band, which is robust to single-document noise.

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
from repro.bench.ladder import DEFAULT_LADDER, RUNGS
from repro.obs import configure_logging, trend
from repro.obs import ledger as run_ledger

#: Fresh interpreters each rung is measured in.  ``wall_seconds`` is their
#: minimum: one sample cannot carry the gate's ±25% band on a noisy host.
SAMPLES_PER_RUNG = 3


def _worker_environment() -> dict[str, str]:
    """Child env with the package's source root on PYTHONPATH and the run
    ledger off: the driver records the rung's one ``bench`` line."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    env[run_ledger.LEDGER_ENV] = "0"
    return env


def _run_worker_once(name: str) -> dict:
    """Measure one rung once in a fresh interpreter (see ``repro.bench.worker``)."""
    command = [sys.executable, "-m", "repro.bench.worker", name]
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


def _measure_rung(name: str) -> dict:
    """The rung's record from :data:`SAMPLES_PER_RUNG` fresh workers.

    A repeat inside one process would rerun only the cycle model — the
    dataset and preprocessing bundles are memoised per process — so every
    sample gets a cold interpreter.  The record is the fastest sample's
    (its wall and phase breakdown) with every sample's wall in
    ``wall_samples`` and the largest peak RSS; the simulated metrics must
    agree.
    """
    samples = [_run_worker_once(name) for _ in range(SAMPLES_PER_RUNG)]
    if any(sample["metrics"] != samples[0]["metrics"] for sample in samples):
        raise RuntimeError(f"rung {name!r} is not deterministic: sample metrics differ")
    fastest = min(samples, key=lambda sample: sample["wall_seconds"])
    return dict(
        fastest,
        wall_samples=[sample["wall_seconds"] for sample in samples],
        peak_rss_kb=max(sample["peak_rss_kb"] for sample in samples),
    )


def _record_bench_ledger(sample: dict) -> None:
    """One ``bench`` ledger line per measured rung (no-op when disabled)."""
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
    bench_dir: Path | str = emit.DEFAULT_BENCH_DIR,
    notes: str = "",
    emit_json: bool = True,
    gate_tolerance: float = trend.DEFAULT_TOLERANCE,
) -> int:
    """Run the ladder, emit the next document, report regressions.

    Returns the process exit code: 0 on success, 1 on a regression.  The
    trend engine classifies each rung against the whole committed
    trajectory (min-over-window baseline, ``gate_tolerance`` band) and
    any ``regressed`` verdict fails.
    """
    names = list(rungs) if rungs else list(DEFAULT_LADDER)
    unknown = [name for name in names if name not in RUNGS]
    if unknown:
        raise ValueError(f"unknown bench rung(s) {unknown}; choose from {sorted(RUNGS)}")

    bench_dir = Path(bench_dir)
    # Gate history must be captured before the new document is written,
    # so the candidate never competes against itself.
    history = emit.load_trajectory(bench_dir)

    samples = []
    for name in names:
        print(f"  running {name} ...", flush=True)
        sample = _measure_rung(name)
        print(
            f"    {sample['wall_seconds']:.3f}s wall, "
            f"{sample['peak_rss_kb'] / 1024:.0f} MB peak RSS"
        )
        samples.append(sample)
        _record_bench_ledger(sample)

    document = emit.build_document(samples, notes=notes)
    if emit_json:
        path = emit.write_bench(document, bench_dir)
        print(f"wrote {path}")

    report = trend.evaluate_gate(document, history, tolerance=gate_tolerance)
    for rung_trend in report.rungs:
        print(f"  {rung_trend.describe()}")
    if not report.ok:
        names_failed = ", ".join(t.rung for t in report.regressions)
        print(
            f"trend gate FAILED (tolerance ±{report.tolerance * 100:.0f}%, "
            f"window {trend.WINDOW}): {names_failed}"
        )
        return 1
    print(
        f"trend gate passed (tolerance ±{report.tolerance * 100:.0f}%, "
        f"window {trend.WINDOW}, {report.documents} document(s) of history)"
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
        "--bench-dir",
        type=Path,
        default=emit.DEFAULT_BENCH_DIR,
        help=f"directory of the BENCH_<n>.json trajectory (default {emit.DEFAULT_BENCH_DIR})",
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
        default=trend.DEFAULT_TOLERANCE,
        metavar="FRACTION",
        help="symmetric tolerance band of the trend gate, e.g. 0.25 = ±25%% "
        f"(default {trend.DEFAULT_TOLERANCE:g})",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append bench records to the run ledger",
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
    if args.log_level:
        configure_logging(args.log_level)
    if args.no_ledger:
        run_ledger.disable_ledger()
    try:
        return run_bench(
            rungs=args.rungs,
            bench_dir=args.bench_dir,
            notes=args.notes,
            emit_json=not args.no_emit,
            gate_tolerance=args.gate_tolerance,
        )
    except (ValueError, RuntimeError, emit.BenchSchemaError) as error:
        raise SystemExit(str(error)) from error
