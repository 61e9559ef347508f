"""Per-sample subprocess entry: ``python -m repro.bench.worker <rung>``.

Running each sample in a fresh interpreter keeps the measurements honest:
no warm module caches, no shared run memo, and a peak-RSS figure that
belongs to that sample alone.  The sample record is printed as a single
JSON line on stdout; everything else the rung prints goes to stderr.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.bench.worker <rung>", file=sys.stderr)
        return 2

    from repro.bench.ladder import run_rung

    # Anything the simulators print must not corrupt the JSON line.
    stdout = sys.stdout
    sys.stdout = sys.stderr
    try:
        sample = run_rung(argv[0])
    finally:
        sys.stdout = stdout
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
