"""The rule engine: rule protocol, registry, and the seven families.

A rule is a named check over a parsed :class:`~repro.analyze.project.Project`
yielding :class:`~repro.analyze.findings.Finding`s.  Rules register
themselves by id at import; families group them for ``--rules`` selection
(``--rules LAY`` selects every layering rule, ``--rules DET001`` exactly
one).

Families:

* ``LAY`` — layering: the architecture.md layer DAG, the stdlib-only
  substrate, import-cycle freedom, engines-never-import-orchestration.
* ``DET`` — determinism: no wall-clock, unseeded-RNG or environment reads
  in engine/cache-key code paths.
* ``KEY`` — cache identity: every request field reaches
  ``canonical_json()``; frozen dataclasses are only mutated during
  ``__post_init__`` canonicalisation.
* ``POOL`` — pool safety: process-pool workers must be module-level
  callables (spawn-start pickling).
* ``EXC`` — exception hygiene: no bare ``except:``, no silent swallowing
  in engines.
* ``CONC`` — worker purity (whole-program): code reachable from a pool
  submission must not write module-level state, reconfigure global
  telemetry, or read clocks/environment without justification.
* ``VEC`` — the vectorization contract: stable sorts, no
  sort-then-reverse, no dtype-narrowing casts on index arrays, no
  ``np.unique`` on its hash or ``axis=`` paths.

``KEY003`` (in the ``KEY`` family) is whole-program too: request fields
read in a backend's call-graph closure must reach ``canonical_json()``.

The protocol and registry live in :mod:`repro.analyze.rules.base`; the
family modules import from there (not from this package) so the
module-scope import graph stays cycle-free under the checker's own
``LAY003``.
"""

from __future__ import annotations

from repro.analyze.rules.base import (  # noqa: F401  (public re-exports)
    RULES,
    Rule,
    families,
    register,
    rule_ids,
    select_rules,
)

# Importing the family modules registers every rule.
from repro.analyze.rules import (  # noqa: E402,F401  (registration imports)
    determinism,
    hygiene,
    identity,
    layering,
    pools,
)
from repro.analyze.rules import (  # noqa: E402,F401  (PR 10 whole-program families)
    concurrency,
    vectorize,
)

__all__ = [
    "RULES",
    "Rule",
    "families",
    "register",
    "rule_ids",
    "select_rules",
]
