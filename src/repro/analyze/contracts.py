"""The repository's contracts, as data: what the rules enforce.

This module is the single place where ``docs/architecture.md`` prose
becomes machine-checkable configuration.  The rule implementations in
``repro.analyze.rules`` are generic over a :class:`CheckConfig`; the
:data:`DEFAULT_CONFIG` below encodes this repo's layer DAG, determinism
scope and hygiene scope.  The analyzer's tests build fixture trees whose
first-level package names reuse these layer names, so the same config
exercises every rule.

Layer names are the first-level packages under the scan root
(``src/repro``): ``obs``, ``sparse``, ``graph``, ..., plus ``""`` for the
root-level modules (``__init__``, ``__main__``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The top package itself (``import repro`` — e.g. the cache's source-tree
#: hashing); distinct from any first-level layer name.
ROOT = "<root>"

#: Packages that simulate or define cache identity: a wall-clock read, an
#: unseeded RNG or an environment read here can silently poison
#: reproducibility and cache keys.  ``obs``/``bench``/``analyze`` are
#: allowlisted *by layer*: they measure and report, they never feed results
#: or keys.  (The orchestration layers — harness/dse/scaleout/api — are in
#: scope: their deliberate wall-time *metadata* reads carry inline
#: ``# repro: allow(...)`` suppressions instead, so each one is justified
#: where it happens.)
DETERMINISM_SCOPE = frozenset(
    {
        "sparse", "graph", "gcn", "memory", "energy", "accelerators",
        "core", "analysis", "harness", "dse", "scaleout", "api", "",
    }
)

#: The pure engine layers: these must never import the orchestration
#: stack at *any* scope (module or call time) — engines are driven by the
#: harness and the facade, never the other way around.
ENGINE_LAYERS = frozenset(
    {"sparse", "graph", "gcn", "memory", "energy", "accelerators", "core", "analysis"}
)

#: What engines must never import (LAY004).  ``api`` is deliberately
#: absent: the facade is documented as importable from any layer (its
#: module scope depends only on ``graph``).
ORCHESTRATION_LAYERS = frozenset({"harness", "dse", "scaleout", "bench"})


#: Request-dataclass fields documented as *canonicalised away*: fields a
#: backend may read even though ``canonical_json()`` deliberately omits
#: them (none today — every ``SimRequest`` field is part of the cache
#: identity).  Adding a name here is a documented decision that two
#: requests differing only in that field *should* share a cache entry;
#: KEY003 holds backends to exactly this list.
CACHE_KEY_EXEMPT_FIELDS: frozenset[str] = frozenset()

#: The shared process-pool fan-out helper(s), by qualified name.
#: ``fan_out(f, ...)`` ships ``f`` to pool workers exactly like
#: ``pool.submit(f, ...)``: POOL001 polices its first argument and the
#: call graph takes it as a worker entry point.  (The helper's own
#: ``pool.submit(fn, ...)`` ships a parameter the graph cannot resolve, so
#: without this list the CONC rules would lose every worker.)
FAN_OUT_HELPERS: frozenset[str] = frozenset({"repro.api.pool.fan_out"})


@dataclass(frozen=True)
class CheckConfig:
    """Everything rule implementations parameterise over.

    Attributes:
        layer_deps: per-layer allowed *module-scope* import targets
            (layer names, plus :data:`ROOT` for ``import <top>``).
            ``obs`` is implicitly importable from every layer — it is the
            stdlib-only telemetry substrate at the bottom of the stack.
        stdlib_only_layers: layers whose modules may import only the
            standard library (and their own layer) at any scope.
        stdlib_only_exempt: per-layer module basenames exempt from the
            stdlib-only rule with the internal targets each may reach
            lazily (the documented consumer split: ``obs.trend`` and
            ``obs.dashboard`` may import ``bench``).
        determinism_scope: layers where clock/RNG/env reads are flagged.
        engine_layers: layers that must never import orchestration.
        orchestration_layers: the forbidden-at-any-scope target layers.
        hygiene_scope: layers where silent exception swallowing is flagged
            (bare ``except:`` is flagged everywhere).
        request_param: the parameter name that carries the request through
            backend code paths; KEY003 tracks ``<request_param>.<field>``
            reads in a backend's reachable set.
        cache_key_exempt_fields: request fields documented as canonicalised
            away — readable by backends without appearing in
            ``canonical_json()`` (see :data:`CACHE_KEY_EXEMPT_FIELDS`).
    """

    layer_deps: dict[str, frozenset[str]] = field(default_factory=dict)
    stdlib_only_layers: frozenset[str] = frozenset()
    stdlib_only_exempt: dict[str, frozenset[str]] = field(default_factory=dict)
    determinism_scope: frozenset[str] = DETERMINISM_SCOPE
    engine_layers: frozenset[str] = ENGINE_LAYERS
    orchestration_layers: frozenset[str] = ORCHESTRATION_LAYERS
    hygiene_scope: frozenset[str] = DETERMINISM_SCOPE
    request_param: str = "request"
    cache_key_exempt_fields: frozenset[str] = CACHE_KEY_EXEMPT_FIELDS


def _deps(*layers: str) -> frozenset[str]:
    return frozenset(layers)


#: The layer DAG of ``docs/architecture.md`` ("Layering"), as allowed
#: module-scope dependencies.  ``obs`` is importable from everywhere and
#: therefore not listed; sanctioned back-edges (harness -> dse for
#: experiment registration, scaleout -> api for chip-slice requests) are
#: spelled out rather than inferred.
LAYER_DEPS: dict[str, frozenset[str]] = {
    "obs": _deps(),
    "analyze": _deps(),
    "sparse": _deps(),
    "memory": _deps(),
    "energy": _deps(),
    "graph": _deps("sparse"),
    "gcn": _deps("sparse", "graph"),
    "accelerators": _deps("sparse", "graph", "gcn", "memory"),
    "core": _deps("sparse", "graph", "gcn", "accelerators", "memory"),
    "analysis": _deps("sparse", "graph", "gcn", "accelerators"),
    "api": _deps("graph"),
    "harness": _deps(
        "sparse", "graph", "gcn", "memory", "energy", "accelerators",
        "core", "analysis", "api", "dse", ROOT,
    ),
    "dse": _deps(
        "sparse", "graph", "gcn", "memory", "energy", "accelerators",
        "core", "analysis", "api", "harness",
    ),
    "scaleout": _deps(
        "sparse", "graph", "gcn", "memory", "energy", "accelerators",
        "core", "api", "harness",
    ),
    "bench": _deps("api", "dse", "graph", "harness", ROOT),
    # Root-level modules (__init__, __main__) compose everything.
    "": _deps(
        "sparse", "graph", "gcn", "memory", "energy", "accelerators",
        "core", "analysis", "api", "harness", "dse", "scaleout", "bench",
        "analyze", ROOT,
    ),
}

#: ``obs`` substrate and the analyzer itself are stdlib-only: importable
#: from any layer (or usable with no third-party deps at all) without
#: creating cycles.  The documented consumer split exempts ``obs.trend``
#: and ``obs.dashboard``, which may lazily import the bench layer.
STDLIB_ONLY_LAYERS = frozenset({"obs", "analyze"})
STDLIB_ONLY_EXEMPT: dict[str, frozenset[str]] = {
    "obs": frozenset({"trend", "dashboard"}),
}

DEFAULT_CONFIG = CheckConfig(
    layer_deps=LAYER_DEPS,
    stdlib_only_layers=STDLIB_ONLY_LAYERS,
    stdlib_only_exempt=STDLIB_ONLY_EXEMPT,
)
