"""CONC: worker purity — pool-reachable code must not touch shared state.

Every fan-out in this repo ships requests to spawn-start
``ProcessPoolExecutor`` workers and relies on the serial == parallel ==
memo == disk byte-identity contract.  A worker that writes module-level
state, reconfigures the process-global tracer/metrics, or reads the
clock/environment produces results that depend on *which process* ran
the request — exactly what the contract forbids, and a hard blocker for
the roadmap's multi-host execution (workers claiming requests by cache
key across machines).

The family is whole-program: entry points are the callables handed to a
pool (the set POOL001 polices), and the rules walk everything reachable
from them through :mod:`repro.analyze.callgraph`.

* ``CONC001`` — writes to module-level mutable state in worker-reachable
  code: ``global`` rebinding, mutation of module-level containers
  (subscript stores, ``.append``/``.update``/``.pop``/...), and attribute
  assignment on imported modules/objects.  Per-process memos that workers
  rebuild deterministically are the sanctioned exception — each carries
  an inline ``# repro: allow(CONC001) reason``.
* ``CONC002`` — process-global telemetry reconfiguration
  (``trace.enable/disable/drain/clear/ingest``, ``metrics.merge/reset``,
  ``configure_logging``) in worker-reachable code.  Workers use the
  scoped protocol instead: ``with trace.collect() ... metrics.scoped()``;
  thread-safe recording calls (``metrics.inc``, ``trace.span``) are fine.
* ``CONC003`` — wall-clock or environment reads in worker-reachable code
  that do not already carry a justified ``allow(DET001)``/``allow(DET003)``
  — the per-layer DET rules catch these stylistically; CONC003 restates
  the ones that additionally sit on the parallel path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.callgraph import (
    CallGraph,
    FunctionInfo,
    graph_for,
    module_level_names,
    pool_entry_points,
    short_name,
)
from repro.analyze.contracts import CheckConfig
from repro.analyze.findings import Finding
from repro.analyze.project import Project
from repro.analyze.rules.base import Rule, register
from repro.analyze.rules.determinism import (
    CLOCK_CALLS,
    build_alias_map,
    canonical_call_name,
)

#: Methods that mutate their receiver in place (list/dict/set/deque).
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "clear", "pop",
        "popitem", "setdefault", "remove", "discard", "sort", "reverse",
        "appendleft", "extendleft",
    }
)

#: Canonical-name suffixes of process-global telemetry reconfiguration.
#: Recording calls (``metrics.inc``, ``trace.span``) are
#: thread- and scope-safe by design and deliberately absent.
_OBS_MUTATOR_SUFFIXES = (
    "trace.enable", "trace.disable", "trace.drain",
    "trace.ingest", "metrics.merge", "metrics.reset", "configure_logging",
)


def _local_bindings(func: ast.AST) -> set[str]:
    """Names bound locally inside a function: parameters plus every Store
    target *not* declared ``global``/``nonlocal`` — these shadow any
    same-named module-level state."""
    declared_global: set[str] = set()
    stored: set[str] = set()
    params: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            stored.add(node.id)
        elif isinstance(node, ast.arg):
            params.add(node.arg)
    return params | (stored - declared_global)


def _worker_closure(
    project: Project, config: CheckConfig
) -> tuple[CallGraph, list[FunctionInfo]]:
    """The call graph plus every worker-reachable function in a
    determinism-scoped layer, in deterministic order."""
    graph = graph_for(project)
    entries = pool_entry_points(project, graph)
    reachable = graph.reachable(entries)
    functions = [
        graph.functions[qual]
        for qual in sorted(reachable)
        if graph.functions[qual].module.layer in config.determinism_scope
    ]
    return graph, functions


_short_name = short_name


@register
class WorkersKeepModuleStateIntact(Rule):
    rule_id = "CONC001"
    family = "CONC"
    summary = "pool-worker-reachable code must not write module-level state"
    contract = "docs/architecture.md serial == parallel byte-identity (PR 4, PR 10)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        _, functions = _worker_closure(project, config)
        seen: set[tuple] = set()
        for info in functions:
            for finding in self._check_function(info):
                key = (finding.path, finding.line, finding.message)
                if key not in seen:
                    seen.add(key)
                    yield finding

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        module = info.module
        module_names = module_level_names(module)
        locals_ = _local_bindings(info.node)
        declared_global: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        def is_module_state(name: str) -> bool:
            return (name in module_names or name in declared_global) and (
                name not in locals_ or name in declared_global
            )

        short = _short_name(info)
        for node in ast.walk(info.node):
            # global X; X = ... — rebinding shared module state.
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in declared_global:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"worker-reachable '{short}' rebinds module global "
                        f"'{node.id}'; a pool worker's write never reaches "
                        f"the parent — results would depend on which process "
                        f"ran the request",
                    )
            # X[k] = ... / del X[k] on a module-level container.
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if isinstance(node.value, ast.Name) and is_module_state(node.value.id):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"worker-reachable '{short}' mutates module-level "
                        f"container '{node.value.id}' by subscript; "
                        f"per-process memos need an inline justification "
                        f"('# repro: allow(CONC001) reason')",
                    )
            # X.append(...) / X.pop(...) on a module-level container.
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and is_module_state(node.func.value.id)
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    f"worker-reachable '{short}' calls "
                    f"{node.func.value.id}.{node.func.attr}() on module-level "
                    f"state; per-process memos need an inline justification "
                    f"('# repro: allow(CONC001) reason')",
                )
            # mod.ATTR = ... — attribute assignment on an imported name.
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                aliases = build_alias_map(module)
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id not in locals_
                        and target.value.id in aliases
                    ):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"worker-reachable '{short}' assigns "
                            f"{target.value.id}.{target.attr}; attribute "
                            f"writes on imported modules/objects are shared "
                            f"state the pool workers cannot see",
                        )


@register
class WorkersUseScopedTelemetry(Rule):
    rule_id = "CONC002"
    family = "CONC"
    summary = "pool-worker-reachable code must not reconfigure global telemetry"
    contract = "docs/architecture.md worker telemetry side-channel (PR 7, PR 10)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        _, functions = _worker_closure(project, config)
        seen: set[tuple] = set()
        for info in functions:
            aliases = build_alias_map(info.module)
            short = _short_name(info)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                name = canonical_call_name(node.func, aliases)
                if name is None:
                    continue
                if not any(
                    name == suffix or name.endswith("." + suffix)
                    for suffix in _OBS_MUTATOR_SUFFIXES
                ):
                    continue
                tail = ".".join(name.split(".")[-2:])
                finding = self.finding(
                    info.module,
                    node.lineno,
                    f"worker-reachable '{short}' calls {tail}() — "
                    f"process-global telemetry reconfiguration; workers "
                    f"record through trace.collect()/metrics.scoped() "
                    f"instead (justify parent-only branches with "
                    f"'# repro: allow(CONC002) reason')",
                )
                key = (finding.path, finding.line, finding.message)
                if key not in seen:
                    seen.add(key)
                    yield finding


@register
class WorkersAvoidAmbientReads(Rule):
    rule_id = "CONC003"
    family = "CONC"
    summary = "pool-worker-reachable clock/env reads need a justified allow()"
    contract = "docs/architecture.md byte-identity across processes (PR 4, PR 10)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        _, functions = _worker_closure(project, config)
        seen: set[tuple] = set()
        for info in functions:
            module = info.module
            aliases = build_alias_map(module)
            short = _short_name(info)
            for node in ast.walk(info.node):
                finding = None
                if isinstance(node, ast.Call):
                    name = canonical_call_name(node.func, aliases)
                    if name in CLOCK_CALLS and not module.suppressions.allows(
                        node.lineno, "DET001"
                    ):
                        finding = self.finding(
                            module,
                            node.lineno,
                            f"worker-reachable '{short}' reads the wall clock "
                            f"({name}()) with no justified allow(DET001); "
                            f"worker results must be functions of the request "
                            f"alone",
                        )
                    elif name == "os.getenv" and not module.suppressions.allows(
                        node.lineno, "DET003"
                    ):
                        finding = self.finding(
                            module,
                            node.lineno,
                            f"worker-reachable '{short}' reads the environment "
                            f"(os.getenv()) with no justified allow(DET003); "
                            f"spawn workers inherit a snapshot, not the "
                            f"parent's live environment",
                        )
                elif isinstance(node, ast.Attribute):
                    name = canonical_call_name(node, aliases)
                    if name == "os.environ" and not module.suppressions.allows(
                        node.lineno, "DET003"
                    ):
                        finding = self.finding(
                            module,
                            node.lineno,
                            f"worker-reachable '{short}' reads the environment "
                            f"(os.environ) with no justified allow(DET003); "
                            f"spawn workers inherit a snapshot, not the "
                            f"parent's live environment",
                        )
                if finding is not None:
                    key = (finding.path, finding.line, finding.message)
                    if key not in seen:
                        seen.add(key)
                        yield finding
