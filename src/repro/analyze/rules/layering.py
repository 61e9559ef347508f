"""LAY: the layer DAG of ``docs/architecture.md``, mechanically enforced.

* ``LAY001`` — a package's module-scope imports must stay inside its
  documented dependency set (``obs`` is importable from everywhere).
  A package missing from the DAG config entirely is itself a finding:
  new layers must be added to ``contracts.LAYER_DEPS`` (and the docs)
  before they may import anything.
* ``LAY002`` — stdlib-only layers (``obs`` substrate, ``analyze``) may
  import only the standard library and their own layer, at *any* scope.
* ``LAY003`` — the module-scope import graph must be cycle-free at module
  granularity.
* ``LAY004`` — engine layers never import the orchestration stack
  (harness/dse/scaleout/bench) at any scope; engines are driven, they do
  not drive.
"""

from __future__ import annotations

import sys
from typing import Iterator

from repro.analyze.contracts import ROOT, CheckConfig
from repro.analyze.findings import Finding
from repro.analyze.project import Project
from repro.analyze.rules.base import Rule, register


def _target_layer(project: Project, dotted: str) -> str:
    if dotted == project.top_package:
        return ROOT
    return project.layer_of(dotted)


@register
class LayerDAG(Rule):
    rule_id = "LAY001"
    family = "LAY"
    summary = "module-scope imports must follow the documented layer DAG"
    contract = "docs/architecture.md 'Layering' (PR 1, extended every PR since)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        if not config.layer_deps:
            return
        for module, edge in project.internal_edges(module_scope_only=True):
            target_layer = _target_layer(project, edge.target)
            if target_layer == module.layer or target_layer == "obs":
                continue
            allowed = config.layer_deps.get(module.layer)
            if allowed is None:
                yield self.finding(
                    module,
                    edge.line,
                    f"layer '{module.layer}' is not in the documented layer DAG; "
                    f"add it to repro.analyze.contracts.LAYER_DEPS (and "
                    f"docs/architecture.md) before importing {edge.target!r}",
                )
                continue
            if target_layer not in allowed:
                label = "the top package" if target_layer == ROOT else f"layer '{target_layer}'"
                yield self.finding(
                    module,
                    edge.line,
                    f"layer '{module.layer}' must not import {label} at module "
                    f"scope (imports {edge.target!r}); allowed layers: "
                    f"{sorted(allowed) or 'none'}",
                )


@register
class StdlibOnly(Rule):
    rule_id = "LAY002"
    family = "LAY"
    summary = "stdlib-only layers import nothing but the standard library"
    contract = "docs/architecture.md 'The observability layer' (PR 7)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in project.modules:
            if module.layer not in config.stdlib_only_layers:
                continue
            for edge in module.imports:
                if edge.internal:
                    if _target_layer(project, edge.target) != module.layer:
                        yield self.finding(
                            module,
                            edge.line,
                            f"stdlib-only layer '{module.layer}' imports the "
                            f"internal module {edge.target!r}; the substrate "
                            f"must stay importable from every layer without "
                            f"cycles",
                        )
                    continue
                top = edge.target.split(".")[0]
                if top not in sys.stdlib_module_names:
                    yield self.finding(
                        module,
                        edge.line,
                        f"stdlib-only layer '{module.layer}' imports the "
                        f"third-party module {edge.target!r}",
                    )


@register
class ImportCycles(Rule):
    rule_id = "LAY003"
    family = "LAY"
    summary = "the module-scope import graph must be cycle-free"
    contract = "docs/architecture.md 'Layering' (PR 1)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        graph: dict[str, set[str]] = {m.name: set() for m in project.modules}
        first_line: dict[tuple[str, str], int] = {}
        for module, edge in project.internal_edges(module_scope_only=True):
            if edge.resolved is None or edge.resolved == module.name:
                continue
            graph[module.name].add(edge.resolved)
            first_line.setdefault((module.name, edge.resolved), edge.line)

        for component in _strongly_connected(graph):
            if len(component) < 2:
                continue
            members = sorted(component)
            anchor = project.by_name[members[0]]
            line = min(
                (
                    first_line[(members[0], succ)]
                    for succ in graph[members[0]]
                    if succ in component and (members[0], succ) in first_line
                ),
                default=1,
            )
            yield self.finding(
                anchor,
                line,
                "module-scope import cycle: " + " -> ".join(members + [members[0]]),
            )


def _strongly_connected(graph: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's algorithm, iterative (the scanned tree can be deep)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for start in graph:
        if start in index:
            continue
        work = [(start, iter(sorted(graph[start])))]
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


@register
class EnginesNeverImportOrchestration(Rule):
    rule_id = "LAY004"
    family = "LAY"
    summary = "engine layers never import harness/dse/scaleout/bench, even lazily"
    contract = "docs/architecture.md 'Layering' (PR 1; facade rules PR 4)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in project.modules:
            if module.layer not in config.engine_layers:
                continue
            for edge in module.imports:
                if not edge.internal:
                    continue
                target_layer = _target_layer(project, edge.target)
                if target_layer in config.orchestration_layers:
                    scope = "module scope" if edge.module_scope else "call time"
                    yield self.finding(
                        module,
                        edge.line,
                        f"engine layer '{module.layer}' imports orchestration "
                        f"layer '{target_layer}' at {scope} ({edge.target!r}); "
                        f"engines are driven by the harness/facade, never the "
                        f"reverse",
                    )
