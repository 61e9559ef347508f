"""POOL: process-pool fan-out must ship picklable, module-level callables.

Every fan-out in this repo (suite experiments, DSE candidates, session
requests, scale-out chips, bench rungs) uses spawn-start
``ProcessPoolExecutor`` workers, which pickle the submitted callable by
qualified name.  A lambda, a nested function or a bound method submitted
to the pool imports fine, passes serial tests fine — and dies only on
the parallel path, usually in CI.

* ``POOL001`` — the callable handed to ``<pool>.submit(...)`` /
  ``<pool>.map(...)`` (where the receiver is traceably a
  ``ProcessPoolExecutor``) or to the shared ``fan_out(...)`` helper
  (:data:`~repro.analyze.contracts.FAN_OUT_HELPERS`) must be a
  module-level function: no lambdas, no functions defined inside another
  function, no ``self.method``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.contracts import FAN_OUT_HELPERS, CheckConfig
from repro.analyze.findings import Finding
from repro.analyze.project import ModuleInfo, Project
from repro.analyze.rules.base import Rule, register
from repro.analyze.rules.determinism import build_alias_map, canonical_call_name

_EXECUTOR_NAMES = (
    "ProcessPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "futures.ProcessPoolExecutor",
)


def _mentions_executor(node: ast.AST) -> bool:
    """True when the expression/annotation textually names the executor
    (covers ``ProcessPoolExecutor(...)``, ``ProcessPoolExecutor | None``
    annotations, and conditional constructions)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == "ProcessPoolExecutor":
            return True
        if isinstance(child, ast.Attribute) and child.attr == "ProcessPoolExecutor":
            return True
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            if "ProcessPoolExecutor" in child.value:  # string annotations
                return True
    return False


def _pool_names(module: ModuleInfo) -> set[str]:
    """Names that are (sometimes) bound to a ProcessPoolExecutor:
    assignments, ``with ... as``, and annotated function parameters."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign) and _mentions_executor(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if (node.value is not None and _mentions_executor(node.value)) or (
                _mentions_executor(node.annotation)
            ):
                names.add(node.target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is None:
                    continue
                if _mentions_executor(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None and _mentions_executor(arg.annotation):
                    names.add(arg.arg)
    return names


def _nested_function_names(module: ModuleInfo) -> set[str]:
    """Names of functions defined inside another function (unpicklable by
    qualified name under spawn)."""
    nested: set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.Lambda):
                visit(child, True)
            else:
                visit(child, inside_function)

    visit(module.tree, False)
    return nested


def submission_sites(module: ModuleInfo) -> Iterator[tuple[ast.Call, str]]:
    """Every call in ``module`` that ships ``call.args[0]`` to pool workers,
    with how it ships it: ``pool.submit``/``pool.map`` on a traceable
    ``ProcessPoolExecutor``, or ``fan_out`` for the shared helper."""
    pools = _pool_names(module)
    aliases = build_alias_map(module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("submit", "map")
            and isinstance(func.value, ast.Name)
            and func.value.id in pools
        ):
            yield node, f"pool.{func.attr}"
        elif canonical_call_name(func, aliases) in FAN_OUT_HELPERS:
            yield node, "fan_out"


@register
class PoolWorkersAreModuleLevel(Rule):
    rule_id = "POOL001"
    family = "POOL"
    summary = "process-pool callables must be module-level functions"
    contract = "docs/architecture.md suite/session fan-out (PR 1, PR 4)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in project.modules:
            sites = list(submission_sites(module))
            if not sites:
                continue
            nested = _nested_function_names(module)
            aliases = build_alias_map(module)
            for node, verb in sites:
                yield from self._check_callable(
                    module, node.args[0], nested, aliases, verb
                )

    def _check_callable(
        self, module, expr: ast.expr, nested: set[str], aliases, verb: str
    ) -> Iterator[Finding]:
        # functools.partial(f, ...) ships f by name too — recurse into it.
        if isinstance(expr, ast.Call):
            name = canonical_call_name(expr.func, aliases)
            if name in ("functools.partial", "partial") and expr.args:
                yield from self._check_callable(
                    module, expr.args[0], nested, aliases, verb
                )
                return
            yield self.finding(
                module,
                expr.lineno,
                f"{verb}() receives the *result* of a call (or an "
                f"unrecognised callable factory); submit a module-level "
                f"function instead",
            )
            return
        if isinstance(expr, ast.Lambda):
            yield self.finding(
                module,
                expr.lineno,
                f"lambda passed to {verb}(); spawn-start workers pickle "
                f"callables by qualified name — use a module-level function",
            )
        elif isinstance(expr, ast.Name) and expr.id in nested:
            yield self.finding(
                module,
                expr.lineno,
                f"nested function '{expr.id}' passed to {verb}(); it is "
                f"not picklable under spawn — hoist it to module level",
            )
        elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self":
                yield self.finding(
                    module,
                    expr.lineno,
                    f"bound method self.{expr.attr} passed to {verb}(); "
                    f"spawn-start pickling would ship the whole instance — "
                    f"use a module-level function taking plain data",
                )
