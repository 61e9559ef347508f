"""VEC: the vectorization contract — stable order, full-width indices.

PR 6 vectorized the hot paths under a bit-exactness harness and wrote
the contract down in prose: vectorized rewrites must preserve tie order
(stable sorts), RNG draw sequences, and index dtypes.  These rules make
the sort/index half mechanical over determinism-scoped layers (the RNG
half is DET002's job — legacy ``np.random`` module calls and unseeded
generators are already flagged there).

* ``VEC001`` — ``np.sort``/``np.argsort`` without ``kind="stable"``:
  numpy's default introsort is *unstable*, so equal keys land in
  platform- and history-dependent order; any downstream consumer of tie
  order (degree rankings, cluster orderings) silently loses
  reproducibility.  (``sorted()``/``list.sort()`` are guaranteed stable
  and exempt; ``.sort()`` method calls on unknown receivers cannot be
  told apart from list sorts statically and are left to review.)
* ``VEC002`` — sort-then-reverse (``np.sort(x)[::-1]``): even a *stable*
  ascending sort reversed yields a descending order that inverts tie
  order.  Use a negated stable sort (``-np.sort(-x, kind="stable")``)
  instead.
* ``VEC003`` — dtype-narrowing ``.astype(...)`` on index arrays produced
  by ``argsort``/``nonzero``/``flatnonzero``/``searchsorted``: a cast to
  ``int32``/``uint16``/... truncates silently past the dtype's range, so
  the code works on Table I datasets and corrupts indices on larger
  graphs.
* ``VEC004`` — ``np.unique`` on its two slow paths: with ``axis=`` (rows
  sorted through a structured view), or with none of ``return_index``/
  ``return_inverse``/``return_counts`` (numpy >= 2.3 takes a hash-table
  path, 40-60x slower than sorting here).  Both have an exact sort-based
  replacement in ``repro.sparse.sorted_unique``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.contracts import CheckConfig
from repro.analyze.findings import Finding
from repro.analyze.project import ModuleInfo, Project
from repro.analyze.rules.base import Rule, register
from repro.analyze.rules.determinism import build_alias_map, canonical_call_name

#: Sorts whose default kind is unstable.  ``numpy.lexsort`` is always
#: stable and ``sorted``/``list.sort`` are guaranteed stable — exempt.
_UNSTABLE_SORTS = frozenset({"numpy.sort", "numpy.argsort"})

#: Sort kinds that guarantee stability ("mergesort" is an alias of
#: "stable" in numpy).
_STABLE_KINDS = frozenset({"stable", "mergesort"})

#: Calls whose result is an *index* array into another array.
_INDEX_PRODUCERS = frozenset(
    {"numpy.argsort", "numpy.nonzero", "numpy.flatnonzero", "numpy.searchsorted"}
)
_INDEX_PRODUCER_METHODS = frozenset({"argsort", "nonzero"})

#: Integer dtypes narrower than numpy's index dtype (intp == int64 on
#: every supported platform).
_NARROW_DTYPES = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
)


#: ``np.unique``'s positional parameters after the array: the three flags
#: that keep it on its sort path, then ``axis``.
_UNIQUE_FLAGS = ("return_index", "return_inverse", "return_counts")
_UNIQUE_AXIS_POSITION = 1 + len(_UNIQUE_FLAGS)


def _unique_slow_path(call: ast.Call) -> str | None:
    """Why an ``np.unique(...)`` call takes a slow path, or None."""
    if len(call.args) > _UNIQUE_AXIS_POSITION or any(
        keyword.arg == "axis" for keyword in call.keywords
    ):
        return "with axis= sorts rows through a structured view"
    flags = list(call.args[1:_UNIQUE_AXIS_POSITION])
    flags += [kw.value for kw in call.keywords if kw.arg in _UNIQUE_FLAGS]
    # A flag passed as a literal False leaves the call on the hash path.
    if all(isinstance(flag, ast.Constant) and not flag.value for flag in flags):
        return "without a return_* flag takes numpy's hash-table path (numpy >= 2.3)"
    return None


def _has_stable_kind(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value in _STABLE_KINDS
            )
    return False


def _is_reverse_slice(node: ast.expr) -> bool:
    """``[::-1]`` — empty bounds, step -1."""
    return (
        isinstance(node, ast.Slice)
        and node.lower is None
        and node.upper is None
        and isinstance(node.step, ast.UnaryOp)
        and isinstance(node.step.op, ast.USub)
        and isinstance(node.step.operand, ast.Constant)
        and node.step.operand.value == 1
    )


def _narrow_dtype_name(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """The narrow integer dtype an ``.astype(...)`` call casts to, if any."""
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value if arg.value in _NARROW_DTYPES else None
    name = canonical_call_name(arg, aliases)
    if name is not None and name.split(".")[-1] in _NARROW_DTYPES:
        return name.split(".")[-1]
    return None


def _is_index_producer(node: ast.expr, aliases: dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = canonical_call_name(node.func, aliases)
    if name in _INDEX_PRODUCERS:
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _INDEX_PRODUCER_METHODS
    )


class _VecRule(Rule):
    def scoped_modules(self, project: Project, config: CheckConfig):
        for module in project.modules:
            if module.layer in config.determinism_scope:
                yield module


@register
class SortsAreStable(_VecRule):
    rule_id = "VEC001"
    family = "VEC"
    summary = "np.sort/np.argsort in determinism scope must pass kind=\"stable\""
    contract = "docs/architecture.md vectorization contract (PR 6, PR 10)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in self.scoped_modules(project, config):
            aliases = build_alias_map(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = canonical_call_name(node.func, aliases)
                if name in _UNSTABLE_SORTS and not _has_stable_kind(node):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{name}() without kind=\"stable\" in layer "
                        f"'{module.layer}'; numpy's default sort is unstable, "
                        f"so equal keys land in platform-dependent order",
                    )


@register
class NoSortThenReverse(_VecRule):
    rule_id = "VEC002"
    family = "VEC"
    summary = "no np.sort(x)[::-1] — reversing inverts tie order"
    contract = "docs/architecture.md vectorization contract (PR 6, PR 10)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in self.scoped_modules(project, config):
            aliases = build_alias_map(module)
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Subscript)
                    and _is_reverse_slice(node.slice)
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                name = canonical_call_name(node.value.func, aliases)
                if name in _UNSTABLE_SORTS:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{name}(...)[::-1] in layer '{module.layer}': "
                        f"reversing an ascending sort inverts the order of "
                        f"equal keys; use a negated stable sort "
                        f"(-np.sort(-x, kind=\"stable\")) instead",
                    )


@register
class NoNarrowIndexCasts(_VecRule):
    rule_id = "VEC003"
    family = "VEC"
    summary = "no dtype-narrowing casts on index arrays"
    contract = "docs/architecture.md vectorization contract (PR 6, PR 10)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in self.scoped_modules(project, config):
            aliases = build_alias_map(module)
            index_names = self._index_locals(module, aliases)
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                ):
                    continue
                dtype = _narrow_dtype_name(node, aliases)
                if dtype is None:
                    continue
                receiver = node.func.value
                chained = _is_index_producer(receiver, aliases)
                via_local = (
                    isinstance(receiver, ast.Name) and receiver.id in index_names
                )
                if chained or via_local:
                    yield self.finding(
                        module,
                        node.lineno,
                        f".astype({dtype}) on an index array in layer "
                        f"'{module.layer}'; casts past the dtype's range "
                        f"truncate silently — keep indices at numpy's full "
                        f"index width",
                    )

    @staticmethod
    def _index_locals(module: ModuleInfo, aliases: dict[str, str]) -> set[str]:
        """Names assigned (anywhere in the module) from an index-producing
        call — one-level propagation for ``idx = np.argsort(...)``."""
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_index_producer(node.value, aliases)
            ):
                names.add(node.targets[0].id)
        return names


@register
class NoSlowUnique(_VecRule):
    rule_id = "VEC004"
    family = "VEC"
    summary = "np.unique only with a return_* flag and no axis= (else sorted_unique)"
    contract = "docs/architecture.md vectorization contract (sorted-unique helper)"

    def check(self, project: Project, config: CheckConfig) -> Iterator[Finding]:
        for module in self.scoped_modules(project, config):
            aliases = build_alias_map(module)
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and canonical_call_name(node.func, aliases) == "numpy.unique"
                ):
                    continue
                reason = _unique_slow_path(node)
                if reason is not None:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"numpy.unique() {reason} in layer '{module.layer}'; "
                        f"use repro.sparse.sorted_unique (sort plus "
                        f"adjacent-difference mask, exact for integer keys)",
                    )
