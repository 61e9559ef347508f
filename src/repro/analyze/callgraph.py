"""The call graph: who can call whom, across the whole scanned tree.

PR 9's rules were per-module and syntactic; the CONC/KEY003 families need
to answer a *whole-program* question — "what code can run inside a pool
worker?", "which request fields does a backend's code read?" — so this
module builds an AST-level call graph over the one-parse
:class:`~repro.analyze.project.Project` model and exposes a cycle-safe
reachability closure from any entry point.

Resolution is deliberately static and conservative-but-honest:

* ``Name`` calls resolve through the module's own ``def``s, its import
  aliases, and re-export chains (``from repro.api import get_session``
  lands on ``repro.api.session.get_session`` by following the package
  ``__init__``'s import).
* ``Attribute`` calls resolve via a small flow-insensitive type
  environment: ``self``/``cls``, annotated parameters, locals assigned
  from constructors or from calls whose return annotation names a scanned
  class, and instance attributes assigned in ``__init__``.  A method call
  on a class dispatches to the method in the class, its ancestors *and*
  its overrides in scanned subclasses (virtual dispatch is resolved to
  every candidate).
* A call through a :class:`typing.Protocol` annotation dispatches to
  every scanned class that structurally conforms (defines the protocol's
  methods and class attributes) — how ``get_backend(...).run(...)``
  reaches the registered backends.
* ``functools.partial(f, ...)`` follows ``f``; a bare ``Name`` reference
  to a known function inside a body counts as an edge too (callbacks,
  ``pool.submit(f, ...)``, ``sorted(key=f)``).

What it will **not** see (documented in docs/architecture.md): calls
through registry lookups returning unannotated callables
(``get_experiment(name)(config)``), callables stored in data structures,
``getattr``, monkey-patching, and reflection.  Reachability is therefore
an *under*-approximation for dynamic dispatch and an over-approximation
for virtual dispatch — the right trade-off for advisory static rules.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analyze.project import ModuleInfo, Project
from repro.analyze.rules.determinism import build_alias_map, canonical_call_name

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class FunctionInfo:
    """One module-level function or method of the scanned tree."""

    qualname: str  # "repro.api.session.get_session", "repro.api.backends.GrowBackend.run"
    module: ModuleInfo
    node: FunctionNode
    class_name: str | None = None  # enclosing class's simple name, if a method

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One module-level class of the scanned tree."""

    qualname: str
    module: ModuleInfo
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> function qualname
    base_names: list[str] = field(default_factory=list)  # unresolved dotted names
    bases: list[str] = field(default_factory=list)  # resolved class qualnames
    is_protocol: bool = False
    class_attrs: set[str] = field(default_factory=set)  # class-level assigned/annotated
    attr_types: dict[str, set[str]] = field(default_factory=dict)  # self.x -> classes


def _iter_top_level(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, descending into ``if``/``try`` blocks (a
    guarded ``def`` still binds a module-level name)."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _iter_top_level(node.body)
            yield from _iter_top_level(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _iter_top_level(block)
            for handler in node.handlers:
                yield from _iter_top_level(handler.body)


def module_level_names(module: ModuleInfo) -> set[str]:
    """Names bound at module scope by assignment or annotation (the state
    CONC001 protects), excluding ``def``/``class``/import bindings."""
    names: set[str] = set()
    for node in _iter_top_level(module.tree.body):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


class CallGraph:
    """Functions, classes and call edges of one scanned project."""

    def __init__(self, project: Project):
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: dict[str, set[str]] = {}
        self._module_env: dict[str, dict[str, str]] = {}  # module -> name -> qualname
        self._aliases: dict[str, dict[str, str]] = {}  # module -> alias map
        self._descendants: dict[str, set[str]] = {}
        self._protocol_impls: dict[str, set[str]] = {}
        self._index()
        self._resolve_bases()
        self._infer_attr_types()
        self._build_edges()

    # -- pass 1: index every function and class ---------------------------

    def _index(self) -> None:
        for module in self.project.modules:
            env: dict[str, str] = {}
            self._aliases[module.name] = build_alias_map(module)
            for node in _iter_top_level(module.tree.body):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module.name}.{node.name}"
                    self.functions[qual] = FunctionInfo(qual, module, node)
                    env[node.name] = qual
                elif isinstance(node, ast.ClassDef):
                    cls_qual = f"{module.name}.{node.name}"
                    info = ClassInfo(cls_qual, module, node)
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            meth_qual = f"{cls_qual}.{item.name}"
                            self.functions[meth_qual] = FunctionInfo(
                                meth_qual, module, item, class_name=node.name
                            )
                            info.methods[item.name] = meth_qual
                        elif isinstance(item, ast.AnnAssign) and isinstance(
                            item.target, ast.Name
                        ):
                            info.class_attrs.add(item.target.id)
                        elif isinstance(item, ast.Assign):
                            for target in item.targets:
                                if isinstance(target, ast.Name):
                                    info.class_attrs.add(target.id)
                    info.base_names = [
                        name
                        for base in node.bases
                        if (name := canonical_call_name(base, self._aliases[module.name]))
                    ]
                    info.is_protocol = any(
                        name.split(".")[-1] == "Protocol" for name in info.base_names
                    )
                    self.classes[cls_qual] = info
                    env[node.name] = cls_qual
            self._module_env[module.name] = env

    # -- pass 2: class hierarchy and protocol conformance ------------------

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for name in info.base_names:
                resolved = self._resolve_dotted(name, info.module)
                for qual in resolved:
                    if qual in self.classes:
                        info.bases.append(qual)
                        self._descendants.setdefault(qual, set()).add(info.qualname)
        # Transitive descendants (diamonds and deep chains are tiny here).
        changed = True
        while changed:
            changed = False
            for parent, kids in self._descendants.items():
                for kid in list(kids):
                    for grandkid in self._descendants.get(kid, ()):
                        if grandkid not in kids:
                            kids.add(grandkid)
                            changed = True
        for proto_qual, proto in self.classes.items():
            if not proto.is_protocol:
                continue
            required_methods = {
                name for name in proto.methods if not name.startswith("__")
            }
            required_attrs = {
                name for name in proto.class_attrs if not name.startswith("_")
            }
            impls: set[str] = set()
            for cls_qual, cls in self.classes.items():
                if cls.is_protocol or cls_qual == proto_qual:
                    continue
                methods = self._all_method_names(cls_qual)
                attrs = self._all_class_attrs(cls_qual)
                if required_methods <= methods and required_attrs <= attrs:
                    impls.add(cls_qual)
            self._protocol_impls[proto_qual] = impls

    def _ancestors(self, cls_qual: str) -> set[str]:
        seen: set[str] = set()
        frontier = [cls_qual]
        while frontier:
            current = self.classes.get(frontier.pop())
            if current is None:
                continue
            for base in current.bases:
                if base not in seen:
                    seen.add(base)
                    frontier.append(base)
        return seen

    def _all_method_names(self, cls_qual: str) -> set[str]:
        names: set[str] = set()
        for qual in {cls_qual, *self._ancestors(cls_qual)}:
            info = self.classes.get(qual)
            if info is not None:
                names |= set(info.methods)
        return names

    def _all_class_attrs(self, cls_qual: str) -> set[str]:
        attrs: set[str] = set()
        for qual in {cls_qual, *self._ancestors(cls_qual)}:
            info = self.classes.get(qual)
            if info is not None:
                attrs |= info.class_attrs
                attrs |= set(info.attr_types)
        return attrs

    # -- pass 3: instance attribute types from __init__ --------------------

    def _infer_attr_types(self) -> None:
        for info in self.classes.values():
            for item in info.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    classes = self._annotation_classes(item.annotation, info.module)
                    if classes:
                        info.attr_types.setdefault(item.target.id, set()).update(classes)
            init_qual = info.methods.get("__init__")
            if init_qual is None:
                continue
            init = self.functions[init_qual]
            for node in ast.walk(init.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                classes = self._call_result_classes(node.value, init, {})
                if classes:
                    info.attr_types.setdefault(node.targets[0].attr, set()).update(classes)

    # -- name resolution ---------------------------------------------------

    def _resolve_dotted(
        self, dotted: str, module: ModuleInfo, _depth: int = 0
    ) -> set[str]:
        """Resolve a canonical dotted name to function/class qualnames,
        chasing re-exports through package ``__init__`` modules."""
        if _depth > 8 or not dotted:
            return set()
        if dotted in self.functions or dotted in self.classes:
            return {dotted}
        parts = dotted.split(".")
        # A name defined in the module itself ("Backend" inside
        # repro.api.backends, a base class next door) resolves through the
        # module's own environment first.
        local = self._module_env.get(module.name, {}).get(parts[0])
        if local is not None:
            resolved = ".".join([local, *parts[1:]])
            if resolved in self.functions or resolved in self.classes:
                return {resolved}
            return self._resolve_dotted(resolved, module, _depth + 1)
        # Longest scanned-module prefix, then walk the remainder through
        # that module's environment (defs, classes, aliased re-exports).
        for end in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:end])
            target = self.project.by_name.get(prefix)
            if target is None:
                continue
            remainder = parts[end:]
            env = self._module_env.get(prefix, {})
            head = remainder[0]
            if head in env:
                resolved = ".".join([env[head], *remainder[1:]])
                if resolved in self.functions or resolved in self.classes:
                    return {resolved}
                return self._resolve_dotted(resolved, target, _depth + 1)
            alias = self._aliases.get(prefix, {}).get(head)
            if alias is not None:
                resolved = ".".join([alias, *remainder[1:]])
                return self._resolve_dotted(resolved, target, _depth + 1)
            return set()
        return set()

    def _annotation_classes(self, ann: ast.expr | None, module: ModuleInfo) -> set[str]:
        """Scanned-class qualnames named by an annotation (handles string
        annotations, ``X | None`` unions and ``Optional``/``Union``)."""
        if ann is None:
            return set()
        if isinstance(ann, ast.Constant):
            if not isinstance(ann.value, str):
                return set()
            try:
                parsed = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return set()
            return self._annotation_classes(parsed, module)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._annotation_classes(ann.left, module) | self._annotation_classes(
                ann.right, module
            )
        if isinstance(ann, ast.Subscript):
            head = canonical_call_name(ann.value, self._aliases[module.name]) or ""
            if head.split(".")[-1] in ("Optional", "Union"):
                inner = ann.slice
                elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                classes: set[str] = set()
                for element in elements:
                    classes |= self._annotation_classes(element, module)
                return classes
            return set()
        name = canonical_call_name(ann, self._aliases[module.name])
        if name is None:
            return set()
        resolved = self._resolve_dotted(name, module)
        return {qual for qual in resolved if qual in self.classes}

    def method_candidates(self, cls_qual: str, method: str) -> set[str]:
        """Every scanned implementation a ``<instance of cls>.method(...)``
        call can dispatch to: the class's own, inherited, and overriding
        definitions; for protocols, every structural implementation."""
        candidates: set[str] = set()
        info = self.classes.get(cls_qual)
        if info is None:
            return candidates
        pool = {cls_qual, *self._ancestors(cls_qual), *self._descendants.get(cls_qual, ())}
        if info.is_protocol:
            for impl in self._protocol_impls.get(cls_qual, ()):
                pool |= {impl, *self._ancestors(impl), *self._descendants.get(impl, ())}
        for qual in pool:
            target = self.classes.get(qual)
            if target is not None and method in target.methods:
                candidates.add(target.methods[method])
        return candidates

    def _constructor_targets(self, cls_qual: str) -> set[str]:
        """Calling a class runs ``__init__`` and (dataclasses) ``__post_init__``."""
        targets: set[str] = set()
        for method in ("__init__", "__post_init__"):
            for qual in {cls_qual, *self._ancestors(cls_qual)}:
                info = self.classes.get(qual)
                if info is not None and method in info.methods:
                    targets.add(info.methods[method])
                    break
        return targets

    def _return_classes(self, func_qual: str) -> set[str]:
        info = self.functions.get(func_qual)
        if info is None:
            return set()
        return self._annotation_classes(info.node.returns, info.module)

    def _call_result_classes(
        self, call: ast.Call, context: FunctionInfo, var_types: dict[str, set[str]]
    ) -> set[str]:
        """Classes an expression ``<call>(...)`` evaluates to: the class
        itself for constructors, return-annotation classes for functions."""
        classes: set[str] = set()
        for target in self._resolve_call_target(call.func, context, var_types):
            if target in self.classes:
                classes.add(target)
            elif target in self.functions:
                classes |= self._return_classes(target)
        return classes

    # -- pass 4: edges -----------------------------------------------------

    def _local_var_types(self, info: FunctionInfo) -> dict[str, set[str]]:
        """Flow-insensitive local name -> scanned-class types: annotated
        parameters, ``self``/``cls``, and locals assigned from constructors
        or class-returning calls (one textual pass, in order)."""
        var_types: dict[str, set[str]] = {}
        node = info.node
        if info.class_name is not None:
            cls_qual = f"{info.module.name}.{info.class_name}"
            arg_list = node.args.posonlyargs + node.args.args
            if arg_list and arg_list[0].arg in ("self", "cls"):
                var_types[arg_list[0].arg] = {cls_qual}
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]:
            classes = self._annotation_classes(arg.annotation, info.module)
            if classes:
                var_types.setdefault(arg.arg, set()).update(classes)
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                classes = self._call_result_classes(stmt.value, info, var_types)
                if classes:
                    var_types.setdefault(stmt.targets[0].id, set()).update(classes)
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                classes = self._annotation_classes(stmt.annotation, info.module)
                if classes:
                    var_types.setdefault(stmt.target.id, set()).update(classes)
        return var_types

    def _resolve_call_target(
        self,
        func: ast.expr,
        context: FunctionInfo,
        var_types: dict[str, set[str]],
    ) -> set[str]:
        """Function/class qualnames a callable expression can denote."""
        module = context.module
        aliases = self._aliases[module.name]
        env = self._module_env[module.name]
        if isinstance(func, ast.Name):
            if func.id in var_types:
                # A variable holding instances — calling it is __call__;
                # not modelled.
                return set()
            if func.id in env:
                return {env[func.id]}
            alias = aliases.get(func.id)
            if alias is not None:
                return self._resolve_dotted(alias, module)
            return set()
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # instance.method(...) via the local type environment
            if isinstance(receiver, ast.Name) and receiver.id in var_types:
                candidates: set[str] = set()
                for cls_qual in var_types[receiver.id]:
                    candidates |= self.method_candidates(cls_qual, func.attr)
                return candidates
            # ClassName.method(...) (classmethod/staticmethod style)
            if isinstance(receiver, ast.Name) and env.get(receiver.id) in self.classes:
                return self.method_candidates(env[receiver.id], func.attr)
            # self.attr.method(...) via inferred instance-attribute types
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id in ("self", "cls")
                and context.class_name is not None
            ):
                cls_info = self.classes.get(
                    f"{context.module.name}.{context.class_name}"
                )
                if cls_info is not None and receiver.attr in cls_info.attr_types:
                    candidates = set()
                    for cls_qual in cls_info.attr_types[receiver.attr]:
                        candidates |= self.method_candidates(cls_qual, func.attr)
                    return candidates
            # chained call: f(...).method(...)
            if isinstance(receiver, ast.Call):
                candidates = set()
                for cls_qual in self._call_result_classes(receiver, context, var_types):
                    candidates |= self.method_candidates(cls_qual, func.attr)
                return candidates
            # module alias / dotted path: registry.get_spec(...)
            dotted = canonical_call_name(func, aliases)
            if dotted is not None:
                return self._resolve_dotted(dotted, module)
        return set()

    def resolve_callable(
        self, module: ModuleInfo, expr: ast.expr
    ) -> set[str]:
        """Qualnames a callable *reference* (not call) denotes in module
        scope — what ``pool.submit(f, ...)`` and ``partial(f, ...)`` ship."""
        aliases = self._aliases.get(module.name, {})
        env = self._module_env.get(module.name, {})
        if isinstance(expr, ast.Call):
            name = canonical_call_name(expr.func, aliases)
            if name in ("functools.partial", "partial") and expr.args:
                return self.resolve_callable(module, expr.args[0])
            return set()
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return {env[expr.id]}
            alias = aliases.get(expr.id)
            if alias is not None:
                return self._resolve_dotted(alias, module)
            return set()
        if isinstance(expr, ast.Attribute):
            dotted = canonical_call_name(expr, aliases)
            if dotted is not None:
                return self._resolve_dotted(dotted, module)
        return set()

    def _build_edges(self) -> None:
        for qual, info in self.functions.items():
            targets: set[str] = set()
            var_types = self._local_var_types(info)
            env = self._module_env[info.module.name]
            aliases = self._aliases[info.module.name]
            for stmt in info.node.body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        resolved = self._resolve_call_target(
                            node.func, info, var_types
                        )
                        for target in resolved:
                            if target in self.classes:
                                targets |= self._constructor_targets(target)
                            else:
                                targets.add(target)
                        # functools.partial(f, ...) ships f.
                        name = canonical_call_name(node.func, aliases)
                        if name in ("functools.partial", "partial") and node.args:
                            targets |= self.resolve_callable(
                                info.module, node.args[0]
                            )
                    elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Load
                    ):
                        # Bare reference to a known function: a callback,
                        # a pool submission, a sorted(key=...).
                        referenced = env.get(node.id) or aliases.get(node.id)
                        if referenced is not None:
                            for target in self._resolve_dotted(
                                referenced, info.module
                            ):
                                if target in self.functions:
                                    targets.add(target)
            targets.discard(qual)
            self.edges[qual] = targets

    # -- reachability ------------------------------------------------------

    def reachable(self, entries: Iterable[str]) -> set[str]:
        """Every function qualname transitively callable from ``entries``
        (the entries themselves included, when scanned); cycle-safe."""
        seen: set[str] = set()
        frontier = [entry for entry in entries if entry in self.functions]
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for target in self.edges.get(current, ()):
                if target not in seen and target in self.functions:
                    seen.add(target)
                    frontier.append(target)
        return seen


def short_name(info: FunctionInfo) -> str:
    """A function's name relative to its module (``Cls.meth`` or ``f``)."""
    prefix = info.module.name + "."
    qual = info.qualname
    return qual[len(prefix):] if qual.startswith(prefix) else qual


#: One graph per loaded project: the CONC and KEY003 families all consume
#: the same graph, so a check run builds it once.  Weak keys keep test
#: fixtures from pinning each other's projects alive.
_GRAPHS: "weakref.WeakKeyDictionary[Project, CallGraph]" = weakref.WeakKeyDictionary()


def graph_for(project: Project) -> CallGraph:
    """The (memoised) call graph of ``project``."""
    graph = _GRAPHS.get(project)
    if graph is None:
        graph = CallGraph(project)
        _GRAPHS[project] = graph
    return graph


def pool_entry_points(project: Project, graph: CallGraph) -> dict[str, tuple]:
    """Worker entry points: every callable handed to a traceable
    ``ProcessPoolExecutor``'s ``submit``/``map`` or to the shared
    ``fan_out`` helper (the sites POOL001 polices), resolved to function
    qualnames.  Returns ``{qualname: (module, line)}`` for the first
    submission site of each."""
    from repro.analyze.rules.pools import submission_sites

    entries: dict[str, tuple] = {}
    for module in project.modules:
        for node, _ in submission_sites(module):
            for qual in graph.resolve_callable(module, node.args[0]):
                if qual in graph.functions:
                    entries.setdefault(qual, (module, node.lineno))
    return entries
