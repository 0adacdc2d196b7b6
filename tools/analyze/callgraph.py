"""Project-wide call graph shared by the interprocedural rules.

This is the call-resolution machinery RA002 grew for the lock-order
graph, factored out so every rule reasons over **one** model of the
project:

* every top-level function and method gets a :class:`FunctionInfo`
  summary: the locks it acquires, lexically nested acquisitions, and
  every call site annotated with the locks held at that point;
* call sites carry a :class:`CallDesc` descriptor that
  :meth:`CallGraph.resolve` maps to candidate function keys with the
  same deliberately-conservative heuristics RA002 shipped with
  (exact self-method, same-module function, class ``__init__``,
  unique-ish method names project-wide);
* constructor-passed locks are aliased with a union-find
  (``Counter(name, key, self._lock)`` makes ``Counter._lock`` *be* the
  registry lock), as are locks passed to a lock-named parameter the
  callee enters (``answer_query(..., probe_lock=self._probe_lock)``
  makes ``CrowdRTSE.answer_query.probe_lock`` *be* the service lock), and :meth:`CallGraph.fixpoint` generalizes RA002's
  may-acquire propagation to any caller-absorbs-callee property
  (may-block for RA012, blocking-path reachability for RA008, ...).

The graph is built once per :class:`~tools.analyze.core.Project` and
cached, so a 12-rule run parses and summarizes each function exactly
once.
"""

from __future__ import annotations

import ast
import dataclasses
import weakref
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from tools.analyze.core import Module, Project, self_attr_path
from tools.analyze.locks import (
    CONTAINER_MUTATORS,
    ClassLockInfo,
    collect_class_locks,
    collect_module_locks,
    lock_name_options,
    module_lock_in_with,
    param_lock_in_with,
    with_item_lock_attrs,
)

#: Method names too generic to resolve (dict/list/str traffic would wire
#: unrelated classes together).
UNRESOLVABLE_METHODS = CONTAINER_MUTATORS | {
    "get",
    "items",
    "keys",
    "values",
    "copy",
    "format",
    "join",
    "split",
    "strip",
    "encode",
    "decode",
    "notify",
    "notify_all",
    "wait",
    "acquire",
    "release",
    # threading.Thread lifecycle: a `.start()`/`.join()` receiver is a
    # Thread, and the target runs on a fresh stack holding no locks.
    "start",
    "join",
    "run",
    "is_alive",
    # numpy surface: `np.array(...)` must not resolve to a project
    # method that happens to be called `array` (SnapshotFile.array).
    "array",
    "asarray",
    "astype",
    "reshape",
}

# Call descriptors: ("self", class_key, name) | ("name", module_relpath, name)
# | ("meth", name) | ("ctor", class_name)
CallDesc = Tuple[str, ...]


class UnionFind:
    """Path-compressed union-find with a deterministic canonical rep."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self.parent.setdefault(item, item)

    def find(self, item: str) -> str:
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic canonical representative: lexicographic min.
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


@dataclasses.dataclass
class CallSite:
    """One call expression inside a function body.

    ``desc`` is None for calls the resolver deliberately refuses to
    follow (container/str traffic, Thread lifecycle); the raw ``node``
    stays available so rules can still pattern-match the callee.
    """

    node: ast.Call
    desc: Optional[CallDesc]
    line: int
    held: FrozenSet[str]


@dataclasses.dataclass
class FunctionInfo:
    """Summary of one function/method."""

    key: str
    node: ast.AST
    module: Module
    class_info: Optional[ClassLockInfo]
    #: class key (``relpath::Class``) when this is a method, else None
    owner_class: Optional[str] = None
    #: lock node ids this body acquires lexically
    acquires: Set[str] = dataclasses.field(default_factory=set)
    #: (held-before, acquired, line) — lexically nested acquisitions
    nested: List[Tuple[FrozenSet[str], str, int]] = dataclasses.field(
        default_factory=list
    )
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    #: lock-named parameter -> lock node id, for parameters the body enters
    param_locks: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def name(self) -> str:
        return getattr(self.node, "name", "<lambda>")

    @property
    def qualname(self) -> str:
        """``Class.method`` or bare function name."""
        return self.key.split("::", 1)[-1]

    @property
    def is_method(self) -> bool:
        return self.owner_class is not None

    def arg_names(self) -> List[str]:
        """Positional parameter names, ``self`` dropped for methods."""
        args = getattr(self.node, "args", None)
        if args is None:
            return []
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    def kwonly_names(self) -> List[str]:
        args = getattr(self.node, "args", None)
        if args is None:
            return []
        return [a.arg for a in args.kwonlyargs]

    def all_param_names(self) -> List[str]:
        return self.arg_names() + self.kwonly_names()


@dataclasses.dataclass
class CallGraph:
    """The shared interprocedural model of a project."""

    project: Project
    functions: Dict[str, FunctionInfo]
    #: raw lock node id -> kind ("lock" | "rlock" | "condition" | "external")
    kinds: Dict[str, str]
    aliases: UnionFind
    #: class name -> list of class keys (module.relpath::Class)
    classes_by_name: Dict[str, List[str]]
    #: method name -> list of function keys
    methods_by_name: Dict[str, List[str]]
    #: function basename -> list of top-level function keys
    functions_by_name: Dict[str, List[str]]
    #: class key -> lock info (only classes that declare lock attrs)
    class_infos: Dict[str, ClassLockInfo]
    #: module relpath -> module-level lock name -> kind
    module_locks: Dict[str, Dict[str, str]]
    #: id(ast function node) -> function key, for rules walking modules
    key_of_node: Dict[int, str]

    def resolve(self, desc: Optional[CallDesc]) -> List[str]:
        """Function keys a call descriptor may refer to."""
        if desc is None:
            return []
        kind = desc[0]
        if kind == "self":
            _, class_key, name = desc
            key = f"{class_key}.{name}"
            if key in self.functions:
                return [key]
            return self.resolve(("meth", name))
        if kind == "name":
            _, relpath, name = desc
            key = f"{relpath}::{name}"
            if key in self.functions:
                return [key]
            if name in self.classes_by_name:
                return [
                    f"{class_key}.__init__"
                    for class_key in self.classes_by_name[name]
                    if f"{class_key}.__init__" in self.functions
                ]
            candidates = self.functions_by_name.get(name, [])
            if len(candidates) == 1:
                return candidates
            return []
        if kind == "meth":
            (_, name) = desc
            candidates = self.methods_by_name.get(name, [])
            if 1 <= len(candidates) <= 3:
                return candidates
            return []
        return []

    def fixpoint(
        self,
        init: Dict[str, Set[str]],
        *,
        max_iterations: int = 30,
        extra: Optional[Callable[[FunctionInfo, CallSite, Set[str]], Iterable[str]]] = None,
    ) -> Dict[str, Set[str]]:
        """Propagate a caller-absorbs-callee set property to a fixpoint.

        ``init`` seeds per-function sets (missing keys start empty); each
        iteration unions every resolved callee's set into its caller's.
        ``extra`` may contribute additional items per call site given the
        callee union so far (e.g. tagging the call that introduced a
        property).  Generalizes RA002's may-acquire propagation.
        """
        acc: Dict[str, Set[str]] = {key: set(init.get(key, ())) for key in self.functions}
        resolved: Dict[str, List[Tuple[CallSite, List[str]]]] = {
            key: [(site, self.resolve(site.desc)) for site in func.calls]
            for key, func in self.functions.items()
        }
        for _ in range(max_iterations):
            changed = False
            for key, func in self.functions.items():
                out = acc[key]
                before = len(out)
                for site, callees in resolved[key]:
                    callee_union: Set[str] = set()
                    for callee in callees:
                        callee_union |= acc.get(callee, set())
                    out |= callee_union
                    if extra is not None:
                        out |= set(extra(func, site, callee_union))
                if len(out) != before:
                    changed = True
            if not changed:
                break
        return acc


def lock_node(module: Module, owner: Optional[str], attr: str) -> str:
    """Stable node id for a lock: ``relpath::attr`` or ``relpath::Class.attr``."""
    if owner is None:
        return f"{module.relpath}::{attr}"
    return f"{module.relpath}::{owner}.{attr}"


_CACHE: "weakref.WeakKeyDictionary[Project, CallGraph]" = weakref.WeakKeyDictionary()


def build_callgraph(project: Project) -> CallGraph:
    """Build (or fetch the cached) call graph for a project."""
    cached = _CACHE.get(project)
    if cached is not None:
        return cached

    functions: Dict[str, FunctionInfo] = {}
    kinds: Dict[str, str] = {}
    aliases = UnionFind()
    classes_by_name: Dict[str, List[str]] = {}
    methods_by_name: Dict[str, List[str]] = {}
    functions_by_name: Dict[str, List[str]] = {}
    class_infos: Dict[str, ClassLockInfo] = {}
    module_locks: Dict[str, Dict[str, str]] = {}
    key_of_node: Dict[int, str] = {}

    for module in project.modules:
        module_locks[module.relpath] = collect_module_locks(module)
        for name, kind in module_locks[module.relpath].items():
            kinds[lock_node(module, None, name)] = kind
        for info in collect_class_locks(module):
            class_key = f"{module.relpath}::{info.node.name}"
            class_infos[class_key] = info
            for attr, kind in info.attrs.items():
                canonical = info.canonical_attr(attr)
                node = lock_node(module, info.node.name, canonical)
                if attr == canonical:
                    kinds.setdefault(node, "lock" if kind == "external" else kind)

    # Index classes/methods/functions and build per-function summaries.
    for module in project.modules:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                class_key = f"{module.relpath}::{stmt.name}"
                classes_by_name.setdefault(stmt.name, []).append(class_key)
                info = class_infos.get(class_key)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = f"{class_key}.{item.name}"
                        func = FunctionInfo(key, item, module, info, owner_class=class_key)
                        functions[key] = func
                        key_of_node[id(item)] = key
                        methods_by_name.setdefault(item.name, []).append(key)
                        _summarize(func, module_locks[module.relpath])
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module.relpath}::{stmt.name}"
                func = FunctionInfo(key, stmt, module, None)
                functions[key] = func
                key_of_node[id(stmt)] = key
                functions_by_name.setdefault(stmt.name, []).append(key)
                _summarize(func, module_locks[module.relpath])

    for func in functions.values():
        for node in func.param_locks.values():
            kinds.setdefault(node, "lock")
    _alias_constructor_locks(project, class_infos, module_locks, aliases)
    graph = CallGraph(
        project=project,
        functions=functions,
        kinds=kinds,
        aliases=aliases,
        classes_by_name=classes_by_name,
        methods_by_name=methods_by_name,
        functions_by_name=functions_by_name,
        class_infos=class_infos,
        module_locks=module_locks,
        key_of_node=key_of_node,
    )
    _alias_parameter_locks(graph)
    _CACHE[project] = graph
    return graph


def _summarize(func: FunctionInfo, mod_locks: Dict[str, str]) -> None:
    """Fill acquires/nested/calls by walking the function body once."""
    module = func.module
    info = func.class_info
    params = set(func.all_param_names())

    def lock_targets(item: ast.withitem) -> Set[str]:
        nodes: Set[str] = set()
        if info is not None:
            for attr in with_item_lock_attrs(item, info):
                nodes.add(lock_node(module, info.node.name, attr))
        name = module_lock_in_with(item, mod_locks)
        if name is not None:
            nodes.add(lock_node(module, None, name))
        param = param_lock_in_with(item, params)
        if param is not None:
            func.param_locks[param] = f"{func.key}.{param}"
            nodes.add(func.param_locks[param])
        return nodes

    def visit(node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                acquired |= lock_targets(item)
                visit(item.context_expr, held)
            for lock in sorted(acquired):
                func.acquires.add(lock)
                if held:
                    func.nested.append((frozenset(held), lock, node.lineno))
            inner = held + tuple(lock for lock in sorted(acquired) if lock not in held)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            desc = call_desc(node, func)
            func.calls.append(
                CallSite(node=node, desc=desc, line=node.lineno, held=frozenset(held))
            )
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    body = getattr(func.node, "body", [])
    for stmt in body:
        visit(stmt, ())


def call_desc(node: ast.Call, func: FunctionInfo) -> Optional[CallDesc]:
    """Descriptor for a call expression, or None when unresolvable."""
    callee = node.func
    if isinstance(callee, ast.Name):
        return ("name", func.module.relpath, callee.id)
    if isinstance(callee, ast.Attribute):
        attr_path = self_attr_path(callee)
        if attr_path is not None and "." not in attr_path and func.class_info:
            return ("self", f"{func.module.relpath}::{func.class_info.node.name}", attr_path)
        if callee.attr in UNRESOLVABLE_METHODS:
            return None
        return ("meth", callee.attr)
    return None


def _alias_constructor_locks(
    project: Project,
    class_infos: Dict[str, ClassLockInfo],
    module_locks: Dict[str, Dict[str, str]],
    aliases: UnionFind,
) -> None:
    """Union parameter-assigned lock attrs with the locks callers pass."""
    # Map class name -> (class_key, info) for classes with external locks.
    interesting: Dict[str, Tuple[str, ClassLockInfo]] = {}
    for class_key, info in class_infos.items():
        if info.attr_from_param:
            interesting[info.node.name] = (class_key, info)
    if not interesting:
        return

    for module in project.modules:
        enclosing: List[Optional[ClassLockInfo]] = [None]

        def visit(node: ast.AST) -> None:
            is_class = isinstance(node, ast.ClassDef)
            if is_class:
                key = f"{module.relpath}::{node.name}"
                enclosing.append(class_infos.get(key))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                target = interesting.get(node.func.id)
                if target is not None:
                    _alias_one_call(node, target, module, enclosing[-1], module_locks, aliases)
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_class:
                enclosing.pop()

        visit(module.tree)


def _alias_one_call(
    call: ast.Call,
    target: Tuple[str, ClassLockInfo],
    module: Module,
    caller_info: Optional[ClassLockInfo],
    module_locks: Dict[str, Dict[str, str]],
    aliases: UnionFind,
) -> None:
    class_key, info = target
    init = next(
        (
            item
            for item in info.node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ),
        None,
    )
    if init is None:
        return
    params = [arg.arg for arg in init.args.args][1:]  # drop self
    bound: Dict[str, ast.AST] = {}
    for param, arg in zip(params, call.args):
        bound[param] = arg
    for keyword in call.keywords:
        if keyword.arg:
            bound[keyword.arg] = keyword.value
    target_module_relpath, target_class = class_key.split("::")
    for attr, param in info.attr_from_param.items():
        arg = bound.get(param)
        if arg is None:
            continue
        attr_node = f"{target_module_relpath}::{target_class}.{attr}"
        caller_attr = self_attr_path(arg)
        if caller_attr and "." not in caller_attr and caller_info is not None:
            if caller_attr in caller_info.attrs:
                canonical = caller_info.canonical_attr(caller_attr)
                caller_node = (
                    f"{caller_info.module.relpath}::"
                    f"{caller_info.node.name}.{canonical}"
                )
                aliases.union(attr_node, caller_node)
        elif isinstance(arg, ast.Name) and arg.id in module_locks.get(module.relpath, {}):
            aliases.union(attr_node, f"{module.relpath}::{arg.id}")


def _alias_parameter_locks(graph: CallGraph) -> None:
    """Union each entered lock parameter with the class locks callers pass."""
    for func in graph.functions.values():
        caller_info = func.class_info
        if caller_info is None:
            continue
        for site in func.calls:
            for callee_key in graph.resolve(site.desc):
                callee = graph.functions[callee_key]
                if not callee.param_locks:
                    continue
                bound = bind_call_args(site.node, callee)
                for param, node in callee.param_locks.items():
                    arg = bound.get(param)
                    if arg is None:
                        continue
                    for option in lock_name_options(arg):
                        attr = self_attr_path(option)
                        if attr and "." not in attr and attr in caller_info.attrs:
                            graph.aliases.union(
                                node,
                                lock_node(
                                    func.module,
                                    caller_info.node.name,
                                    caller_info.canonical_attr(attr),
                                ),
                            )


def bind_call_args(
    call: ast.Call, callee: FunctionInfo
) -> Dict[str, ast.AST]:
    """Map a call's argument expressions onto the callee's parameter names.

    Positional args bind in order (``self`` already dropped for
    methods); keywords bind by name.  ``*args``/``**kwargs`` at the call
    site are ignored — the binding is best-effort for heuristic rules.
    """
    bound: Dict[str, ast.AST] = {}
    names = callee.arg_names()
    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    for name, arg in zip(names, positional):
        bound[name] = arg
    for keyword in call.keywords:
        if keyword.arg:
            bound[keyword.arg] = keyword.value
    return bound
