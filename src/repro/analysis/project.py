"""Project-wide module index and call graph for interprocedural rules.

This is the first of the two layers the interprocedural rules stand
on.  Given the :class:`~repro.analysis.engine.FileContext`\\ s of every
linted file, :class:`ProjectIndex` derives a dotted module name for
each file (by walking ``__init__.py`` chains, so ``src/repro/hamr/
pool.py`` indexes as ``repro.hamr.pool``), records every module-level
function, class, and method, and resolves *calls* back to their
definitions across files:

- ``from repro.x import f`` / ``import repro.x as m`` aliases
  (including relative imports),
- ``self.method()`` / ``cls.method()`` inside a known class, walking
  in-project base classes,
- ``obj.method()`` where ``obj`` was locally bound from a known class
  constructor or annotated with a known class,
- dotted module access ``repro.x.f(...)``.

Resolution is best-effort and *sound for the rules built on it*: an
unresolvable call returns ``None`` and the data-flow layer treats the
callee as a no-op (no false positives from guessing).

Everything is deterministic: modules index in sorted-path order, name
collisions keep the first claimant, and the lazily built call-graph
edges are sorted.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.analysis.engine import FileContext

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ResolvedCall",
    "ProjectIndex",
    "module_name_for",
    "dotted_name",
    "FLOW_NODES",
]

#: Node types the per-function passes read (summaries, call graph,
#: local class types, HL007).  They share one filtered list of each
#: function body, so the list holds the union and each pass still
#: checks the types it needs.
FLOW_NODES = (ast.Assign, ast.Call, ast.Expr, ast.Return)


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, via its ``__init__.py`` chain.

    A file outside any package indexes under its bare stem.
    """
    path = Path(path)
    parts = [] if path.stem == "__init__" else [path.stem]
    d = path.parent
    while d.name and (d / "__init__.py").exists():
        parts.insert(0, d.name)
        d = d.parent
    return ".".join(parts) if parts else path.stem


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclasses.dataclass(frozen=True)
class FunctionInfo:
    """One indexed function or method."""

    key: str                 # "repro.x.f" or "repro.x.Class.meth"
    module: str
    qualname: str            # "f" or "Class.meth"
    name: str
    node: ast.AST            # FunctionDef | AsyncFunctionDef
    params: tuple[str, ...]  # positional + kw-only names, in order
    is_method: bool
    owner: str | None        # owning class name within the module
    path: str


@dataclasses.dataclass(frozen=True)
class ClassInfo:
    """One indexed class with its directly defined methods."""

    key: str                 # "repro.x.Class"
    module: str
    name: str
    methods: Mapping[str, FunctionInfo]
    bases: tuple[str, ...]   # dotted base expressions, unresolved


@dataclasses.dataclass(frozen=True)
class ResolvedCall:
    """A call resolved to its in-project definition.

    ``bound`` is True when the call went through an instance (or
    ``self``/``cls``), i.e. the leading ``self`` parameter is already
    taken.
    """

    func: FunctionInfo
    bound: bool = False


def _param_names(node: ast.AST) -> tuple[str, ...]:
    a = node.args
    names = [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]
    names += [p.arg for p in a.kwonlyargs]
    return tuple(names)


class ModuleInfo:
    """Index entry for one source file."""

    def __init__(self, name: str, ctx: FileContext):
        self.name = name
        self.ctx = ctx
        self.path = ctx.posix
        self.tree = ctx.tree
        #: local alias -> dotted target ("pkg.mod" or "pkg.mod.sym")
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}  # qualname -> info
        self.classes: dict[str, ClassInfo] = {}
        self._index()

    def _index(self) -> None:
        for node in self.ctx.nodes(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports.setdefault(bound, target)
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.imports.setdefault(bound, target)
        for stmt in getattr(self.tree, "body", []):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, owner=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(stmt)

    def _from_base(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        # Relative import: peel `level` components off this module's
        # package (the module itself counts as the first component).
        parts = self.name.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _add_function(self, node, owner: str | None) -> None:
        qual = f"{owner}.{node.name}" if owner else node.name
        info = FunctionInfo(
            key=f"{self.name}.{qual}",
            module=self.name,
            qualname=qual,
            name=node.name,
            node=node,
            params=_param_names(node),
            is_method=owner is not None,
            owner=owner,
            path=self.path,
        )
        self.functions.setdefault(qual, info)

    def _add_class(self, node: ast.ClassDef) -> None:
        methods: dict[str, FunctionInfo] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, owner=node.name)
                methods[stmt.name] = self.functions[f"{node.name}.{stmt.name}"]
        bases = tuple(
            b for b in (dotted_name(base) for base in node.bases) if b
        )
        self.classes.setdefault(
            node.name,
            ClassInfo(
                key=f"{self.name}.{node.name}",
                module=self.name,
                name=node.name,
                methods=methods,
                bases=bases,
            ),
        )


class ProjectIndex:
    """All indexed modules plus cross-module resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        for mod in modules:
            self.modules.setdefault(mod.name, mod)
            self.by_path.setdefault(mod.path, mod)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._by_node: dict[int, FunctionInfo] = {}
        for name in sorted(self.modules):
            mod = self.modules[name]
            for qual in sorted(mod.functions):
                fi = mod.functions[qual]
                self.functions.setdefault(fi.key, fi)
                self._by_node.setdefault(id(fi.node), fi)
            for cname in sorted(mod.classes):
                ci = mod.classes[cname]
                self.classes.setdefault(ci.key, ci)
        self._edges: dict[str, tuple[str, ...]] | None = None
        self._callers: dict[str, tuple[str, ...]] | None = None
        self._local_types: dict[str, dict[str, ClassInfo]] = {}

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectIndex":
        ordered = sorted(contexts, key=lambda c: c.posix)
        return cls([ModuleInfo(module_name_for(c.path), c) for c in ordered])

    # -- lookups --------------------------------------------------------------

    def module_for(self, ctx: FileContext) -> ModuleInfo | None:
        return self.by_path.get(ctx.posix)

    def function_at(self, node: ast.AST) -> FunctionInfo | None:
        """The indexed FunctionInfo for this exact AST node, if any."""
        return self._by_node.get(id(node))

    def canonical_name(
        self,
        module: ModuleInfo,
        node: ast.AST,
        local_types: Mapping[str, ClassInfo] | None = None,
    ) -> str | None:
        """Fully qualified dotted name of a Name/Attribute reference.

        Resolves import aliases and module-local definitions:
        ``Decision`` under ``from repro.control.governors import
        Decision`` canonicalizes to ``repro.control.governors.Decision``
        whether or not that module is indexed; ``time.time`` under
        ``import time`` canonicalizes to ``time.time``.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if local_types and head in local_types:
            base = local_types[head].key
        elif head in module.imports:
            base = module.imports[head]
        elif head in module.functions or head in module.classes:
            base = f"{module.name}.{head}"
        else:
            return dotted
        return f"{base}.{rest}" if rest else base

    def _class_by_key(self, key: str) -> ClassInfo | None:
        return self.classes.get(key)

    def _function_by_key(self, key: str) -> FunctionInfo | None:
        fi = self.functions.get(key)
        if fi is not None:
            return fi
        # "pkg.mod.Class.meth" where meth lives on a base class.
        head, _, meth = key.rpartition(".")
        ci = self.classes.get(head)
        if ci is not None:
            return self._method_on(ci, meth)
        return None

    def _method_on(
        self, ci: ClassInfo, name: str, _depth: int = 0
    ) -> FunctionInfo | None:
        """Method lookup walking in-project base classes."""
        if _depth > 8:
            return None
        if name in ci.methods:
            return ci.methods[name]
        mod = self.modules.get(ci.module)
        if mod is None:
            return None
        for base in ci.bases:
            base_key = self.canonical_name_str(mod, base)
            if base_key is None:
                continue
            base_ci = self.classes.get(base_key)
            if base_ci is not None and base_ci.key != ci.key:
                found = self._method_on(base_ci, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def canonical_name_str(self, module: ModuleInfo, dotted: str) -> str | None:
        """:meth:`canonical_name` for an already-dotted string."""
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            base = module.imports[head]
        elif head in module.functions or head in module.classes:
            base = f"{module.name}.{head}"
        else:
            return dotted
        return f"{base}.{rest}" if rest else base

    # -- call resolution ------------------------------------------------------

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        local_types: Mapping[str, ClassInfo] | None = None,
        owner: ClassInfo | None = None,
    ) -> ResolvedCall | None:
        """Resolve a call to its in-project definition, or None."""
        func = call.func
        # self.method() / cls.method() inside a known class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and owner is not None
        ):
            fi = self._method_on(owner, func.attr)
            return ResolvedCall(fi, bound=True) if fi else None
        # obj.method() where obj's class is locally known.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and local_types
            and func.value.id in local_types
        ):
            fi = self._method_on(local_types[func.value.id], func.attr)
            return ResolvedCall(fi, bound=True) if fi else None
        canon = self.canonical_name(module, func, local_types)
        if canon is None:
            return None
        fi = self._function_by_key(canon)
        if fi is not None:
            return ResolvedCall(fi, bound=False)
        ci = self._class_by_key(canon)
        if ci is not None:
            init = self._method_on(ci, "__init__")
            return ResolvedCall(init, bound=True) if init else None
        return None

    def resolve_class(
        self, module: ModuleInfo, node: ast.AST
    ) -> ClassInfo | None:
        canon = self.canonical_name(module, node)
        return self.classes.get(canon) if canon else None

    def local_class_types(self, fi: FunctionInfo) -> dict[str, ClassInfo]:
        """name -> class for locals bound from known constructors or
        annotated parameters, within one function.  Cached per key."""
        cached = self._local_types.get(fi.key)
        if cached is not None:
            return cached
        mod = self.modules.get(fi.module)
        out: dict[str, ClassInfo] = {}
        if mod is not None:
            args = fi.node.args
            for p in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if p.annotation is not None:
                    ci = self.resolve_class(mod, p.annotation)
                    if ci is not None:
                        out.setdefault(p.arg, ci)
            for node in mod.ctx.nodes(*FLOW_NODES, root=fi.node):
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    continue
                ci = self.resolve_class(mod, node.value.func)
                if ci is None:
                    continue
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        out.setdefault(tgt.id, ci)
        self._local_types[fi.key] = out
        return out

    def map_args(
        self, call: ast.Call, resolved: ResolvedCall
    ) -> list[tuple[str, ast.expr]]:
        """(param name, argument expr) pairs for a resolved call.

        Starred/``**`` arguments stop the positional mapping; unknown
        keywords are dropped.
        """
        fi = resolved.func
        params = list(fi.params)
        if fi.is_method and resolved.bound and params:
            params = params[1:]  # self/cls already bound
        out: list[tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or i >= len(params):
                break
            out.append((params[i], arg))
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in fi.params:
                out.append((kw.arg, kw.value))
        return out

    # -- call graph -----------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for key in sorted(self.functions):
            yield self.functions[key]

    def call_edges(self) -> dict[str, tuple[str, ...]]:
        """caller key -> sorted unique callee keys (lazily built)."""
        if self._edges is None:
            edges: dict[str, tuple[str, ...]] = {}
            for fi in self.iter_functions():
                mod = self.modules.get(fi.module)
                if mod is None:
                    edges[fi.key] = ()
                    continue
                owner = mod.classes.get(fi.owner) if fi.owner else None
                local = self.local_class_types(fi)
                callees: set[str] = set()
                for node in mod.ctx.nodes(*FLOW_NODES, root=fi.node):
                    if isinstance(node, ast.Call):
                        r = self.resolve_call(mod, node, local, owner)
                        if r is not None:
                            callees.add(r.func.key)
                edges[fi.key] = tuple(sorted(callees))
            self._edges = edges
        return self._edges

    def callers_of(self, key: str) -> tuple[str, ...]:
        """Sorted caller keys for one function (lazily built)."""
        if self._callers is None:
            rev: dict[str, set[str]] = {}
            for caller, callees in self.call_edges().items():
                for callee in callees:
                    rev.setdefault(callee, set()).add(caller)
            self._callers = {k: tuple(sorted(v)) for k, v in rev.items()}
        return self._callers.get(key, ())
