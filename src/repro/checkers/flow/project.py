"""Project model for the dataflow tier: parsed modules plus the import graph.

The REPRO2xx rules are *whole-program* checks: they reason about how values
travel between modules (seeds into workers, open handles across process
boundaries, obs reads into tallies).  That needs more than one file's AST -
it needs a map of the project:

* every checked file parsed into a :class:`ModuleInfo` with its dotted
  module name (``src/repro/campaign/plan.py`` -> ``repro.campaign.plan``),
* each module's import bindings (``from ..obs import metrics as _obs``
  binds ``_obs`` to ``repro.obs.metrics``) - the edges of the import graph,
* module-scope assignments (the symbol table the resolver walks through
  re-exports) and the subset that is *mutable* module-global state (the
  REPRO21x/23x rules care which globals a worker or cache touches).

Files outside a ``src/repro`` tree (tests, benchmarks, fixtures) still load
- they get a path-derived synthetic name and ``in_project=False`` - so the
intraprocedural rules (worker captures, in-place mutation) run on them
while the interprocedural ones stay scoped to the library.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from ..core import parse_noqa

#: RHS shapes that create mutable module-global state when assigned at
#: module scope (the containers the 21x/23x rules track).
_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

#: constructor names that likewise produce mutable containers.
_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"})


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by an import statement.

    ``local`` is the name visible in the module; ``target`` is the fully
    qualified thing it refers to (a module for ``import x.y as z``, a
    module *or* symbol for ``from pkg import name`` - the resolver
    disambiguates against the loaded module set).
    """

    local: str
    target: str
    line: int


@dataclass
class ModuleInfo:
    """One parsed source file and the per-module facts the rules consume."""

    name: str  # dotted module name, or a path-derived synthetic name
    path: str  # forward-slash path as given
    text: str
    tree: ast.Module
    in_project: bool  # True when the file lives under a src/repro tree
    noqa: dict[int, set[str]] = field(default_factory=dict)
    imports: dict[str, ImportBinding] = field(default_factory=dict)
    #: module-scope name -> every RHS expression ever assigned to it.
    module_assigns: dict[str, list[ast.expr]] = field(default_factory=dict)
    #: module-scope mutable containers: name -> lineno of the defining assignment.
    mutable_globals: dict[str, int] = field(default_factory=dict)
    #: module-scope defs: "fn" / "Class.method" -> the def node.
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.name.endswith(".__init__"):
            return self.name.rsplit(".", 1)[0]
        if "." in self.name:
            return self.name.rsplit(".", 1)[0]
        return ""


def module_name_for(path: str) -> tuple[str, bool]:
    """Dotted module name for ``path`` plus whether it is a project module.

    A file under any ``src/repro`` (or bare ``repro``) package tree gets its
    importable dotted name; anything else gets a synthetic name derived from
    the path so it can still be keyed and analysed intraprocedurally.
    """
    parts = PurePosixPath(path).parts
    if "repro" in parts:
        idx = parts.index("repro")
        tail = parts[idx:]
        if tail[-1].endswith(".py"):
            mod_parts = [*tail[:-1], tail[-1][:-3]]
            return ".".join(mod_parts), True
    synthetic = PurePosixPath(path).as_posix()
    if synthetic.endswith(".py"):
        synthetic = synthetic[:-3]
    return synthetic.replace("/", "."), False


def _resolve_relative(package: str, level: int, module: str | None) -> str:
    """Absolute module path for a ``from ...x import y`` statement."""
    base_parts = package.split(".") if package else []
    if level > 1:
        base_parts = base_parts[: len(base_parts) - (level - 1)]
    base = ".".join(base_parts)
    if module:
        return f"{base}.{module}" if base else module
    return base


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = ImportBinding(local, target, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(info.package, node.level, node.module)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                info.imports[local] = ImportBinding(local, target, node.lineno)


def _is_mutable_rhs(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_CTORS
    return False


def _collect_module_scope(info: ModuleInfo) -> None:
    """Record module-level assignments, mutable globals and defs."""
    for node in info.tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                info.module_assigns.setdefault(target.id, []).append(value)
                if _is_mutable_rhs(value):
                    info.mutable_globals.setdefault(target.id, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.functions[f"{node.name}.{item.name}"] = item


class Project:
    """Every checked module, keyed by dotted name and by path."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}

    @classmethod
    def load(cls, files: Iterable[str | Path]) -> "Project":
        """Parse files from disk; unparseable files are skipped silently
        (the per-file tier already reports them as REPRO100)."""
        sources: dict[str, str] = {}
        for file in files:
            p = Path(file)
            try:
                sources[p.as_posix()] = p.read_text(encoding="utf-8")
            except OSError:
                continue
        return cls.from_sources(sources)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from ``{path: source}`` pairs (tests use this)."""
        project = cls()
        for path, text in sources.items():
            posix = PurePosixPath(path).as_posix()
            try:
                tree = ast.parse(text, filename=posix)
            except SyntaxError:
                continue
            name, in_project = module_name_for(posix)
            info = ModuleInfo(
                name=name, path=posix, text=text, tree=tree,
                in_project=in_project, noqa=parse_noqa(text),
            )
            _collect_imports(info)
            _collect_module_scope(info)
            project.modules[info.name] = info
            project.by_path[posix] = info
        return project

    def module(self, name: str) -> ModuleInfo | None:
        return self.modules.get(name)

    def import_edges(self) -> dict[str, set[str]]:
        """Module-level import graph restricted to loaded project modules.

        An edge ``a -> b`` means module ``a`` binds a name whose target is
        module ``b`` or a symbol inside it.
        """
        edges: dict[str, set[str]] = {name: set() for name in self.modules}
        for info in self.modules.values():
            for binding in info.imports.values():
                target = binding.target
                # the target may name a module directly or a symbol in one
                hit = self._owning_module(target)
                if hit is not None and hit != info.name:
                    edges[info.name].add(hit)
        return edges

    def _owning_module(self, qualname: str) -> str | None:
        """Longest loaded-module prefix of a qualified name, if any."""
        parts = qualname.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
            init = f"{candidate}.__init__"
            if init in self.modules:
                return init
        return None
