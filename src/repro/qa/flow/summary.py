"""Per-module extraction for the whole-program effect analyzer.

One module's tree, parsed once per run by
:class:`repro.qa.lint.SourceContext`, produces a :class:`ModuleSummary`:
every function (methods and nested functions included) with its
directly observed :class:`~repro.qa.flow.effects.EffectAtom` list and
raw call sites, the import table, class records (bases, methods,
inferred ``self.attr`` constructor types) and module-level bindings.

Cross-module work (project-symbol resolution, the call graph, the
effect fixpoint) runs over summaries afterwards and never needs the
AST again.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.qa.flow.effects import (
    EffectAtom,
    INTRINSIC_METHODS,
    MUTATOR_METHODS,
    NONDET_ITERATION,
    READS_GLOBAL,
    RNG_UNSEEDED,
    WRITES_GLOBAL,
    intrinsic_effect,
)
from repro.qa.lint import dotted

_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.deque",
})


def expand_head(chain, *import_maps):
    """Resolve the head of a dotted chain through import tables (first
    map wins); returns the chain unchanged when no table binds it."""
    head, _, rest = chain.partition(".")
    for mapping in import_maps:
        target = mapping.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
    return chain


@dataclass
class CallSite:
    """One raw call site: the dotted callee chain plus descriptors for
    the first two positional arguments (enough to resolve
    ``functools.partial`` targets and pool-submitted callables)."""

    chain: object  # str | None
    line: int
    col: int
    args: list = field(default_factory=list)  # [(kind, chain-or-None)]


@dataclass
class FunctionRecord:
    """One function's extraction output."""

    fq: str
    module: str
    name: str
    path: str
    line: int
    col: int
    nested: bool
    cls: object  # str | None: owning class fq
    atoms: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    local_types: dict = field(default_factory=dict)   # name -> ctor chain
    local_imports: dict = field(default_factory=dict)  # alias -> fq


@dataclass
class ClassRecord:
    """One class: bases (raw chains), methods, ``self.attr`` types."""

    fq: str
    module: str
    name: str
    line: int
    bases: list = field(default_factory=list)
    methods: dict = field(default_factory=dict)     # name -> function fq
    attr_types: dict = field(default_factory=dict)  # attr -> ctor chain


@dataclass
class ModuleSummary:
    """Everything the cross-module phases need from one file."""

    module: str
    path: str
    imports: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # fq -> FunctionRecord
    classes: dict = field(default_factory=dict)    # fq -> ClassRecord
    module_types: dict = field(default_factory=dict)
    module_assigned: list = field(default_factory=list)
    module_mutables: list = field(default_factory=list)


# -- extraction ---------------------------------------------------------------


def _scope_split(root):
    """Nodes in ``root``'s own scope (lambdas included), plus directly
    nested function definitions (their bodies excluded)."""
    nodes, nested = [], []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(node)
            continue
        if isinstance(node, ast.ClassDef):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes, nested


def _is_mutable_binding(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        chain = dotted(value.func)
        return chain in _MUTABLE_CALLS
    return False


def _relative_base(module, is_package, level):
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:len(parts) - drop] if drop < len(parts) else []
    return ".".join(parts)


def _record_imports(node, imports, module, is_package):
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname is not None:
                imports[alias.asname] = alias.name
            else:
                head = alias.name.split(".", 1)[0]
                imports.setdefault(head, head)
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            base = _relative_base(module, is_package, node.level)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            imports[alias.asname or alias.name] = target


def _record_lazy_exports(call, imports):
    """Bind the names of a package ``__init__``'s
    ``lazy_exports(__name__, {module: (name, ...)})`` table
    (:mod:`repro._lazy`) as if each were imported from its module."""
    chain = dotted(call.func)
    if chain is None or chain.rsplit(".", 1)[-1] != "lazy_exports" or \
            len(call.args) < 2 or not isinstance(call.args[1], ast.Dict):
        return
    table = call.args[1]
    for key, names in zip(table.keys, table.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(names, (ast.Tuple, ast.List))):
            continue
        for name in names.elts:
            if isinstance(name, ast.Constant) and \
                    isinstance(name.value, str):
                imports[name.value] = f"{key.value}.{name.value}"


class _FunctionExtractor:
    """Extracts atoms/calls/locals for one function scope."""

    def __init__(self, summary, func, fq, cls_fq, nested):
        self.summary = summary
        self.func = func
        self.record = FunctionRecord(
            fq=fq, module=summary.module, name=func.name, path=summary.path,
            line=func.lineno, col=func.col_offset + 1, nested=nested,
            cls=cls_fq,
        )
        self.scope, self.nested_defs = _scope_split(func)
        self.global_decls = set()
        self.locals = self._collect_locals()
        self._reads_seen = set()

    # -- helpers -----------------------------------------------------------

    def _collect_locals(self):
        names = set()
        args = self.func.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            names.add(a.arg)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        for node in self.scope:
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
        for nested in self.nested_defs:
            names.add(nested.name)
        return names - self.global_decls

    def resolve(self, chain):
        return expand_head(chain, self.record.local_imports,
                           self.summary.imports)

    def atom(self, effect, node, detail):
        self.record.atoms.append(EffectAtom(
            effect=effect, line=node.lineno, col=node.col_offset + 1,
            detail=detail,
        ))

    def _arg_descriptor(self, arg):
        if isinstance(arg, ast.Lambda):
            return ("lambda", None)
        chain = dotted(arg)
        if chain is not None:
            return ("chain", chain)
        return ("opaque", None)

    # -- the pass ----------------------------------------------------------

    def run(self):
        for node in self.scope:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                _record_imports(node, self.record.local_imports,
                                self.summary.module, is_package=False)
        for node in self.scope:
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._visit_store(node)
            elif isinstance(node, ast.For):
                self._check_nondet_iter(node.iter, node)
            elif isinstance(node, ast.comprehension):
                self._check_nondet_iter(node.iter, node.iter)
            elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load):
                self._visit_read(node)
        return self.record

    def _visit_call(self, call):
        chain = dotted(call.func)
        site = CallSite(
            chain=chain, line=call.lineno, col=call.col_offset + 1,
            args=[self._arg_descriptor(a) for a in call.args[:2]],
        )
        self.record.calls.append(site)
        if chain is None:
            return
        resolved = self.resolve(chain)
        self._intrinsic_atoms(call, chain, resolved)
        head = chain.split(".", 1)[0]
        if ("." in chain and chain.rsplit(".", 1)[1] in MUTATOR_METHODS
                and head in self.summary.module_assigned
                and head not in self.locals):
            self.atom(WRITES_GLOBAL, call,
                      f"{chain}() mutates module-level {head!r}")

    def _intrinsic_atoms(self, call, chain, resolved):
        if resolved == "numpy.random.default_rng":
            unseeded = not call.args or (
                isinstance(call.args[0], ast.Constant)
                and call.args[0].value is None
            )
            if unseeded:
                self.atom(RNG_UNSEEDED, call, "numpy.random.default_rng()")
            return
        effect = intrinsic_effect(resolved)
        if effect is not None:
            self.atom(effect, call, f"{resolved}()")
            return
        if "." in chain:
            method = chain.rsplit(".", 1)[1]
            method_effect = INTRINSIC_METHODS.get(method)
            if method_effect is not None:
                self.atom(method_effect, call, f"{chain}()")

    def _visit_store(self, node):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name) and \
                    target.id in self.global_decls:
                self.atom(WRITES_GLOBAL, node,
                          f"rebinds global {target.id!r}")
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                root = target
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if isinstance(root, ast.Name) and \
                        root.id not in self.locals and (
                            root.id in self.summary.module_assigned
                            or root.id in self.global_decls):
                    self.atom(WRITES_GLOBAL, node,
                              f"store into module-level {root.id!r}")
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Call):
            ctor = dotted(node.value.func)
            if ctor is not None:
                self.record.local_types[node.targets[0].id] = ctor

    def _visit_read(self, node):
        name = node.id
        if name in self._reads_seen or name in self.locals:
            return
        if name in self.summary.module_mutables:
            self._reads_seen.add(name)
            self.atom(READS_GLOBAL, node,
                      f"reads module-level mutable {name!r}")

    def _check_nondet_iter(self, iter_node, at):
        nondet = isinstance(iter_node, (ast.Set, ast.SetComp))
        if isinstance(iter_node, ast.Call):
            nondet = dotted(iter_node.func) in ("set", "frozenset")
        if nondet:
            self.atom(NONDET_ITERATION, at,
                      "iterates a set (hash-order dependent)")


def extract_module(module, path, tree, is_package=False):
    """One parsed module's :class:`ModuleSummary`; a module that did not
    parse (``tree`` is ``None``) summarizes as empty."""
    summary = ModuleSummary(module=module, path=str(path))
    if tree is None:
        return summary

    # Pass A: module-level bindings.
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _record_imports(node, summary.imports, module, is_package)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node.value, ast.Call):
                _record_lazy_exports(node.value, summary.imports)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                summary.module_assigned.append(target.id)
                if node.value is not None and \
                        _is_mutable_binding(node.value):
                    summary.module_mutables.append(target.id)
                if isinstance(node.value, ast.Call):
                    ctor = dotted(node.value.func)
                    if ctor is not None:
                        summary.module_types[target.id] = ctor

    # Pass B: functions, methods, nested functions.
    def visit_function(func, prefix, cls_fq, nested):
        fq = f"{prefix}.{func.name}"
        extractor = _FunctionExtractor(summary, func, fq, cls_fq, nested)
        record = extractor.run()
        summary.functions[fq] = record
        if cls_fq is not None:
            cls = summary.classes[cls_fq]
            cls.methods.setdefault(func.name, fq)
            _collect_attr_types(func, extractor, cls)
        for inner in extractor.nested_defs:
            visit_function(inner, fq, None, nested=True)

    def visit_class(node, prefix):
        cls_fq = f"{prefix}.{node.name}"
        record = ClassRecord(
            fq=cls_fq, module=module, name=node.name, line=node.lineno,
            bases=[c for c in (dotted(b) for b in node.bases)
                   if c is not None],
        )
        summary.classes[cls_fq] = record
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(child, cls_fq, cls_fq, nested=False)
            elif isinstance(child, ast.ClassDef):
                visit_class(child, cls_fq)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(node, module, None, nested=False)
        elif isinstance(node, ast.ClassDef):
            visit_class(node, module)
    return summary


def _collect_attr_types(func, extractor, cls):
    """``self.x = Ctor(...)`` assignments seen anywhere in a method
    populate the class's attribute-type table."""
    for node in extractor.scope:
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        ctor = dotted(node.value.func)
        if ctor is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                cls.attr_types.setdefault(target.attr, ctor)
