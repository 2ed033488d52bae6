"""Cross-module call-graph construction over a project index.

Raw call chains recorded at extraction time
(:class:`~repro.qa.flow.summary.CallSite`) are resolved here against
the whole project's symbol tables:

* imported names (including one-level re-exports through package
  ``__init__`` modules),
* same-module and nested functions,
* method calls through ``self`` and the known class hierarchy (a
  linear MRO walk over project classes),
* attribute types inferred from ``self.attr = Ctor(...)`` assignments
  and local ``x = Ctor(...)`` bindings,
* call-through edges: ``functools.partial(f, ...)`` and callables
  submitted across the :func:`~repro.engine.parallel.parallel_map`
  / ``ProcessPoolExecutor`` boundary.

Unresolvable receivers produce *no* edge -- the analysis under-claims
rather than hallucinating targets; the contract rules that need a
guarantee (``pool-safety``) treat "cannot resolve" as a finding
instead. The graph also surfaces the two site kinds the deep rules
consume: cache memoization sites (``KernelCache.put`` /
``get_or_compute`` / ``DiskCache.put``, plus the ``*.cache.put``
receiver idiom) and pool submission sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qa.flow.summary import expand_head

#: Resolved fully-qualified names with call-through semantics.
PARTIAL_FQ = frozenset({"functools.partial"})

#: Project pool-boundary functions (resolved names; also matched when
#: called from outside the indexed root).
POOL_FQ = frozenset({
    "repro.engine.parallel.parallel_map",
})

#: External pool-boundary suffixes (typed locals / direct use).
POOL_EXTERNAL_SUFFIXES = (
    "ProcessPoolExecutor.map", "ProcessPoolExecutor.submit",
    "Pool.map", "Pool.imap", "Pool.apply_async",
)

#: Receiver-name heuristic for pool sites (``*.executor.map(fn, ...)``).
POOL_RECEIVER_NAMES = frozenset({"executor", "pool"})
POOL_METHODS = frozenset({"map", "submit"})

#: Project cache-boundary methods (resolved names).
CACHE_FQ = frozenset({
    "repro.engine.cache.KernelCache.put",
    "repro.engine.cache.KernelCache.get_or_compute",
    "repro.engine.diskcache.DiskCache.put",
})

#: Receiver-name heuristic for cache sites.
CACHE_RECEIVER_NAMES = frozenset({"cache", "disk", "diskcache"})

_MAX_REEXPORT_HOPS = 5


@dataclass(frozen=True)
class Edge:
    """One call-graph edge, anchored at the caller's source line."""

    callee: str
    line: int
    col: int
    kind: str  # "call" | "partial" | "task"


@dataclass(frozen=True)
class PoolSite:
    """A callable crossing the process-pool boundary."""

    func: str       # enclosing function fq
    line: int
    col: int
    via: str        # the call chain at the site
    target_kind: str  # "func" | "lambda" | "opaque" | "none"
    target: object    # fq (func) | chain text (opaque) | None


@dataclass(frozen=True)
class CacheSite:
    """A content-addressed memoization write."""

    func: str
    line: int
    col: int
    method: str
    via: str


class CallGraph:
    """Resolved edges, atoms, and contract sites for a project index."""

    def __init__(self, index):
        self.index = index
        self._functions = index.functions
        self._classes = index.classes
        self._edges = {fq: [] for fq in self._functions}
        self.pool_sites = []
        self.cache_sites = []
        self._build()

    # -- solver interface --------------------------------------------------

    def functions(self):
        return self._functions.keys()

    def record(self, fq):
        return self._functions.get(fq)

    def own_atoms(self, fq):
        record = self._functions.get(fq)
        return record.atoms if record is not None else []

    def edges(self, fq):
        return self._edges.get(fq, [])

    # -- symbol resolution -------------------------------------------------

    def resolve(self, chain, summary, record=None, _depth=0):
        """Resolve a dotted chain in a module/function context.

        Returns ``(kind, value)`` with kind in ``"func"`` (a project
        function's fq), ``"class"`` (a project class's fq),
        ``"external"`` (a fully-expanded non-project name) or
        ``"opaque"`` (unresolvable receiver).
        """
        if chain is None or _depth > 8:
            # Depth guard: self-referential type bindings
            # (``x = x.copy()`` makes local_types map x to itself).
            return ("opaque", None)
        parts = chain.split(".")
        head = parts[0]
        local_imports = record.local_imports if record is not None else {}
        local_types = record.local_types if record is not None else {}

        if head == "self" and record is not None and record.cls:
            return self._resolve_self(parts, summary, record)

        ctor = local_types.get(head) or summary.module_types.get(head)
        if ctor is not None and len(parts) > 1:
            kind, value = self.resolve(ctor, summary, record,
                                       _depth=_depth + 1)
            if kind == "class":
                if len(parts) == 2:
                    method = self._lookup_method(value, parts[1])
                    if method is not None:
                        return ("func", method)
                return ("opaque", None)
            if kind == "external":
                return ("external", ".".join([value] + parts[1:]))
            return ("opaque", None)

        if record is not None:
            nested_fq = f"{record.fq}.{head}"
            if nested_fq in self._functions:
                return (("func", nested_fq) if len(parts) == 1
                        else ("opaque", None))

        same_module = f"{summary.module}.{head}"
        if same_module in self._functions:
            return (("func", same_module) if len(parts) == 1
                    else ("opaque", None))
        if same_module in self._classes:
            return self._resolve_class_path(same_module, parts[1:])

        if head in local_imports or head in summary.imports:
            full = expand_head(chain, local_imports, summary.imports)
            return self._resolve_fq(full)

        return ("external", chain)

    def _resolve_self(self, parts, summary, record):
        if len(parts) < 2:
            return ("opaque", None)
        cls_fq = record.cls
        name = parts[1]
        if len(parts) == 2:
            method = self._lookup_method(cls_fq, name)
            if method is not None:
                return ("func", method)
            return ("opaque", None)
        attr_ctor = self._lookup_attr_type(cls_fq, name)
        if attr_ctor is None:
            return ("opaque", None)
        kind, value = attr_ctor
        if kind == "class" and len(parts) == 3:
            method = self._lookup_method(value, parts[2])
            if method is not None:
                return ("func", method)
            return ("opaque", None)
        if kind == "external":
            return ("external", ".".join([value] + parts[2:]))
        return ("opaque", None)

    def _resolve_class_path(self, cls_fq, rest):
        if not rest:
            return ("class", cls_fq)
        if len(rest) == 1:
            method = self._lookup_method(cls_fq, rest[0])
            if method is not None:
                return ("func", method)
        return ("opaque", None)

    def _resolve_fq(self, full, hops=0):
        if full in self._functions:
            return ("func", full)
        if full in self._classes:
            return ("class", full)
        parts = full.split(".")
        # Class-qualified method (``module.Class.method``).
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self._classes:
                return self._resolve_class_path(prefix, parts[cut:])
            if prefix in self.index.modules:
                # Chase one re-export level through the module's imports.
                if hops >= _MAX_REEXPORT_HOPS:
                    return ("opaque", None)
                module = self.index.modules[prefix]
                target = module.imports.get(parts[cut])
                if target is not None:
                    rerouted = ".".join([target] + parts[cut + 1:])
                    return self._resolve_fq(rerouted, hops=hops + 1)
                return ("opaque", None)
        return ("external", full)

    def _lookup_method(self, cls_fq, name, _seen=None):
        if _seen is None:
            _seen = set()
        if cls_fq in _seen or cls_fq not in self._classes:
            return None
        _seen.add(cls_fq)
        cls = self._classes[cls_fq]
        if name in cls.methods:
            return cls.methods[name]
        summary = self.index.modules.get(cls.module)
        for base_chain in cls.bases:
            if summary is None:
                break
            kind, value = self.resolve(base_chain, summary)
            if kind == "class":
                found = self._lookup_method(value, name, _seen)
                if found is not None:
                    return found
        return None

    def _lookup_attr_type(self, cls_fq, attr, _seen=None):
        if _seen is None:
            _seen = set()
        if cls_fq in _seen or cls_fq not in self._classes:
            return None
        _seen.add(cls_fq)
        cls = self._classes[cls_fq]
        ctor = cls.attr_types.get(attr)
        if ctor is not None:
            summary = self.index.modules.get(cls.module)
            if summary is not None:
                kind, value = self.resolve(ctor, summary)
                if kind in ("class", "external"):
                    return (kind, value)
            return None
        summary = self.index.modules.get(cls.module)
        for base_chain in cls.bases:
            if summary is None:
                break
            kind, value = self.resolve(base_chain, summary)
            if kind == "class":
                found = self._lookup_attr_type(value, attr, _seen)
                if found is not None:
                    return found
        return None

    # -- graph construction ------------------------------------------------

    def _build(self):
        for module, summary in self.index.modules.items():
            for fq, record in summary.functions.items():
                for site in record.calls:
                    self._resolve_site(summary, record, site)

    def _add_edge(self, fq, callee, site, kind):
        self._edges[fq].append(Edge(
            callee=callee, line=site.line, col=site.col, kind=kind,
        ))

    def _resolve_site(self, summary, record, site):
        kind, value = self.resolve(site.chain, summary, record)
        if kind == "func":
            self._add_edge(record.fq, value, site, "call")
            if value in POOL_FQ:
                self._pool_site(summary, record, site)
            if value in CACHE_FQ:
                method = value.rsplit(".", 1)[1]
                self._cache_site(record, site, method)
            return
        if kind == "class":
            init = self._lookup_method(value, "__init__")
            if init is not None:
                self._add_edge(record.fq, init, site, "call")
            return
        if kind == "external":
            if value in PARTIAL_FQ:
                self._arg_edge(summary, record, site, arg_index=0,
                               edge_kind="partial")
                return
            if value in POOL_FQ or any(
                    value.endswith(suffix)
                    for suffix in POOL_EXTERNAL_SUFFIXES):
                self._pool_site(summary, record, site)
                return
        self._heuristic_sites(summary, record, site)

    def _heuristic_sites(self, summary, record, site):
        """Receiver-name idioms for sites whose receiver type could not
        be resolved (``pool.map``, ``*.cache.put``)."""
        if site.chain is None or "." not in site.chain:
            return
        parts = site.chain.split(".")
        method = parts[-1]
        receiver = parts[-2]
        if method in POOL_METHODS and receiver in POOL_RECEIVER_NAMES:
            self._pool_site(summary, record, site)
        elif method == "get_or_compute" or (
                method == "put" and receiver in CACHE_RECEIVER_NAMES):
            self._cache_site(record, site, method)

    def _arg_edge(self, summary, record, site, arg_index, edge_kind):
        """Edge to the callable carried in positional arg ``arg_index``
        (partial targets, pool tasks). Returns the resolution."""
        if arg_index >= len(site.args):
            return ("none", None)
        arg_kind, arg_chain = site.args[arg_index]
        if arg_kind == "lambda":
            return ("lambda", None)
        if arg_kind != "chain" or arg_chain is None:
            return ("opaque", None)
        kind, value = self.resolve(arg_chain, summary, record)
        if kind == "func":
            self._add_edge(record.fq, value, site, edge_kind)
            return ("func", value)
        return ("opaque", arg_chain)

    def _pool_site(self, summary, record, site):
        target_kind, target = self._arg_edge(summary, record, site,
                                             arg_index=0, edge_kind="task")
        self.pool_sites.append(PoolSite(
            func=record.fq, line=site.line, col=site.col,
            via=site.chain or "<call>", target_kind=target_kind,
            target=target,
        ))

    def _cache_site(self, record, site, method):
        self.cache_sites.append(CacheSite(
            func=record.fq, line=site.line, col=site.col, method=method,
            via=site.chain or "<call>",
        ))
