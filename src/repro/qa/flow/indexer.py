"""Project indexing: one summary per module, each file parsed once.

:func:`index_project` walks a package directory (or a plain directory
of modules) with :func:`repro.qa.lint.iter_module_files`, and extracts
a :class:`~repro.qa.flow.summary.ModuleSummary` per file from its
:class:`~repro.qa.lint.SourceContext`: the per-file pass's when that
pass already parsed the file this run, a fresh one otherwise. Nothing
is persisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.qa.flow.summary import extract_module
from repro.qa.lint import SourceContext, iter_module_files


@dataclass
class ProjectIndex:
    """Every module summary plus aggregate symbol tables."""

    root: str
    modules: dict = field(default_factory=dict)  # module -> ModuleSummary
    sources: dict = field(default_factory=dict)  # path -> SourceContext

    @property
    def functions(self):
        """``fq -> FunctionRecord`` across every module."""
        out = {}
        for summary in self.modules.values():
            out.update(summary.functions)
        return out

    @property
    def classes(self):
        """``fq -> ClassRecord`` across every module."""
        out = {}
        for summary in self.modules.values():
            out.update(summary.classes)
        return out


def index_project(root, parsed=()):
    """Index every module under ``root`` into a :class:`ProjectIndex`.
    ``parsed`` holds source contexts already built this run; a file
    among them is not parsed again."""
    known = {ctx.path.resolve(): ctx for ctx in parsed}
    index = ProjectIndex(root=str(root))
    for module, path, is_package in iter_module_files(root):
        ctx = known.get(path.resolve())
        if ctx is None:
            ctx = SourceContext.read(path)
        index.sources[str(path)] = ctx
        index.modules[module] = extract_module(
            module, str(path), ctx.tree, is_package=is_package)
    return index
