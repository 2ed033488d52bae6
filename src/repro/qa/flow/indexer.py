"""Project indexing: one summary per module, parsed fresh every run.

:func:`index_project` walks a package directory (or a plain directory
of modules), derives dotted module names, and extracts a
:class:`~repro.qa.flow.summary.ModuleSummary` per file. Nothing is
persisted: every run parses every file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.qa.flow.summary import extract_module


@dataclass
class ProjectIndex:
    """Every module summary plus aggregate symbol tables."""

    root: str
    modules: dict = field(default_factory=dict)  # module -> ModuleSummary

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

    def module_of(self, fq):
        """The summary owning a fully-qualified symbol, or ``None``."""
        parts = fq.split(".")
        for cut in range(len(parts), 0, -1):
            name = ".".join(parts[:cut])
            if name in self.modules:
                return self.modules[name]
        return None


def iter_module_files(root):
    """``(module_name, path, is_package)`` for every ``.py`` under
    ``root``, hidden directories excluded.

    A root containing ``__init__.py`` is treated as a package named
    after the directory (``src/repro`` -> ``repro.*``); otherwise each
    file becomes a top-level module named by its stem.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    is_pkg_root = (root / "__init__.py").is_file()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if any(part.startswith(".") for part in relative.parts):
            continue
        parts = list(relative.parts)
        parts[-1] = parts[-1][:-3]  # strip .py
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        if is_pkg_root:
            parts = [root.name] + parts
        if not parts:
            # a bare __init__.py directly under a non-package root
            continue
        yield ".".join(parts), path, is_package


def index_project(root):
    """Index every module under ``root`` into a :class:`ProjectIndex`."""
    index = ProjectIndex(root=str(root))
    for module, path, is_package in iter_module_files(root):
        source = path.read_bytes().decode("utf-8", errors="replace")
        index.modules[module] = extract_module(
            module, str(path), source, is_package=is_package)
    return index
