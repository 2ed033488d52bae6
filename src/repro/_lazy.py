"""PEP 562 lazy exports, shared by the package ``__init__`` modules.

A package lists its public names by defining module, and
:func:`lazy_exports` returns the ``__all__``, ``__getattr__`` and
``__dir__`` that import a defining module on first attribute access.
Importing one submodule therefore never pulls in the rest of its
package: ``repro.cli`` and a disk-warm ``repro score`` never import
numpy or the simulator. The whole-program effect analyzer reads the
same table as the package's imports (:mod:`repro.qa.flow.summary`),
so a call through a lazy re-export keeps its call-graph edge.
"""

from __future__ import annotations

import importlib
import sys
import types


class _LazyPackage(types.ModuleType):
    """A package module whose exports win over same-named submodules.

    Importing ``repro.core.cluster_score`` makes the import system bind
    the submodule on its parent, which would shadow the exported
    ``cluster_score`` function; that one binding is dropped, so the
    attribute resolves to the export exactly as an eager
    ``from repro.core.cluster_score import cluster_score`` bound it.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and \
                self._lazy_where.get(name) == value.__name__:
            return
        super().__setattr__(name, value)


def lazy_exports(package, exports):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    Parameters
    ----------
    package:
        The package's ``__name__``.
    exports:
        ``{defining module: (public name, ...)}`` -- a dict literal, so
        the effect analyzer can read it without running the module.
    """
    where = {name: module for module, names in exports.items()
             for name in names}
    namespace = sys.modules[package]
    namespace._lazy_where = where
    namespace.__class__ = _LazyPackage

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        vars(namespace)[name] = value  # later lookups skip this hook
        return value

    def __dir__():
        return sorted(set(vars(namespace)) | set(where))

    return sorted(where), __getattr__, __dir__
