"""Suite registry: one entry per Table III suite.

Each suite model is imported when it is first built, so listing the
suites (the CLI's ``choices``) imports no suite model and no numpy.
"""

from __future__ import annotations

import importlib

#: Suite name -> the module whose ``build()`` makes it, in Table III
#: order.
_MODULES = {
    "parsec": "repro.workloads.suites.parsec",
    "spec17": "repro.workloads.suites.spec17",
    "ligra": "repro.workloads.suites.ligra",
    "lmbench": "repro.workloads.suites.lmbench",
    "nbench": "repro.workloads.suites.nbench",
    "sgxgauge": "repro.workloads.suites.sgxgauge",
}


def _build(name):
    return importlib.import_module(_MODULES[name]).build()


def available_suites():
    """Names of every modelled suite, in Table III order."""
    return list(_MODULES)


def load_suite(name):
    """Build one suite model by name (case-insensitive).

    Returns
    -------
    repro.workloads.base.Suite
    """
    key = name.lower().replace("'", "").replace("-", "")
    if key == "spec2017":
        key = "spec17"
    if key not in _MODULES:
        raise KeyError(
            f"unknown suite {name!r}; available: {available_suites()}"
        )
    return _build(key)


def load_all_suites():
    """Build every suite model. Returns a name -> Suite dict."""
    return {name: _build(name) for name in _MODULES}
