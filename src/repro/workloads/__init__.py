"""Synthetic workload substrate.

The paper evaluates six real benchmark suites (Table III). Those binaries
are not available here, so this package models each suite as a set of
*phase-structured synthetic workloads*: every workload is a sequence of
phases, every phase a weighted mix of access-pattern kernels plus branch
and compute behaviour, and every interval of execution materializes as a
batch of memory/branch events consumable by the simulator.

What matters for the Perspector metrics is the statistical structure of
the resulting counters, and the models encode each suite's published
character (see DESIGN.md section 2 and the module docstrings under
:mod:`repro.workloads.suites`):

* Ligra workloads share a code skeleton -> clustered counters;
* PARSEC and SGXGauge are diverse real applications with strong phases;
* LMbench members each stress one extreme corner of the machine;
* Nbench is a set of small cache-resident kernels;
* SPEC'17 is large, diverse and comparatively well spread.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.base": ("KernelSpec", "Phase", "Workload", "Suite"),
    "repro.workloads.trace": ("TraceInterval",),
    "repro.workloads.suites.registry": (
        "available_suites", "load_suite", "load_all_suites",
    ),
    "repro.workloads.custom": (
        "suite_from_json", "suite_from_spec", "suite_to_spec",
    ),
    "repro.workloads.synthetic": (
        "make_grouped_suite", "make_synthetic_suite",
    ),
})
