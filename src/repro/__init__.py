"""repro -- a full reproduction of *Perspector: Benchmarking Benchmark
Suites* (Kumar, Panda, Sarangi; DATE 2023).

Perspector assigns four quantitative quality scores to a benchmark suite
from the hardware-performance-counter data its workloads produce:

* **ClusterScore** (diversity, lower is better),
* **TrendScore** (phase behaviour, higher is better),
* **CoverageScore** (parameter-space coverage, higher is better),
* **SpreadScore** (uniformity of coverage, lower is better).

Because this reproduction has no hardware PMU access, the measurement stack
is simulated end-to-end: synthetic phase-structured workload models
(:mod:`repro.workloads`) drive a trace-based microarchitecture simulator
(:mod:`repro.uarch`) observed through a PMU model (:mod:`repro.perf`); the
Perspector metrics proper live in :mod:`repro.core` on top of from-scratch
statistical kernels (:mod:`repro.stats`).

Quickstart::

    from repro import Perspector, load_suite

    suite = load_suite("nbench")
    scores = Perspector(seed=7).score(suite)
    print(scores)

The public API below is re-exported lazily (PEP 562) so that importing a
single substrate (e.g. ``repro.stats``) does not pull in the whole stack.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": (
        "Perspector", "PerspectorConfig", "SuiteScorecard", "CounterMatrix",
        "cluster_score", "trend_score", "coverage_score", "spread_score",
    ),
    "repro.engine": ("Engine",),
    "repro.core.focus": ("EventFocus",),
    "repro.core.subset": ("LHSSubsetGenerator", "SubsetReport"),
    "repro.engine.subset_eval": (
        "SubsetEvaluator", "SubsetSearch", "SubsetSearchResult",
    ),
    "repro.workloads": ("load_suite", "load_all_suites", "available_suites"),
})
__all__ = __all__ + ["__version__"]
