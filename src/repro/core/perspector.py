"""The Perspector facade: score suites, compare suites.

This is the tool's front door. Feed it either

* a :class:`repro.workloads.base.Suite` (it will simulate the suite
  through a :class:`repro.perf.session.PerfSession` and score the
  measured counters), or
* a pre-built :class:`repro.core.matrix.CounterMatrix` (e.g. loaded from
  real ``perf`` data),

and it returns :class:`repro.core.report.SuiteScorecard` objects with all
four Section III scores. ``compare`` scores several suites under the
joint Eq. 9-10 normalization, which is the paper's Fig. 3 setting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.coverage_score import DEFAULT_VARIANCE
from repro.core.focus import EventFocus, apply_focus
from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_matrices_jointly
from repro.core.report import SuiteComparison, SuiteScorecard
from repro.obs.trace import span
from repro.qa import contracts


@dataclass
class PerspectorConfig:
    """Knobs shared by every scoring run.

    Attributes
    ----------
    pca_variance:
        CoverageScore retained-variance target (paper: 0.98).
    trend_points:
        Common grid length for the Fig. 1 series normalization.
    dtw_band:
        Optional Sakoe-Chiba band (None = unconstrained, the paper's
        setting).
    kmeans_restarts:
        K-means++ restarts per k in the ClusterScore sweep.
    spread_axis:
        Eq. 14 reading: ``workloads`` (paper-literal) or ``events``.
    seed:
        Seed for K-means and any sampled variants.
    workers:
        Worker processes for the scoring engine's parallel fan-out
        (per-event DTW matrices, per-k K-means, per-suite comparison
        scoring). ``1`` (the default) keeps the serial path; any value
        produces bit-identical scorecards.
    cache:
        Enable the engine's content-addressed kernel cache. Results are
        bit-identical with the cache on or off; turning it off trades
        speed for memory.
    cache_dir:
        Optional directory for the engine's on-disk cache tier: kernel
        results persist under their content-addressed keys, so a later
        process (or CLI invocation) starts warm. ``None`` keeps the
        cache memory-only. Like ``workers``/``cache``, the tier never
        changes an output bit.
    backend:
        Compute-backend name for the DTW / KS hot paths (``"reference"``
        | ``"vectorized"``). ``None`` resolves via ``$REPRO_BACKEND``
        then the reference default. Backends are bit-identical -- purely
        a speed knob, and cache keys never include it.
    """

    pca_variance: float = DEFAULT_VARIANCE
    trend_points: int = 100
    dtw_band: int | None = None
    kmeans_restarts: int = 8
    spread_axis: str = "workloads"
    seed: int = 0
    workers: int = 1
    cache: bool = True
    cache_dir: str | None = None
    backend: str | None = None


class Perspector:
    """Score and compare benchmark suites.

    Parameters
    ----------
    session:
        Optional :class:`repro.perf.session.PerfSession` used to measure
        :class:`Suite` inputs. Defaults to a session on the Table II
        machine with moderate trace lengths.
    config:
        Metric configuration.
    seed:
        Shorthand that overrides ``config.seed``. The caller's config
        object is never mutated: the override lands on a private copy.
    engine:
        Optional :class:`repro.engine.Engine` to score through (shared
        engines let several Perspectors reuse one kernel cache). By
        default one is built from ``config.workers`` / ``config.cache``.
    """

    def __init__(self, session=None, config=None, seed=None, engine=None):
        config = config if config is not None else PerspectorConfig()
        if seed is not None:
            config = replace(config, seed=seed)
        self.config = config
        self._session = session
        self._engine = engine

    @property
    def engine(self):
        if self._engine is None:
            from repro.engine import Engine

            self._engine = Engine.from_config(self.config)
        return self._engine

    @property
    def session(self):
        if self._session is None:
            from repro.perf.session import PerfSession

            self._session = PerfSession(seed=self.config.seed)
        return self._session

    # -- measurement ---------------------------------------------------------

    def measure(self, suite_or_matrix):
        """Resolve the input to a CounterMatrix (simulating if needed)."""
        if isinstance(suite_or_matrix, CounterMatrix):
            return suite_or_matrix
        measurement = self.session.run_suite(suite_or_matrix)
        return CounterMatrix.from_measurement(measurement)

    # -- scoring --------------------------------------------------------------

    def score(self, suite_or_matrix, focus=EventFocus.ALL):
        """Score one suite in isolation.

        Returns
        -------
        SuiteScorecard
        """
        with span("perspector.score", focus=EventFocus.parse(focus).value):
            matrix = apply_focus(self.measure(suite_or_matrix), focus)
            return self._score_matrix(matrix, EventFocus.parse(focus),
                                      normalize=True)

    def compare(self, *suites_or_matrices, focus=EventFocus.ALL):
        """Score several suites under joint normalization (Fig. 3).

        Returns
        -------
        SuiteComparison
        """
        if len(suites_or_matrices) < 2:
            raise ValueError("compare needs at least two suites")
        focus = EventFocus.parse(focus)
        with span("perspector.compare", suites=len(suites_or_matrices),
                  focus=focus.value):
            matrices = [
                apply_focus(self.measure(s), focus)
                for s in suites_or_matrices
            ]
            events = matrices[0].events
            for m in matrices[1:]:
                if m.events != events:
                    raise ValueError(
                        "compared suites must share the same event set: "
                        f"{events} vs {m.events}"
                    )
            normalized = normalize_matrices_jointly(*matrices)
            if self.config.workers > 1 and not contracts.sanitizer_active():
                # Fan per-suite scoring across the engine's worker pool;
                # results come back in input order so the comparison is
                # bit-identical to the serial path.
                scorecards = tuple(self.engine.score_matrices(
                    normalized, self.config, focus.value, normalize=False,
                ))
            else:
                scorecards = tuple(
                    self._score_matrix(m, focus, normalize=False)
                    for m in normalized
                )
            return SuiteComparison(scorecards=scorecards, focus=focus.value)

    def _score_matrix(self, matrix, focus, normalize):
        if contracts.sanitizer_active():
            where = f"Perspector.score({matrix.suite_name or '<unnamed>'})"
            # Strict mode raises ContractViolation here, naming the
            # offending counter columns. Collect mode records and falls
            # through; a poisoned matrix then yields an all-NaN scorecard
            # carrying the violation report instead of feeding garbage
            # to the kernels.
            contracts.check_counter_matrix(matrix, where=where)
            if matrix.has_series:
                contracts.check_series_set(matrix.series, where=where)
            if contracts.sanitizer_mode() == contracts.MODE_COLLECT:
                pending = contracts.drain_violations()
                if pending:
                    return SuiteScorecard(
                        suite_name=matrix.suite_name or "<unnamed>",
                        focus=focus.value,
                        cluster=float("nan"),
                        trend=float("nan"),
                        coverage=float("nan"),
                        spread=float("nan"),
                        details={},
                        violations=tuple(pending),
                    )
        card = self.engine.score_matrix(
            matrix, self.config, focus.value, normalize=normalize,
        )
        if contracts.sanitizer_mode() == contracts.MODE_COLLECT:
            card = replace(card,
                           violations=tuple(contracts.drain_violations()))
        return card
