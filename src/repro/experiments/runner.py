"""Shared experiment infrastructure.

All the figure/table drivers need the same thing first: measured counter
matrices (with series) for some suites, at consistent trace-length
settings. :func:`measure_suites` provides that with an in-process cache,
so a bench session that regenerates Fig. 3, Fig. 4 and Fig. 6 simulates
each suite exactly once.

:func:`score_suite` is the ``repro score`` path: with a disk tier it
also persists whole scorecards, so a repeat request reads one small
file. This module imports neither numpy nor the simulator until a
suite is actually measured or scored.

Two preset configurations:

* :func:`ExperimentConfig.quick` -- short traces for CI/benches
  (seconds per suite);
* :func:`ExperimentConfig.full` -- the settings used for the numbers in
  EXPERIMENTS.md (minutes for all six suites).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.obs.trace import span

_CACHE = {}


@dataclass(frozen=True)
class ExperimentConfig:
    """Trace-length and seed settings shared by the experiment drivers.

    ``workers``, ``cache`` and ``cache_dir`` configure the scoring
    engine (:class:`repro.engine.Engine`): process fan-out width, the
    content-addressed kernel cache and its optional on-disk tier. None
    of them affects any output bit -- they only change how fast the
    drivers regenerate the figures. With ``cache_dir`` set, the
    *measured suites themselves* also persist there (keyed by suite
    name + every measurement field), so a warm CLI invocation skips the
    suite simulations entirely, and so do ``repro score``'s whole
    scorecards (:func:`score_suite`).
    """

    n_intervals: int = 16
    ops_per_interval: int = 1500
    warmup_intervals: int = 6
    warmup_boost: int = 8
    seed: int = 7
    metric_seed: int = 3
    workers: int = 1
    cache: bool = True
    cache_dir: str | None = None
    #: Where to append longitudinal run-history records
    #: (:mod:`repro.obs.history`); ``None`` disables recording. Like
    #: the other engine knobs, it never affects an output bit.
    history_dir: str | None = None

    def measurement_key(self):
        """The fields that determine measured traces. Scoring knobs
        (``metric_seed``, ``workers``, ``cache``, ``cache_dir``,
        ``history_dir``) are excluded, so
        re-scoring the same traces under different settings reuses the
        measurement cache."""
        return (self.n_intervals, self.ops_per_interval,
                self.warmup_intervals, self.warmup_boost, self.seed)

    @classmethod
    def quick(cls):
        """Small traces: fast enough for the pytest-benchmark harness."""
        return cls(n_intervals=12, ops_per_interval=800,
                   warmup_intervals=4, warmup_boost=6)

    @classmethod
    def full(cls):
        """The EXPERIMENTS.md settings."""
        return cls()

    def session(self):
        """Build the PerfSession these settings describe."""
        from repro.perf.session import PerfSession

        return PerfSession(
            n_intervals=self.n_intervals,
            ops_per_interval=self.ops_per_interval,
            warmup_intervals=self.warmup_intervals,
            warmup_boost=self.warmup_boost,
            seed=self.seed,
        )


def measure_suites(names, config=None):
    """Measured CounterMatrix per suite, cached per (suite, config).

    Parameters
    ----------
    names:
        Suite names (see :func:`repro.workloads.available_suites`).
    config:
        :class:`ExperimentConfig`; default :meth:`ExperimentConfig.full`.

    Returns
    -------
    dict[str, CounterMatrix]
    """
    config = config if config is not None else ExperimentConfig.full()
    disk = _disk_for(config)
    out = {}
    session = None
    for name in names:
        key = (name, config.measurement_key())
        if key not in _CACHE:
            matrix, session = _measure_suite(name, config, disk, session)
            _CACHE[key] = matrix
        out[name] = _CACHE[key]
    return out


def _measure_suite(name, config, disk, session):
    """Measure one suite, disk tier consulted first.

    The whole computation between here and the ``disk.put`` is a pure
    function of (suite name, measurement key) -- ``repro lint --deep``
    proves that (rule ``cache-purity``); the process-level memo in
    :func:`measure_suites` stays outside the cached boundary. Returns
    ``(matrix, session)``: the session is created lazily on the first
    simulated (non-disk-hit) measurement and reused by the caller.
    """
    with span("experiment.measure", suite=name) as sp:
        dkey = None
        if disk is not None:
            from repro.engine.cache import MISS, content_key

            dkey = content_key("measured-suite", name,
                               *config.measurement_key())
            cached = disk.get(dkey)
            if cached is not MISS:
                sp.set(source="disk")
                return cached, session
        from repro.core.matrix import CounterMatrix
        from repro.workloads import load_suite

        if session is None:
            session = config.session()
        measurement = session.run_suite(load_suite(name))
        matrix = CounterMatrix.from_measurement(measurement)
        sp.set(source="simulated")
        if disk is not None:
            disk.put(dkey, matrix)
    return matrix, session


def score_suite(name, config=None, focus="all"):
    """``(scorecard, metrics snapshot)`` of one suite under one focus:
    what ``repro score`` prints and records.

    With a disk tier (``config.cache_dir`` set and the cache on), the
    whole scorecard persists there too, keyed by suite name,
    :meth:`ExperimentConfig.measurement_key`, ``metric_seed`` and
    ``focus`` (a focus value string such as ``"llc"``). A repeat
    request then reads one small file and imports neither numpy nor
    the simulator; its metrics snapshot is the disk tier's. A miss runs
    the path the tier sits in front of, unchanged, and stores its
    result. An active :mod:`repro.qa.contracts` sanitizer bypasses the
    entry, since its checks must see the measured matrix. The tier
    never changes a printed or recorded score bit.
    """
    config = config if config is not None else ExperimentConfig.full()
    key = (name, config.measurement_key())
    card, matrix, metrics = _score_suite(
        name, config, focus, _disk_for(config), _CACHE.get(key),
        scorecards=not _sanitizer_active(),
    )
    if matrix is not None:
        _CACHE[key] = matrix
    return card, metrics


def _score_suite(name, config, focus, disk, matrix, scorecards):
    """Score one suite, the scorecard entry consulted first.

    Like :func:`_measure_suite`, everything between the ``disk.get``
    and the ``disk.put`` is a pure function of the key (rule
    ``cache-purity``), and the process-level memo in
    :func:`score_suite` stays outside. ``matrix`` is the memoized
    measurement, or ``None``. Returns ``(card, matrix, metrics)``;
    ``matrix`` is ``None`` on a scorecard hit.
    """
    with span("experiment.score", suite=name, focus=focus) as sp:
        skey = None
        if disk is not None and scorecards:
            from repro.engine.cache import MISS, content_key

            skey = content_key("scorecard", name, config.measurement_key(),
                               config.metric_seed, focus)
            cached = disk.get(skey)
            if cached is not MISS:
                sp.set(source="disk")
                return cached, None, disk.metrics.snapshot()
        if matrix is None:
            matrix, _session = _measure_suite(name, config, disk, None)
        from repro.engine.engine import Engine

        # The engine is built explicitly (instead of letting the
        # Perspector facade build a private one) so the run's metrics
        # snapshot reaches the history recorder; the engine is a pure
        # accelerator, so the scorecard bits are identical either way.
        with Engine.from_config(config) as engine:
            card = perspector_for(config, engine=engine).score(
                matrix, focus=focus)
            metrics = engine.metrics.snapshot()
        sp.set(source="scored")
        if skey is not None:
            disk.put(skey, card)
    return card, matrix, metrics


def _sanitizer_active():
    """Whether a :mod:`repro.qa.contracts` sanitizer is on. Nothing
    can switch one on without importing that module, so the check
    imports nothing."""
    contracts = sys.modules.get("repro.qa.contracts")
    return contracts is not None and contracts.sanitizer_active()


_DISK_TIERS = {}


def _disk_for(config):
    """The measurement disk tier for a config (one
    :class:`~repro.engine.diskcache.DiskCache` per directory, shared
    with the scoring engine's tier -- same root, same key space)."""
    cache_dir = getattr(config, "cache_dir", None)
    if not cache_dir or not getattr(config, "cache", True):
        return None
    if cache_dir not in _DISK_TIERS:
        from repro.engine.diskcache import DiskCache

        _DISK_TIERS[cache_dir] = DiskCache(cache_dir)
    return _DISK_TIERS[cache_dir]


def perspector_for(config, session=None, engine=None):
    """A :class:`~repro.core.perspector.Perspector` wired to an
    :class:`ExperimentConfig`'s scoring knobs (``metric_seed``,
    ``workers``, ``cache``). Passing ``engine`` scores through a shared
    (already-warm) :class:`~repro.engine.Engine` instead of building a
    private one -- the scoring daemon's path; the engine is a pure
    accelerator, so the scorecard bits are identical either way."""
    from repro.core.perspector import Perspector, PerspectorConfig

    return Perspector(
        session=session,
        config=PerspectorConfig(
            seed=config.metric_seed,
            workers=config.workers,
            cache=config.cache,
            cache_dir=getattr(config, "cache_dir", None),
        ),
        engine=engine,
    )


def clear_cache():
    """Drop all cached measurements (tests use this for isolation)."""
    _CACHE.clear()
