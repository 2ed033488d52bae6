"""Shared experiment infrastructure.

All the figure/table drivers need the same thing first: measured counter
matrices (with series) for some suites, at consistent trace-length
settings. :func:`measure_suites` provides that with an in-process cache,
so a bench session that regenerates Fig. 3, Fig. 4 and Fig. 6 simulates
each suite exactly once.

The CLI and the scoring daemon share every scoring request's body
here, adapting only arguments in and text or JSON out: the vocabulary
(:data:`REQUESTS`), its checks (:func:`check_request`) and the jobs
(:func:`score_job`, :func:`compare_job`, :func:`subset_job`).
:func:`score_suite` is ``repro score``'s path: with a disk tier it puts
a scorecard tier in front of the score job's engine half, so a repeat
request reads one small file. This module imports neither numpy nor the
simulator until a suite is actually measured or scored.

Two preset configurations:

* :func:`ExperimentConfig.quick` -- short traces for CI/benches
  (seconds per suite);
* :func:`ExperimentConfig.full` -- the settings used for the numbers in
  EXPERIMENTS.md (minutes for all six suites).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import publish, span
from repro.workloads import available_suites, load_suite

_CACHE = {}

#: :class:`repro.core.focus.EventFocus`'s values, without its numpy.
FOCUS_VALUES = ("all", "llc", "tlb", "branch", "core")

#: The candidate generators of :class:`repro.engine.SubsetSearch`.
SEARCH_METHODS = ("lhs", "random", "swap")

#: Each scoring request's fields and defaults (a suite must be given).
REQUESTS = {
    "score": {"suite": None, "focus": "all"},
    "compare": {"suites": None, "focus": "all"},
    "subset": {"suite": None, "size": 8, "search": None, "method": "lhs"},
}


class RequestError(ValueError):
    """A scoring request that fails a check: one ``repro <cmd>: ...``
    usage line in the CLI, a 400 from the daemon."""


def _require_int(request, name, lo, flag):
    value = request[name]
    # ``bool`` is not an int here, whatever Python says.
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise RequestError(f"{flag(name)} must be an int >= {lo}, got "
                           f"{value!r}")


def check_request(command, request, flag=repr):
    """Raise :class:`RequestError` unless ``request`` is a valid
    ``command`` request, value types included (the daemon's come from
    JSON), checked against the suite model before anything is
    measured. ``flag`` renders an argument's name (``--size`` in the
    CLI, ``'size'`` for the daemon)."""
    if command == "compare":
        suites = request["suites"]
        if not isinstance(suites, list) or len(suites) < 2:
            raise RequestError(f"compare needs at least 2 suites, got "
                               f"{suites!r}")
    else:
        suites = [request["suite"]]
    known = available_suites()
    for name in suites:
        if name not in known:
            raise RequestError(f"unknown suite {name!r}; expected one of "
                               f"{sorted(known)}")
    if "focus" in request and request["focus"] not in FOCUS_VALUES:
        raise RequestError(f"unknown focus {request['focus']!r}; expected "
                           f"one of {list(FOCUS_VALUES)}")
    if command != "subset":
        return
    _require_int(request, "size", 2, flag)
    if request["search"] is not None:
        _require_int(request, "search", 1, flag)
    if request["method"] not in SEARCH_METHODS:
        raise RequestError(f"unknown method {request['method']!r}; "
                           f"expected one of {list(SEARCH_METHODS)}")
    size, n_workloads = request["size"], len(load_suite(suites[0]))
    if size > n_workloads:
        raise RequestError(f"{flag('size')} {size} exceeds the "
                           f"{n_workloads} workloads of {suites[0]}")


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
    the simulator; its metrics snapshot is the disk tier's movement
    during that read. A miss runs :func:`score_job`'s engine half,
    unchanged, and stores its result. The tier never changes a printed
    or recorded score bit.
    """
    config = config if config is not None else ExperimentConfig.full()
    key = (name, config.measurement_key())
    card, matrix, metrics = _score_suite(
        name, config, focus, _disk_for(config), _CACHE.get(key),
    )
    if matrix is not None:
        _CACHE[key] = matrix
    return card, metrics


def _score_suite(name, config, focus, disk, matrix):
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
        if disk is not None:
            from repro.engine.cache import MISS, content_key
            from repro.obs.metrics import MetricsSnapshot

            skey = content_key("scorecard", name, config.measurement_key(),
                               config.metric_seed, focus)
            # The tier is shared across the process: report this
            # lookup's own counts, not the running totals.
            before = disk.metrics.snapshot()
            cached = disk.get(skey)
            if cached is not MISS:
                sp.set(source="disk")
                after = disk.metrics.snapshot()
                return cached, None, MetricsSnapshot(after.delta(before),
                                                     dict(after.kinds))
        if matrix is None:
            matrix, _session = _measure_suite(name, config, disk, None)
        card, metrics = _score_measured(config, matrix, focus,
                                        _engine_for(config, None))
        sp.set(source="scored")
        if skey is not None:
            disk.put(skey, card)
    return card, matrix, metrics


def _engine_for(config, engine):
    """``engine``, or a fresh one for ``config``: an explicit engine's
    metrics snapshot reaches the history recorder, and the engine is a
    pure accelerator, so the bits are identical either way."""
    if engine is not None:
        return engine
    from repro.engine.engine import Engine

    return Engine.from_config(config)


def _score_measured(config, matrix, focus, engine):
    """The engine half of ``repro score``: ``(card, metrics)`` of one
    measured suite scored through ``engine``."""
    card = perspector_for(config, engine=engine).score(matrix, focus=focus)
    return card, engine.metrics.snapshot()


def score_job(config, request, engine=None):
    """One checked ``score`` request (:data:`REQUESTS`) through
    ``engine`` (a fresh one when ``None``): the published scorecard.
    The daemon's path, and the CLI's when the request carries
    ``history_windows``, whose trajectory needs the measured matrix
    that :func:`score_suite`'s scorecard tier skips."""
    suite = request["suite"]
    matrix = measure_suites([suite], config)[suite]
    engine = _engine_for(config, engine)
    card, metrics = _score_measured(config, matrix, request["focus"],
                                    engine)
    publish("scorecard", card)
    if request.get("history_windows"):
        from repro.obs.history import window_trajectory

        publish("windows", window_trajectory(
            matrix, seed=config.metric_seed,
            n_windows=request["history_windows"], engine=engine,
        ))
        metrics = engine.metrics.snapshot()
    publish("metrics", metrics)
    return card


def compare_job(config, request, engine=None):
    """One checked ``compare`` request through ``engine``: the
    published, jointly normalized comparison."""
    suites = request["suites"]
    matrices = measure_suites(suites, config)
    engine = _engine_for(config, engine)
    comparison = perspector_for(config, engine=engine).compare(
        *[matrices[s] for s in suites], focus=request["focus"])
    for card in comparison.scorecards:
        publish("scorecard", card)
    publish("metrics", engine.metrics.snapshot())
    return comparison


def subset_job(config, request, engine=None):
    """One checked ``subset`` request through ``engine``: the published
    ``("search", SearchResult)`` of the sliced search when ``search``
    is set, else ``("report", SubsetReport)`` of one LHS subset."""
    from repro.core.subset import LHSSubsetGenerator
    from repro.engine.subset_eval import SubsetEvaluator, SubsetSearch

    suite, size, seed = request["suite"], request["size"], config.metric_seed
    matrix = measure_suites([suite], config)[suite]
    engine = _engine_for(config, engine)
    if request["search"] is not None:
        evaluator = SubsetEvaluator(matrix, seed=seed, engine=engine)
        kind, result = "search", SubsetSearch(
            matrix, size, seed=seed, evaluator=evaluator,
        ).search(request["search"], method=request["method"])
        publish("search_result", result)
    else:
        kind, result = "report", LHSSubsetGenerator(
            subset_size=size, seed=seed,
        ).report(matrix, seed=seed, engine=engine)
        publish("subset_report", result)
    publish("metrics", engine.metrics.snapshot())
    return kind, result


_TIERS_BY_DIR = {}


def _disk_for(config):
    """The measurement disk tier for a config (one
    :class:`~repro.engine.diskcache.DiskCache` per directory, shared
    with the scoring engine's tier -- same root, same key space)."""
    cache_dir = getattr(config, "cache_dir", None)
    if not cache_dir or not getattr(config, "cache", True):
        return None
    if cache_dir not in _TIERS_BY_DIR:
        from repro.engine.diskcache import DiskCache

        _TIERS_BY_DIR[cache_dir] = DiskCache(cache_dir)
    return _TIERS_BY_DIR[cache_dir]


def perspector_for(config, engine=None):
    """A :class:`~repro.core.perspector.Perspector` wired to an
    :class:`ExperimentConfig`'s scoring knobs (``metric_seed``,
    ``workers``, ``cache``). Passing ``engine`` scores through a shared
    (already-warm) :class:`~repro.engine.Engine` instead of building a
    private one -- the scoring daemon's path; the engine is a pure
    accelerator, so the scorecard bits are identical either way."""
    from repro.core.perspector import Perspector, PerspectorConfig

    return Perspector(
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
