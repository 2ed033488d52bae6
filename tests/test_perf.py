"""Tests for the repro.perf substrate."""

import numpy as np
import pytest

from repro.perf.events import (
    EVENT_GROUPS,
    TABLE_IV_EVENTS,
    event_group,
    sample_value,
    samples_to_series,
    samples_to_totals,
)
from repro.perf.pmu import PMU, _forward_fill
from repro.perf.sampler import IntervalSampler
from repro.perf.session import PerfSession, _workload_seed
from repro.uarch.config import small_test_machine
from repro.uarch.cpu import CPU, CounterSample
from repro.workloads import load_suite
from repro.workloads.base import KernelSpec, Phase, Workload

MB = 1024 * 1024


def make_sample(**overrides):
    fields = dict(
        instructions=1000, cycles=2000.0, branch_instructions=100,
        branch_misses=5, dtlb_loads=500, dtlb_stores=200,
        dtlb_load_misses=10, dtlb_store_misses=4, walk_pending_cycles=90.0,
        stalls_mem_any=300.0, page_faults=2, llc_loads=30, llc_stores=12,
        llc_load_misses=8, llc_store_misses=3, l1_loads=500, l1_stores=200,
        l1_load_misses=50, l1_store_misses=20, l2_accesses=70, l2_misses=42,
    )
    fields.update(overrides)
    return CounterSample(**fields)


def tiny_workload(name="w"):
    return Workload(name, (
        Phase("only", 1.0,
              (KernelSpec("random_uniform", params={"working_set": MB}),),
              branches_per_op=0.3),
    ))


class TestEvents:
    def test_table_iv_has_14_events(self):
        assert len(TABLE_IV_EVENTS) == 14

    def test_groups_are_subsets_of_all(self):
        all_events = set(EVENT_GROUPS["all"])
        for name, group in EVENT_GROUPS.items():
            assert set(group) <= all_events, name

    def test_llc_group(self):
        assert set(event_group("LLC")) == {
            "LLC-loads", "LLC-stores", "LLC-load-misses", "LLC-store-misses"
        }

    def test_tlb_group_includes_walks(self):
        assert "dtlb_walk_pending" in event_group("tlb")

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError, match="unknown event group"):
            event_group("gpu")

    def test_sample_value_mapping(self):
        s = make_sample()
        assert sample_value(s, "cpu-cycles") == 2000.0
        assert sample_value(s, "LLC-load-misses") == 8
        assert sample_value(s, "dtlb_walk_pending") == 90.0

    def test_unknown_event_raises(self):
        with pytest.raises(KeyError, match="unknown PMU event"):
            sample_value(make_sample(), "L1-icache-misses")

    def test_series_and_totals(self):
        samples = [make_sample(llc_loads=i) for i in (1, 2, 3)]
        series = samples_to_series(samples, ["LLC-loads"])
        np.testing.assert_array_equal(series["LLC-loads"], [1, 2, 3])
        totals = samples_to_totals(samples, ["LLC-loads"])
        assert totals["LLC-loads"] == 6.0


class TestPMU:
    def test_no_multiplexing_exact(self):
        pmu = PMU(n_slots=20)
        samples = [make_sample(llc_loads=i) for i in range(5)]
        m = pmu.observe(samples)
        assert not pmu.multiplexing
        assert m.n_groups == 1
        assert m.totals == m.true_totals
        assert m.max_relative_error() == 0.0

    def test_multiplexing_splits_groups(self):
        pmu = PMU(n_slots=4)  # 14 events -> 4 groups
        assert pmu.multiplexing
        samples = [make_sample() for _ in range(16)]
        m = pmu.observe(samples)
        assert m.n_groups == 4
        assert m.duty_cycle == pytest.approx(0.25)

    def test_stationary_stream_unbiased(self):
        # Constant per-interval values: scaling recovers exact totals.
        pmu = PMU(n_slots=7)
        samples = [make_sample() for _ in range(14)]
        m = pmu.observe(samples)
        assert m.max_relative_error() == pytest.approx(0.0, abs=1e-12)

    def test_phase_change_induces_error(self):
        # Non-stationary counters: multiplexed estimate drifts from truth
        # (the paper's footnote 1).
        pmu = PMU(n_slots=7, events=TABLE_IV_EVENTS)
        samples = [make_sample(llc_loads=0) for _ in range(7)] + [
            make_sample(llc_loads=1000) for _ in range(7)
        ]
        m = pmu.observe(samples)
        assert m.relative_error("LLC-loads") > 0.01

    def test_series_forward_filled(self):
        pmu = PMU(n_slots=7)
        samples = [make_sample(llc_loads=i) for i in range(6)]
        m = pmu.observe(samples)
        s = m.series["LLC-loads"]
        assert s.shape == (6,)
        assert not np.any(np.isnan(s))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_slots"):
            PMU(n_slots=0)
        with pytest.raises(ValueError, match="at least one"):
            PMU(events=())
        with pytest.raises(ValueError, match="duplicate"):
            PMU(events=("cpu-cycles", "cpu-cycles"))
        with pytest.raises(ValueError, match="no samples"):
            PMU().observe([])

    def test_forward_fill(self):
        out = _forward_fill(np.array([np.nan, 1.0, np.nan, 3.0]))
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 3.0])
        np.testing.assert_array_equal(
            _forward_fill(np.array([np.nan, np.nan])), [0.0, 0.0]
        )


class TestIntervalSampler:
    def test_collects_all_without_warmup(self):
        cpu = CPU(small_test_machine(), seed=0)
        w = tiny_workload()
        sampler = IntervalSampler(cpu)
        samples = sampler.collect(w.intervals(5, 100, seed=0))
        assert len(samples) == 5

    def test_warmup_dropped_but_executed(self):
        cpu = CPU(small_test_machine(), seed=0)
        w = tiny_workload()
        sampler = IntervalSampler(cpu, warmup_intervals=2)
        samples = sampler.collect(w.intervals(6, 100, seed=0))
        assert len(samples) == 4
        # The warmup warmed the pager: retained samples see fewer faults
        # than a cold run's first interval.
        cold_cpu = CPU(small_test_machine(), seed=0)
        cold = IntervalSampler(cold_cpu).collect(w.intervals(1, 100, seed=0))
        assert samples[0].page_faults <= cold[0].page_faults

    def test_all_warmup_raises(self):
        cpu = CPU(small_test_machine(), seed=0)
        sampler = IntervalSampler(cpu, warmup_intervals=5)
        with pytest.raises(ValueError, match="no samples"):
            sampler.collect(tiny_workload().intervals(3, 100, seed=0))

    def test_negative_warmup_raises(self):
        with pytest.raises(ValueError, match="warmup"):
            IntervalSampler(CPU(small_test_machine()), warmup_intervals=-1)

    def test_collect_series(self):
        cpu = CPU(small_test_machine(), seed=0)
        sampler = IntervalSampler(cpu)
        samples = sampler.collect(tiny_workload().intervals(4, 100, seed=0))
        series = samples_to_series(samples, ["cpu-cycles"])
        totals = samples_to_totals(samples, ["cpu-cycles"])
        assert series["cpu-cycles"].shape == (4,)
        assert totals["cpu-cycles"] == pytest.approx(
            series["cpu-cycles"].sum()
        )


class TestPerfSession:
    def _session(self, **kw):
        defaults = dict(machine=small_test_machine(), n_intervals=6,
                        ops_per_interval=300, warmup_intervals=1, seed=5)
        defaults.update(kw)
        return PerfSession(**defaults)

    def test_run_workload_shape(self):
        m = self._session().run_workload(tiny_workload())
        assert set(m.totals) == set(TABLE_IV_EVENTS)
        assert m.series["cpu-cycles"].shape == (6,)

    def test_vector_order(self):
        m = self._session().run_workload(tiny_workload())
        v = m.vector(("cpu-cycles", "page-faults"))
        assert v[0] == m.totals["cpu-cycles"]
        assert v[1] == m.totals["page-faults"]

    def test_run_suite_matrix(self):
        suite = load_suite("nbench")
        m = self._session().run_suite(suite)
        assert m.matrix.shape == (10, 14)
        assert m.n_workloads == 10
        assert len(m.series["cpu-cycles"]) == 10

    def test_reproducible_across_sessions(self):
        w = tiny_workload()
        a = self._session().run_workload(w)
        b = self._session().run_workload(w)
        assert a.totals == b.totals

    def test_order_independent(self):
        suite = load_suite("nbench")
        full = self._session().run_suite(suite)
        # Measure one workload alone: identical totals.
        name = full.workload_names[3]
        alone = self._session().run_workload(suite.workload(name))
        row = full.matrix[3]
        np.testing.assert_allclose(row, alone.vector(full.events))

    def test_select_events(self):
        m = self._session().run_suite(load_suite("nbench"))
        sub = m.select_events(("LLC-loads", "LLC-stores"))
        assert sub.matrix.shape == (10, 2)
        np.testing.assert_array_equal(
            sub.matrix[:, 0], m.matrix[:, m.events.index("LLC-loads")]
        )
        with pytest.raises(KeyError, match="not measured"):
            m.select_events(("nonexistent",))

    def test_select_workloads(self):
        m = self._session().run_suite(load_suite("nbench"))
        names = m.workload_names[2:5]
        sub = m.select_workloads(names)
        assert sub.workload_names == names
        np.testing.assert_array_equal(sub.matrix, m.matrix[2:5])
        with pytest.raises(KeyError, match="not measured"):
            m.select_workloads(("missing",))

    def test_multiplexed_session_runs(self):
        sess = PerfSession(
            pmu=PMU(n_slots=4), machine=small_test_machine(), n_intervals=8,
            ops_per_interval=200, warmup_intervals=0, seed=1,
        )
        m = sess.run_workload(tiny_workload())
        assert set(m.totals) == set(TABLE_IV_EVENTS)

    def test_multiplexing_perturbs_measurement(self):
        w = tiny_workload()
        exact = self._session(warmup_intervals=0, n_intervals=8).run_workload(w)
        muxed = PerfSession(
            pmu=PMU(n_slots=4), machine=small_test_machine(), n_intervals=8,
            ops_per_interval=300, warmup_intervals=0, seed=5,
        ).run_workload(w)
        diffs = [
            abs(exact.totals[e] - muxed.totals[e])
            for e in TABLE_IV_EVENTS
        ]
        assert max(diffs) > 0  # some event drifted

    def test_validation(self):
        with pytest.raises(ValueError, match="n_intervals"):
            PerfSession(n_intervals=0)
        with pytest.raises(ValueError, match="ops_per_interval"):
            PerfSession(ops_per_interval=0)

    def test_workload_seed_stability(self):
        assert _workload_seed(1, "a") == _workload_seed(1, "a")
        assert _workload_seed(1, "a") != _workload_seed(1, "b")
        assert _workload_seed(1, "a") != _workload_seed(2, "a")
