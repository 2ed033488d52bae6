"""Tests for repro.uarch.cpu."""

import numpy as np
import pytest

from repro.uarch.config import small_test_machine, xeon_e2186g
from repro.uarch.cpu import CPU


class FakeInterval:
    """Minimal trace-interval protocol object."""

    def __init__(self, addresses, is_write=None, branch_sites=None,
                 branch_taken=None, n_instructions=None):
        self.addresses = np.asarray(addresses)
        n = self.addresses.shape[0]
        self.is_write = (
            np.zeros(n, dtype=bool) if is_write is None else np.asarray(is_write)
        )
        self.branch_sites = (
            np.array([], dtype=int) if branch_sites is None
            else np.asarray(branch_sites)
        )
        self.branch_taken = (
            np.array([], dtype=bool) if branch_taken is None
            else np.asarray(branch_taken)
        )
        if n_instructions is None:
            n_instructions = 4 * (n + self.branch_sites.shape[0]) + 10
        self.n_instructions = n_instructions


def random_interval(seed=0, n_mem=2000, n_branch=800):
    rng = np.random.default_rng(seed)
    return FakeInterval(
        addresses=rng.integers(0, 1 << 22, size=n_mem),
        is_write=rng.uniform(size=n_mem) < 0.3,
        branch_sites=rng.integers(0, 500, size=n_branch),
        branch_taken=rng.uniform(size=n_branch) < 0.8,
    )


class TestExecuteInterval:
    def test_counter_conservation(self):
        cpu = CPU(small_test_machine(), seed=0)
        iv = random_interval()
        s = cpu.execute_interval(iv)
        n_mem = iv.addresses.shape[0]
        assert s.dtlb_loads + s.dtlb_stores == n_mem
        assert s.l1_loads + s.l1_stores == n_mem
        assert s.branch_instructions == iv.branch_sites.shape[0]
        assert 0 <= s.branch_misses <= s.branch_instructions
        assert s.llc_load_misses <= s.llc_loads
        assert s.llc_store_misses <= s.llc_stores

    def test_cycles_positive_and_stalls_bounded(self):
        cpu = CPU(small_test_machine(), seed=0)
        s = cpu.execute_interval(random_interval())
        assert s.cycles > 0
        assert 0 <= s.stalls_mem_any <= s.cycles

    def test_ipc_sane(self):
        cpu = CPU(xeon_e2186g(), seed=0)
        # Cache-friendly trace: small working set, biased branches.
        rng = np.random.default_rng(1)
        iv = FakeInterval(
            addresses=rng.integers(0, 8192, size=3000),
            branch_sites=rng.integers(0, 50, size=500),
            branch_taken=rng.uniform(size=500) < 0.95,
        )
        cpu.execute_interval(iv)   # warm caches
        s = cpu.execute_interval(iv)
        assert 0.5 < s.ipc < 4.0

    def test_warm_caches_reduce_misses(self):
        cpu = CPU(small_test_machine(), seed=0)
        rng = np.random.default_rng(2)
        iv = FakeInterval(addresses=rng.integers(0, 4096, size=1000))
        cold = cpu.execute_interval(iv)
        warm = cpu.execute_interval(iv)
        assert warm.l1_load_misses < cold.l1_load_misses
        assert warm.page_faults == 0

    def test_instructions_below_trace_ops_raises(self):
        cpu = CPU(small_test_machine())
        iv = FakeInterval(addresses=np.arange(10), n_instructions=5)
        with pytest.raises(ValueError, match="n_instructions"):
            cpu.execute_interval(iv)

    def test_walk_cycles_flow_into_sample(self):
        cpu = CPU(small_test_machine())
        # Touch many distinct pages: guaranteed STLB misses.
        iv = FakeInterval(addresses=np.arange(0, 4096 * 200, 4096))
        s = cpu.execute_interval(iv)
        assert s.walk_pending_cycles > 0
        assert s.stalls_mem_any >= s.walk_pending_cycles

    def test_page_faults_counted_once(self):
        cpu = CPU(small_test_machine())
        iv = FakeInterval(addresses=np.tile(np.arange(0, 4096 * 10, 4096), 5))
        s = cpu.execute_interval(iv)
        assert s.page_faults == 10


def cpu_state(cpu):
    """Every piece of simulator state an interval can change."""
    hier = cpu.hierarchy
    caches = [(c.stats.snapshot(), [list(w.items()) for w in c._sets])
              for c in (hier.l1, hier.l2, hier.llc)]
    tlbs = [([list(w.items()) for w in t._sets], t.hits, t.misses)
            for t in (cpu.tlb.dtlb, cpu.tlb.stlb)]
    return (caches, tlbs, vars(cpu.predictor),
            (cpu.pager.faults, list(cpu.pager._resident)))


class TestIntervalValidation:
    @pytest.mark.parametrize("bad, field", [
        # 3 branch sites, 2 outcomes: used to raise only after the pager,
        # TLB and caches had already taken the interval's accesses.
        (dict(branch_sites=[1, 2, 3], branch_taken=[True, False]),
         "branch_taken"),
        (dict(addresses=np.arange(8) * 4096.0), "addresses"),
        (dict(addresses=np.zeros((2, 4), dtype=int)), "addresses"),
        (dict(is_write=np.zeros(7, dtype=bool)), "is_write"),
        (dict(branch_sites=[1.5, 2.0], branch_taken=[True, True]),
         "branch_sites"),
        (dict(branch_sites=[1, 2], branch_taken=[0.5, 1.0]),
         "branch_taken"),
    ])
    def test_rejected_interval_leaves_cpu_untouched(self, bad, field):
        fields = dict(addresses=np.arange(8) * 4096,
                      is_write=np.zeros(8, dtype=bool),
                      branch_sites=[1, 2], branch_taken=[True, False])
        fields.update(bad)
        iv = FakeInterval(n_instructions=100, **fields)
        cpu = CPU(small_test_machine(), seed=0)
        with pytest.raises(ValueError, match=f"interval.{field}"):
            cpu.execute_interval(iv)
        assert cpu_state(cpu) == cpu_state(CPU(small_test_machine(), seed=0))

    def test_empty_fields_of_any_dtype_accepted(self):
        cpu = CPU(small_test_machine())
        s = cpu.execute_interval(FakeInterval(addresses=[], is_write=[],
                                              branch_sites=[],
                                              branch_taken=[]))
        assert s.l1_loads == s.branch_instructions == 0


class TestRunAndReset:
    def test_run_returns_sample_per_interval(self):
        cpu = CPU(small_test_machine(), seed=0)
        intervals = [random_interval(seed=i, n_mem=300, n_branch=100)
                     for i in range(5)]
        samples = cpu.run(intervals)
        assert len(samples) == 5

    def test_reset_restores_cold_state(self):
        cpu = CPU(small_test_machine(), seed=0)
        iv = random_interval(seed=3, n_mem=500, n_branch=200)
        first = cpu.execute_interval(iv)
        cpu.reset()
        again = cpu.execute_interval(iv)
        assert again.l1_load_misses == first.l1_load_misses
        assert again.page_faults == first.page_faults
        assert again.branch_misses == first.branch_misses

    def test_deterministic_given_seed(self):
        iv = random_interval(seed=4)
        s1 = CPU(small_test_machine(), seed=9).execute_interval(iv)
        s2 = CPU(small_test_machine(), seed=9).execute_interval(iv)
        assert s1 == s2
