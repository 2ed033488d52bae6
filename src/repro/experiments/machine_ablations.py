"""Machine-sensitivity ablations.

The Perspector scores are functions of (suite, machine): the same suite
scores differently on different hardware, which is exactly why the
paper pins Table II so precisely. These ablations vary the simulated
machine and measure how the scores of one suite move:

* **cache replacement policy** (LRU / FIFO / random);
* **hardware prefetcher** (on / off);
* **branch predictor** (static / bimodal / gshare / tournament).

Each knob changes the measured counters, so score shifts here quantify
how machine-specific a Perspector verdict is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.matrix import CounterMatrix
from repro.core.perspector import Perspector
from repro.perf.session import PerfSession
from repro.uarch.config import BranchConfig, xeon_e2186g
from repro.workloads import load_suite


@dataclass(frozen=True)
class MachineAblationResult:
    """Scorecards of one suite across machine variants.

    Attributes
    ----------
    suite:
        Measured suite.
    by_policy:
        Replacement policy -> SuiteScorecard.
    by_prefetcher:
        ``True``/``False`` -> SuiteScorecard.
    by_predictor:
        Predictor kind -> SuiteScorecard.
    """

    suite: str
    by_policy: dict
    by_prefetcher: dict
    by_predictor: dict


def _score_on(machine, suite, n_intervals, ops_per_interval, seed,
              metric_seed):
    session = PerfSession(
        machine=machine, n_intervals=n_intervals,
        ops_per_interval=ops_per_interval, warmup_intervals=4,
        warmup_boost=6, seed=seed,
    )
    matrix = CounterMatrix.from_measurement(session.run_suite(suite))
    return Perspector(seed=metric_seed).score(matrix)


def run(suite_name="sgxgauge", n_intervals=12, ops_per_interval=800,
        seed=7, metric_seed=3):
    """Score one suite across machine variants.

    Returns
    -------
    MachineAblationResult
    """
    suite = load_suite(suite_name)
    base = xeon_e2186g()

    by_policy = {
        policy: _score_on(base.with_policy(policy), suite, n_intervals,
                          ops_per_interval, seed, metric_seed)
        for policy in ("lru", "fifo", "random")
    }
    by_prefetcher = {
        enabled: _score_on(
            replace(base, enable_prefetcher=enabled), suite, n_intervals,
            ops_per_interval, seed, metric_seed,
        )
        for enabled in (True, False)
    }
    by_predictor = {
        kind: _score_on(
            replace(base, branch=BranchConfig(
                kind=kind, table_bits=base.branch.table_bits,
                history_bits=base.branch.history_bits,
                mispredict_penalty=base.branch.mispredict_penalty,
            )),
            suite, n_intervals, ops_per_interval, seed, metric_seed,
        )
        for kind in ("static", "bimodal", "gshare", "tournament")
    }
    return MachineAblationResult(
        suite=suite_name,
        by_policy=by_policy,
        by_prefetcher=by_prefetcher,
        by_predictor=by_predictor,
    )


def _table(rows):
    header = (
        f"{'variant':<14} {'cluster':>9} {'trend':>9} {'coverage':>9} "
        f"{'spread':>9}"
    )
    lines = [header, "-" * len(header)]
    for label, card in rows:
        lines.append(
            f"{label:<14} {card.cluster:>9.4f} {card.trend:>9.1f} "
            f"{card.coverage:>9.4f} {card.spread:>9.4f}"
        )
    return "\n".join(lines)


def render(result):
    parts = [f"machine-sensitivity ablations on {result.suite}", ""]
    parts.append("replacement policy:")
    parts.append(_table(sorted(result.by_policy.items())))
    parts.append("")
    parts.append("hardware prefetcher:")
    parts.append(_table(
        [("on" if k else "off", v)
         for k, v in sorted(result.by_prefetcher.items(), reverse=True)]
    ))
    parts.append("")
    parts.append("branch predictor:")
    parts.append(_table(sorted(result.by_predictor.items())))
    return "\n".join(parts)
