"""Score reports: per-suite scorecards and cross-suite comparisons.

These are the presentation objects the experiments print -- the rows of
Fig. 3 as text tables instead of bar charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The four Section III scores, in the order reports and records list them.
SCORES = ("cluster", "trend", "coverage", "spread")

#: score name -> (polarity string, better-direction sign for ranking)
SCORE_POLARITY = {
    "cluster": ("lower is better", -1),
    "trend": ("higher is better", +1),
    "coverage": ("higher is better", +1),
    "spread": ("lower is better", -1),
}


@dataclass(frozen=True)
class SuiteScorecard:
    """The four Perspector scores for one suite under one focus.

    Attributes
    ----------
    suite_name:
        Suite the scores describe.
    focus:
        Event-focus label (``all`` / ``llc`` / ``tlb`` / ...).
    cluster / trend / coverage / spread:
        The four scores (floats). Detail objects (per-k silhouettes,
        per-event trends, ...) ride along in ``details``.
    details:
        ``{score_name: result_object}`` for drill-down.
    """

    suite_name: str
    focus: str
    cluster: float
    trend: float
    coverage: float
    spread: float
    details: dict = field(default_factory=dict)

    def as_dict(self):
        """Plain-dict view (for CSV/JSON export)."""
        return {
            "suite": self.suite_name,
            "focus": self.focus,
            "cluster": self.cluster,
            "trend": self.trend,
            "coverage": self.coverage,
            "spread": self.spread,
        }

    def score(self, name):
        if name not in SCORE_POLARITY:
            raise KeyError(
                f"unknown score {name!r}; expected one of "
                f"{sorted(SCORE_POLARITY)}"
            )
        return getattr(self, name)

    def __str__(self):
        return (
            f"{self.suite_name} [{self.focus}] "
            f"cluster={self.cluster:.4f} trend={self.trend:.4f} "
            f"coverage={self.coverage:.4f} spread={self.spread:.4f}"
        )


@dataclass(frozen=True)
class SuiteComparison:
    """Scorecards for several suites under a shared (joint) normalization."""

    scorecards: tuple
    focus: str

    def __post_init__(self):
        if not self.scorecards:
            raise ValueError("comparison needs at least one scorecard")

    @property
    def suite_names(self):
        return [c.suite_name for c in self.scorecards]

    def best(self, score_name):
        """The suite winning on one score, respecting polarity."""
        _, sign = SCORE_POLARITY[score_name]
        return max(
            self.scorecards, key=lambda c: sign * c.score(score_name)
        ).suite_name

    def ranking(self, score_name):
        """Suites ordered best-to-worst on one score."""
        _, sign = SCORE_POLARITY[score_name]
        ordered = sorted(
            self.scorecards, key=lambda c: -sign * c.score(score_name)
        )
        return [c.suite_name for c in ordered]

    def as_rows(self):
        """Plain list-of-dicts view (for CSV/JSON export)."""
        return [c.as_dict() for c in self.scorecards]

    def to_csv(self):
        """CSV text of the comparison (one row per suite)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer,
            fieldnames=["suite", "focus", "cluster", "trend", "coverage",
                        "spread"],
        )
        writer.writeheader()
        for row in self.as_rows():
            writer.writerow(row)
        return buffer.getvalue()

    def bars(self, score_name, width=40):
        """ASCII bar chart of one score across suites (the Fig. 3 bar
        panels as text). Bars are annotated with the winner arrow."""
        polarity, sign = SCORE_POLARITY[score_name]
        values = {c.suite_name: c.score(score_name)
                  for c in self.scorecards}
        peak = max(abs(v) for v in values.values()) or 1.0
        best = self.best(score_name)
        lines = [f"{score_name} ({polarity}):"]
        for name, value in values.items():
            bar = "#" * max(1, int(round(abs(value) / peak * width)))
            marker = "  <- best" if name == best else ""
            lines.append(f"  {name:<12} |{bar:<{width}}| "
                         f"{value:.4f}{marker}")
        return "\n".join(lines)

    def table(self):
        """Fixed-width text table (the Fig. 3 data as rows)."""
        header = (
            f"{'suite':<12} {'cluster':>9} {'trend':>9} "
            f"{'coverage':>9} {'spread':>9}"
        )
        lines = [f"focus = {self.focus}", header, "-" * len(header)]
        for c in self.scorecards:
            lines.append(
                f"{c.suite_name:<12} {c.cluster:>9.4f} {c.trend:>9.4f} "
                f"{c.coverage:>9.4f} {c.spread:>9.4f}"
            )
        footer = (
            "(cluster: lower=better, trend: higher=better, "
            "coverage: higher=better, spread: lower=better)"
        )
        lines.append(footer)
        return "\n".join(lines)

    def __str__(self):
        return self.table()
