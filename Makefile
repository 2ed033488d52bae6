# Development targets. `make qa` is the pre-merge gate documented in
# benchmarks/README.md: the in-tree static-analysis pass (`lint-deep`:
# the per-file rules plus the whole-program effect analyzer, one run
# that parses each file once; `make lint` is the per-file pass alone),
# ruff, mypy (both skipped with a notice when not installed), and the
# bit-for-bit determinism harness: one table of rows proving scoring
# and the sliced subset search bit-identical across cache, pool
# (workers=2), disk tier and tracer; the scoring daemon serving the
# CLI's exact bits cold, warm, concurrently and after a restart; and
# history recording changing no bit -- ending with a leak check.
# `make bench` runs the paper-artifact benches in benchmarks/ (each
# regenerates one figure or table at the quick preset and asserts the
# paper's claims about it).
# `make bench-e2e` runs the end-to-end benchmark that BENCHMARK.json
# declares (bench/run.py: four CLI/daemon workloads, outputs checked
# against bench/goldens.json, end-to-end metrics only, tracing off);
# `make bench-trace` runs it with one traced pass per workload added,
# ending with the per-layer metrics.
# `make rebless` rewrites the tier-1 golden files (counters, scores,
# traces) after a deliberate science change, shows which moved and, if
# a bit the disk tier depends on did, reminds the author to bump the
# disk tier's FORMAT_VERSION.

PYTHON ?= python
RUN = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON)

.PHONY: qa lint lint-deep ruff mypy determinism test bench bench-e2e \
	bench-trace rebless

qa: lint-deep ruff mypy determinism
	@echo "qa: all gates passed"

lint:
	$(RUN) -m repro.qa.lint src/repro

lint-deep:
	$(RUN) -m repro.qa.lint --deep src/repro

ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

mypy:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

determinism:
	$(RUN) -m repro.qa.determinism --workers 2

test:
	$(RUN) -m pytest -x -q

bench:
	$(RUN) -m pytest benchmarks -q

bench-e2e:
	$(PYTHON) bench/run.py --trace 0

bench-trace:
	$(PYTHON) bench/run.py

# Each golden test file rewrites its tests/data JSON when run as a
# script; the diff stat names the files whose pinned bits moved. The
# disk tier keys measured suites and scorecards by suite name, so an
# existing --cache-dir keeps serving old bits after a move in the score
# or trace goldens or in golden_counters.json's suites / full_suites
# sections, hence the FORMAT_VERSION reminder. The direct-CPU `cpu`
# fingerprints feed no disk-tier entry and trigger no reminder.
DISK_TIER_GOLDENS = tests/data/golden_scores.json tests/data/golden_traces.json
DISK_TIER_COUNTERS_MOVED = import json, subprocess, sys; \
	path = "tests/data/golden_counters.json"; \
	head = subprocess.run(["git", "show", "HEAD:" + path], \
	                      capture_output=True, text=True).stdout; \
	old, new = json.loads(head or "{}"), json.load(open(path)); \
	sys.exit(0 if any(old.get(k) != new.get(k) \
	                  for k in ("suites", "full_suites")) else 1)

rebless:
	$(RUN) tests/test_golden_counters.py
	$(RUN) tests/test_golden_scores.py
	$(RUN) tests/test_golden_traces.py
	git diff --stat -- tests/data
	@if ! git diff --quiet -- $(DISK_TIER_GOLDENS) || \
		$(PYTHON) -c '$(DISK_TIER_COUNTERS_MOVED)'; then \
		echo "rebless: disk-tier goldens moved; bump" \
			"repro.engine.diskcache.FORMAT_VERSION so existing" \
			"--cache-dir tiers stop serving old measured suites and" \
			"scorecards"; \
	fi
