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
# ending with the per-layer metrics. Both first delete src/repro's
# bytecode caches and run with PYTHONDONTWRITEBYTECODE=1, so every
# child compiles each module it imports from source, as the benchmark
# pipeline's children do: a disk-warm `repro score` reads ~65 ms that
# way against ~49 ms with bytecode present, and local numbers should
# read like the pipeline's.
# `make rebless` rewrites the tier-1 golden files (counters, scores,
# traces) after a deliberate science change and shows which moved. An
# existing --cache-dir needs no step: its entries carry the digest of
# the source that wrote them and read as misses under any other code.

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

NO_BYTECODE = find src/repro -name __pycache__ -type d -prune \
	-exec rm -rf {} + && PYTHONDONTWRITEBYTECODE=1

bench-e2e:
	$(NO_BYTECODE) $(PYTHON) bench/run.py --trace 0

bench-trace:
	$(NO_BYTECODE) $(PYTHON) bench/run.py

# Each golden test file rewrites its tests/data JSON when run as a
# script; the diff stat names the files whose pinned bits moved.
rebless:
	$(RUN) tests/test_golden_counters.py
	$(RUN) tests/test_golden_scores.py
	$(RUN) tests/test_golden_traces.py
	git diff --stat -- tests/data
