"""Deep contract rules: seeded adversarial fixtures for each rule.

Every fixture is the *wrong* program the rule exists to catch -- an
impure cached kernel, a closure crossing the pool boundary, an
effectful compute dispatch function -- plus the corrected twin that
must stay clean. Analysis is static; fixtures are never imported.
"""

import json
import textwrap
from pathlib import Path

from repro.qa.flow.analyze import analyze_project, deep_findings

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_pkg(tmp_path, files, name="pkg"):
    root = tmp_path / name
    root.mkdir(exist_ok=True)
    if "__init__.py" not in files:
        (root / "__init__.py").write_text("")
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def findings_for(tmp_path, files):
    return deep_findings([make_pkg(tmp_path, files)], cache_dir=None)


def by_rule(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestCachePurity:
    def test_clock_in_cached_kernel_flagged_with_chain(self, tmp_path):
        findings = findings_for(tmp_path, {
            "kern.py": """\
                import time

                from repro.engine.cache import KernelCache


                def stamp():
                    return time.time()


                class Kernel:
                    def __init__(self):
                        self.cache = KernelCache()

                    def compute(self, key, x):
                        value = x * stamp()
                        self.cache.put(key, value)
                        return value
            """,
        })
        flagged = by_rule(findings, "cache-purity")
        assert len(flagged) == 1
        message = flagged[0].message
        assert "CLOCK" in message
        assert "pkg.kern.Kernel.compute" in message
        # The justifying chain walks through the helper to the atom.
        assert "pkg.kern.stamp" in message
        assert "time.time" in message

    def test_unseeded_rng_in_cached_kernel_flagged(self, tmp_path):
        findings = findings_for(tmp_path, {
            "kern.py": """\
                import numpy as np

                from repro.engine.cache import KernelCache

                CACHE = KernelCache()


                def compute(key, n):
                    value = np.random.rand(n)
                    return CACHE.get_or_compute(key, lambda: value)
            """,
        })
        flagged = by_rule(findings, "cache-purity")
        assert len(flagged) == 1
        assert "RNG_UNSEEDED" in flagged[0].message

    def test_pure_cached_kernel_clean(self, tmp_path):
        findings = findings_for(tmp_path, {
            "kern.py": """\
                from repro.engine.cache import KernelCache


                class Kernel:
                    def __init__(self):
                        self.cache = KernelCache()

                    def compute(self, key, x):
                        value = x * 2
                        self.cache.put(key, value)
                        return value
            """,
        })
        assert by_rule(findings, "cache-purity") == []

    def test_suppression_on_the_cache_site(self, tmp_path):
        findings = findings_for(tmp_path, {
            "kern.py": """\
                import time

                from repro.engine.cache import KernelCache


                class Kernel:
                    def __init__(self):
                        self.cache = KernelCache()

                    def compute(self, key):
                        value = time.time()
                        self.cache.put(key, value)  # qa-ignore[cache-purity]
                        return value
            """,
        })
        assert by_rule(findings, "cache-purity") == []


class TestPoolSafety:
    def test_lambda_submission_flagged(self, tmp_path):
        findings = findings_for(tmp_path, {
            "driver.py": """\
                from repro.engine.parallel import ParallelExecutor


                def fan_out(items):
                    executor = ParallelExecutor(workers=2)
                    return executor.map(lambda x: x * 2, items)
            """,
        })
        flagged = by_rule(findings, "pool-safety")
        assert len(flagged) == 1
        assert "lambda" in flagged[0].message

    def test_nested_function_submission_flagged(self, tmp_path):
        findings = findings_for(tmp_path, {
            "driver.py": """\
                from repro.engine.parallel import ParallelExecutor


                def fan_out(items, scale):
                    def task(x):
                        return x * scale

                    executor = ParallelExecutor(workers=2)
                    return executor.map(task, items)
            """,
        })
        flagged = by_rule(findings, "pool-safety")
        assert len(flagged) == 1
        assert "nested function" in flagged[0].message
        assert "pkg.driver.fan_out.task" in flagged[0].message

    def test_effectful_task_flagged_with_chain(self, tmp_path):
        findings = findings_for(tmp_path, {
            "driver.py": """\
                import numpy as np

                from repro.engine.parallel import ParallelExecutor


                def task(x):
                    return x + np.random.rand()


                def fan_out(items):
                    executor = ParallelExecutor(workers=2)
                    return executor.map(task, items)
            """,
        })
        flagged = by_rule(findings, "pool-safety")
        assert len(flagged) == 1
        assert "RNG_UNSEEDED" in flagged[0].message
        assert "numpy.random.rand" in flagged[0].message

    def test_clean_top_level_task_passes(self, tmp_path):
        findings = findings_for(tmp_path, {
            "driver.py": """\
                from repro.engine.parallel import ParallelExecutor


                def task(x):
                    return x * 2


                def fan_out(items):
                    executor = ParallelExecutor(workers=2)
                    return executor.map(task, items)
            """,
        })
        assert by_rule(findings, "pool-safety") == []


class TestCli:
    DIRTY = {
        "kern.py": """\
            import time

            from repro.engine.cache import KernelCache


            class Kernel:
                def __init__(self):
                    self.cache = KernelCache()

                def compute(self, key):
                    value = time.time()
                    self.cache.put(key, value)
                    return value
        """,
    }

    def test_deep_lint_dirty_tree_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        root = make_pkg(tmp_path, self.DIRTY)
        assert main(["lint", "--deep", str(root)]) == 1
        out = capsys.readouterr().out
        assert "cache-purity" in out

    def test_shallow_lint_misses_deep_finding(self, tmp_path, capsys):
        from repro.cli import main

        root = make_pkg(tmp_path, self.DIRTY)
        # The per-file pass cannot see the cross-module contract; only
        # --deep can. (time.time in a non-repro path is still an
        # obs-discipline finding, so scope to the deep rules.)
        assert main(["lint", str(root)]) in (0, 1)
        out = capsys.readouterr().out
        assert "cache-purity" not in out

    def test_json_format_parses_and_carries_columns(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        root = make_pkg(tmp_path, self.DIRTY)
        assert main(["lint", "--deep", "--format", "json",
                     str(root)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        deep = [f for f in payload if f["rule_id"] == "cache-purity"]
        assert deep
        for finding in payload:
            assert set(finding) == {"path", "line", "col", "rule_id",
                                    "message"}
            assert finding["col"] >= 1

    def test_deep_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        root = make_pkg(tmp_path, {
            "kern.py": "def pure(x):\n    return x + 1\n",
        })
        assert main(["lint", "--deep", str(root)]) == 0

    def test_analyze_effects_cli(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FLOW_CACHE", "")
        assert main(["analyze", "effects", "DiskCache.put",
                     "--root", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "repro.engine.diskcache.DiskCache.put" in out
        assert "IO" in out

    def test_analyze_effects_unknown_symbol_exits_two(
            self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FLOW_CACHE", "")
        assert main(["analyze", "effects", "not_a_symbol",
                     "--root", str(SRC)]) == 2
        assert "no function matches" in capsys.readouterr().err


class TestRealTreeContracts:
    def test_engine_cache_sites_are_pure(self):
        from repro.qa.flow.deeprules import FORBIDDEN_CACHED

        analysis = analyze_project(SRC)
        engine_sites = [s for s in analysis.graph.cache_sites
                        if s.func.startswith("repro.engine.engine.")]
        assert engine_sites
        for site in engine_sites:
            bad = analysis.solver.effects(site.func) & FORBIDDEN_CACHED
            assert not bad, (site.func, bad)


class TestBackendPurity:
    """The compute-dispatch module is held to dispatch purity:
    top-level functions only, no effect the engine's record-attribute
    calls would hide from the analysis."""

    def _findings(self, tmp_path, backend_src):
        root = make_pkg(tmp_path, {
            "stats/__init__.py": "",
            "stats/backend.py": backend_src,
        }, name="repro")
        return by_rule(deep_findings([root], cache_dir=None),
                       "backend-purity")

    def test_clock_in_dispatch_function_flagged_with_chain(self, tmp_path):
        flagged = self._findings(tmp_path, """\
            import time


            def _stamp():
                return time.time()


            def pair_distances(arrays, idx_i, idx_j, band=None):
                return [x * _stamp() for x in arrays]
        """)
        messages = " | ".join(f.message for f in flagged)
        assert "repro.stats.backend.pair_distances" in messages
        assert "CLOCK" in messages
        # The justifying chain walks through the helper to the atom.
        assert "time.time" in messages

    def test_nested_and_method_dispatch_flagged(self, tmp_path):
        flagged = self._findings(tmp_path, """\
            def make_pair_distances(scale):
                def pair_distances(arrays, idx_i, idx_j, band=None):
                    return [scale * len(a) for a in arrays]
                return pair_distances


            class Registry:
                def pair_distances(self, arrays, idx_i, idx_j, band=None):
                    return [len(a) for a in arrays]
        """)
        messages = " | ".join(f.message for f in flagged)
        assert "nested function" in messages
        assert ("repro.stats.backend.make_pair_distances.pair_distances"
                in messages)
        assert "method repro.stats.backend.Registry.pair_distances" \
            in messages

    def test_clean_registry_module_passes(self, tmp_path):
        flagged = self._findings(tmp_path, """\
            _BACKENDS = {"batched": None}


            def pair_distances(arrays, idx_i, idx_j, band=None):
                return [float(len(a)) for a in arrays]


            def kernels():
                # Reading the module's mapping is permitted.
                return _BACKENDS["batched"]
        """)
        assert flagged == []

    def test_same_code_outside_the_registry_module_is_exempt(
            self, tmp_path):
        root = make_pkg(tmp_path, {
            "stats/__init__.py": "",
            "stats/other.py": """\
                import time


                def helper():
                    return time.time()
            """,
        }, name="repro")
        assert by_rule(deep_findings([root], cache_dir=None),
                       "backend-purity") == []

    def test_real_backend_module_is_clean(self):
        analysis = analyze_project(SRC)
        from repro.qa.flow.deeprules import check_backend_purity

        assert check_backend_purity(analysis.index, analysis.solver) == []
