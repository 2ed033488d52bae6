"""Whole-program effect analyzer: indexing, resolution, fixpoint.

Fixture packages are written to ``tmp_path`` and indexed statically --
nothing is imported, so fixtures may reference ``repro.engine.*``
freely. The real-tree checks at the bottom pin the analyzer's cost and
the facts the deep gate depends on (pool targets resolved, substrate
masks applied).
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.qa.flow.analyze import analyze_project, package_root
from repro.qa.flow.effects import (
    CLOCK,
    IO,
    NONDET_ITERATION,
    RNG_UNSEEDED,
    WRITES_GLOBAL,
)
from repro.qa.flow.indexer import index_project, iter_module_files

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


class TestIndexer:
    def test_package_module_naming(self, tmp_path):
        root = make_pkg(tmp_path, {
            "mod.py": "A = 1\n",
            "sub/__init__.py": "",
            "sub/inner.py": "B = 2\n",
        })
        names = {m for m, _, _ in iter_module_files(root)}
        assert names == {"pkg", "pkg.mod", "pkg.sub", "pkg.sub.inner"}

    def test_hidden_directories_excluded(self, tmp_path):
        root = make_pkg(tmp_path, {
            "mod.py": "A = 1\n",
            ".cache/junk.py": "B = 2\n",
        })
        names = {m for m, _, _ in iter_module_files(root)}
        assert names == {"pkg", "pkg.mod"}

    def test_non_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_module_files(tmp_path / "absent"))

    def test_incremental_cache_warm_and_invalidation(self, tmp_path):
        root = make_pkg(tmp_path, {
            "a.py": "A = 1\n",
            "b.py": "B = 2\n",
        })
        cache_dir = tmp_path / "summaries"
        cold = index_project(root, cache_dir=cache_dir)
        assert cold.stats.extracted == 3  # __init__, a, b
        assert cold.stats.cached == 0

        warm = index_project(root, cache_dir=cache_dir)
        assert warm.stats.extracted == 0
        assert warm.stats.cached == 3

        (root / "a.py").write_text("A = 2\n")
        touched = index_project(root, cache_dir=cache_dir)
        assert touched.stats.extracted == 1
        assert touched.stats.cached == 2

    def test_cache_roundtrip_preserves_analysis(self, tmp_path):
        root = make_pkg(tmp_path, {
            "m.py": """\
                import time

                def slow():
                    return time.time()

                def outer():
                    return slow()
            """,
        })
        cache_dir = tmp_path / "summaries"
        first = analyze_project(root, cache_dir=cache_dir)
        second = analyze_project(root, cache_dir=cache_dir)
        assert second.index.stats.extracted == 0
        for analysis in (first, second):
            assert CLOCK in analysis.solver.effects("pkg.m.outer")

    def test_package_root_walks_up(self):
        assert package_root(SRC / "engine") == SRC
        assert package_root(SRC) == SRC


class TestEffects:
    def solve(self, tmp_path, files):
        return analyze_project(make_pkg(tmp_path, files))

    def test_intrinsic_atoms(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                import time

                def clocky():
                    return time.time()

                def ioy(path):
                    with open(path) as f:
                        return f.read()

                def pure(x):
                    return x + 1
            """,
        })
        assert a.solver.effects("pkg.m.clocky") == {CLOCK}
        assert a.solver.effects("pkg.m.ioy") == {IO}
        assert a.solver.effects("pkg.m.pure") == set()

    def test_transitive_fixpoint_and_chain(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                import time

                def h():
                    return time.time()

                def g():
                    return h()

                def f():
                    return g()
            """,
        })
        assert CLOCK in a.solver.effects("pkg.m.f")
        chain = a.solver.chain("pkg.m.f", CLOCK)
        assert [s.qualname for s in chain] == \
            ["pkg.m.f", "pkg.m.g", "pkg.m.h"]
        assert "time.time" in chain[-1].detail

    def test_partial_edge_carries_effects(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                from functools import partial

                import numpy as np

                def worker(n):
                    return np.random.rand(n)

                def build():
                    return partial(worker, 3)
            """,
        })
        assert RNG_UNSEEDED in a.solver.effects("pkg.m.build")

    def test_self_method_resolution(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                import time

                class A:
                    def outer(self):
                        return self.inner()

                    def inner(self):
                        return time.time()
            """,
        })
        assert CLOCK in a.solver.effects("pkg.m.A.outer")

    def test_attr_type_method_resolution(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                from pkg.other import Helper

                class Driver:
                    def __init__(self):
                        self.helper = Helper()

                    def go(self, path):
                        return self.helper.run(path)
            """,
            "other.py": """\
                class Helper:
                    def run(self, path):
                        return open(path).read()
            """,
        })
        assert IO in a.solver.effects("pkg.m.Driver.go")

    def test_base_class_method_resolution(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                import time

                class Base:
                    def tick(self):
                        return time.time()

                class Child(Base):
                    def use(self):
                        return self.tick()
            """,
        })
        assert CLOCK in a.solver.effects("pkg.m.Child.use")

    def test_reexport_chasing(self, tmp_path):
        a = self.solve(tmp_path, {
            "__init__.py": "from pkg.impl import helper\n",
            "impl.py": """\
                import time

                def helper():
                    return time.time()
            """,
            "user.py": """\
                from pkg import helper

                def use():
                    return helper()
            """,
        })
        assert CLOCK in a.solver.effects("pkg.user.use")

    def test_lazy_export_chasing(self, tmp_path):
        a = self.solve(tmp_path, {
            "__init__.py": """\
                from repro._lazy import lazy_exports

                __all__, __getattr__, __dir__ = lazy_exports(__name__, {
                    "pkg.impl": ("helper",),
                })
            """,
            "impl.py": """\
                import time

                def helper():
                    return time.time()
            """,
            "user.py": """\
                import pkg

                def use():
                    return pkg.helper()
            """,
        })
        assert CLOCK in a.solver.effects("pkg.user.use")

    def test_default_rng_seeded_vs_unseeded(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                import numpy as np

                def seeded(seed):
                    return np.random.default_rng(seed).random()

                def unseeded():
                    return np.random.default_rng().random()
            """,
        })
        assert RNG_UNSEEDED not in a.solver.effects("pkg.m.seeded")
        assert RNG_UNSEEDED in a.solver.effects("pkg.m.unseeded")

    def test_global_write_and_nondet_iteration(self, tmp_path):
        a = self.solve(tmp_path, {
            "m.py": """\
                STATE = {}

                def poke(k, v):
                    STATE[k] = v

                def visit(items):
                    return [x for x in set(items)]
            """,
        })
        assert WRITES_GLOBAL in a.solver.effects("pkg.m.poke")
        assert NONDET_ITERATION in a.solver.effects("pkg.m.visit")

    def test_sanctioned_mask_stops_propagation(self, tmp_path):
        # Module names must carry the repro.obs. prefix for the mask,
        # so the fixture package is literally named "repro".
        a = analyze_project(make_pkg(tmp_path, {
            "obs/__init__.py": "",
            "obs/util.py": """\
                import time

                def stamp():
                    return time.time()
            """,
            "core2.py": """\
                from repro.obs.util import stamp

                def caller():
                    return stamp()
            """,
        }, name="repro"))
        assert CLOCK in a.solver.effects("repro.obs.util.stamp")
        assert CLOCK not in a.solver.effects("repro.core2.caller")

    def test_rng_is_never_masked(self, tmp_path):
        a = analyze_project(make_pkg(tmp_path, {
            "obs/__init__.py": "",
            "obs/util.py": """\
                import numpy as np

                def draw():
                    return np.random.rand()
            """,
            "core2.py": """\
                from repro.obs.util import draw

                def caller():
                    return draw()
            """,
        }, name="repro"))
        assert RNG_UNSEEDED in a.solver.effects("repro.core2.caller")


class TestRealTree:
    def test_cold_analysis_under_five_seconds(self):
        start = time.monotonic()
        analysis = analyze_project(SRC)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"cold deep analysis took {elapsed:.1f}s"
        assert analysis.index.stats.extracted > 50

    def test_every_pool_target_is_top_level(self):
        analysis = analyze_project(SRC)
        assert analysis.graph.pool_sites
        for site in analysis.graph.pool_sites:
            assert site.target_kind == "func", site
            record = analysis.graph.record(site.target)
            assert not record.nested and record.cls is None, site

    def test_effects_report_renders_chain(self):
        from repro.qa.flow.analyze import effects_report

        analysis = analyze_project(SRC)
        report = effects_report("DiskCache.put", analysis=analysis)
        assert "repro.engine.diskcache.DiskCache.put" in report
        assert "IO" in report
        assert "masked at sanctioned boundary" in report

    def test_unknown_and_ambiguous_symbols(self):
        from repro.qa.flow.analyze import effects_report

        analysis = analyze_project(SRC)
        with pytest.raises(LookupError):
            effects_report("definitely_not_a_function",
                           analysis=analysis)
        with pytest.raises(LookupError, match="ambiguous"):
            effects_report("put", analysis=analysis)
