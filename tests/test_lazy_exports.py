"""PEP 562 lazy package exports (``repro._lazy``)."""

import importlib

import pytest


@pytest.mark.parametrize("package, name", [
    ("repro.core", "cluster_score"),
    ("repro.core", "spread_score"),
    ("repro.stats", "kmeans"),
])
def test_export_wins_over_the_same_named_submodule(package, name):
    submodule = importlib.import_module(f"{package}.{name}")
    exported = getattr(importlib.import_module(package), name)
    assert callable(exported)
    assert exported is getattr(submodule, name)
    namespace = {}
    exec(f"from {package} import {name}", namespace)
    assert namespace[name] is exported


def test_unknown_name_is_an_attribute_error():
    import repro.engine

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.engine.nope  # noqa: B018
    assert not hasattr(repro.engine, "nope")


def test_dir_lists_every_export():
    import repro.obs

    assert set(repro.obs.__all__) <= set(dir(repro.obs))
    assert "span" in repro.obs.__all__
