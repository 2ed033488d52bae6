"""Stale-reference guard for the docs and build files.

Every ``python -m repro.<module>`` they cite must be a runnable module,
and every backticked ``make <target>`` must name a target the Makefile
defines, so deleting a module or a target fails here rather than
leaving dead instructions behind.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = (
    "README.md",
    "DESIGN.md",
    "benchmarks/README.md",
    ".claude/skills/verify/SKILL.md",
    "Makefile",
    ".github/workflows/ci.yml",
)

#: ``python -m repro.x.y`` (or the Makefile's ``$(RUN) -m repro.x.y``),
#: backticked or not, possibly broken across a line.
MODULE_RE = re.compile(r"-m\s+(repro(?:\.\w+)*)")
FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
BACKTICK_RE = re.compile(r"`([^`]+)`")
MAKE_RE = re.compile(r"^make((?:\s+[\w-]+)+)\s*$")
TARGET_RE = re.compile(r"^([\w-]+)\s*:(?!=)", re.MULTILINE)


def _text(name):
    return (ROOT / name).read_text(encoding="utf-8")


def _runnable(module):
    spec = importlib.util.find_spec(module)
    if spec is None:
        return False
    if spec.submodule_search_locations is not None:  # a package
        return importlib.util.find_spec(module + ".__main__") is not None
    return True


def _make_targets():
    return set(TARGET_RE.findall(_text("Makefile")))


def _cited_make_targets(text):
    """Targets of every backticked ``make ...`` span, and of every
    ``make ...`` line inside a fenced code block."""
    commands = []
    for fence in FENCE_RE.findall(text):
        commands.extend(line.split("#")[0] for line in fence.splitlines())
    commands.extend(BACKTICK_RE.findall(FENCE_RE.sub("", text)))
    cited = set()
    for command in commands:
        match = MAKE_RE.match(" ".join(command.split()))
        if match:
            cited.update(match.group(1).split())
    return cited


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_modules_are_runnable(document):
    text = _text(document)
    dead = sorted({m for m in MODULE_RE.findall(text) if not _runnable(m)})
    assert dead == [], f"{document} cites missing modules: {dead}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_make_targets_exist(document):
    dead = sorted(_cited_make_targets(_text(document)) - _make_targets())
    assert dead == [], f"{document} cites missing make targets: {dead}"


def test_guard_sees_references():
    # A regex that silently matched nothing would pass every check.
    assert "qa" in _make_targets()
    modules = set()
    cited = set()
    for document in DOCUMENTS:
        text = _text(document)
        modules.update(MODULE_RE.findall(text))
        cited.update(_cited_make_targets(text))
    assert "repro.qa.determinism" in modules
    assert {"qa", "bench", "bench-e2e"} <= cited
