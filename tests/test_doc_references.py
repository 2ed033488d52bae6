"""Stale-reference guard for the docs and build files.

Every ``python -m repro.<module>`` they cite must be a runnable module,
every backticked ``repro.<pkg>.<name>`` must be an importable module or
an attribute of one, and every backticked ``make <target>`` must name a
target the Makefile defines, so deleting a module, a name or a target
fails here rather than leaving dead instructions behind.
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
DOTTED_RE = re.compile(r"\brepro(?:\.\w+)+")
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


def _resolves(dotted):
    """Whether ``dotted`` is a module, or an attribute chain hanging off
    its longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _cited_dotted_names(text):
    """Every ``repro.x.y`` inside a backticked span outside code
    fences."""
    names = set()
    for span in BACKTICK_RE.findall(FENCE_RE.sub("", text)):
        names.update(DOTTED_RE.findall(span))
    return names


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
    dead = sorted(n for n in _cited_dotted_names(text) if not _resolves(n))
    assert dead == [], f"{document} cites missing names: {dead}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_make_targets_exist(document):
    dead = sorted(_cited_make_targets(_text(document)) - _make_targets())
    assert dead == [], f"{document} cites missing make targets: {dead}"


def test_guard_sees_references():
    # A regex that silently matched nothing would pass every check.
    assert "qa" in _make_targets()
    modules = set()
    names = set()
    cited = set()
    for document in DOCUMENTS:
        text = _text(document)
        modules.update(MODULE_RE.findall(text))
        names.update(_cited_dotted_names(text))
        cited.update(_cited_make_targets(text))
    assert "repro.qa.determinism" in modules
    assert "repro.engine.diskcache.FORMAT_VERSION" in names
    assert not _resolves("repro.engine.no_such_module")
    assert not _resolves("repro.engine.diskcache.NO_SUCH_NAME")
    assert {"qa", "bench", "bench-e2e"} <= cited
