"""Stale-reference guard for the docs and build files.

Every ``python -m repro.<module>`` they cite must be a runnable module,
every backticked ``repro.<pkg>.<name>`` must be an importable module or
an attribute of one, every backticked ``Class.attr`` whose ``Class`` is
defined under ``src/repro`` must name a class attribute, dataclass
field or ``self.attr`` assignment of that class, every backticked
``make <target>`` must name a
target the Makefile defines, every backticked ``REPRO_*``
environment variable must appear as a string literal under
``src/repro``, and every ``--flag`` of a backticked ``repro <sub> ...``
or ``perspector <sub> ...`` command must be an option that
subcommand's parser accepts, so deleting a module, a name, a target, a
variable or a flag fails here rather than leaving dead instructions
behind.
"""

import argparse
import ast
import functools
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
ENV_RE = re.compile(r"\bREPRO_\w+")
#: ``Class.attr`` (a capitalised name, then one attribute).
CLASS_ATTR_RE = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")
#: A CLI invocation inside a backticked span, and the flags it passes.
CLI_RE = re.compile(r"(?:^|\s)(?:repro|perspector)\s+(.*)")
FLAG_RE = re.compile(r"--[a-z][\w-]*")


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


def _cited_class_attrs(text):
    """Every ``Class.attr`` inside a backticked span outside code
    fences."""
    names = set()
    for span in BACKTICK_RE.findall(FENCE_RE.sub("", text)):
        names.update(CLASS_ATTR_RE.findall(span))
    return names


@functools.lru_cache(maxsize=None)
def _class_attrs():
    """``{class name: attribute names}`` for every class defined under
    ``src/repro``: names bound in its body (methods, class attributes,
    dataclass fields) and every ``self.attr`` it assigns. A name defined
    by several classes gets the union."""
    attrs = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            names = attrs.setdefault(node.name, set())
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)) and sub is not node:
                    names.add(sub.name)
                elif isinstance(sub, ast.Name) and isinstance(sub.ctx,
                                                              ast.Store):
                    names.add(sub.id)
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.ctx, ast.Store)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id == "self"):
                    names.add(sub.attr)
    return attrs


def _dead_class_attrs(text):
    """Cited ``Class.attr`` names whose class is defined under
    ``src/repro`` but defines no ``attr``."""
    known = _class_attrs()
    return {f"{cls}.{attr}" for cls, attr in _cited_class_attrs(text)
            if cls in known and attr not in known[cls]}


def _cited_env_vars(text):
    """Every ``REPRO_*`` name inside a backticked span outside code
    fences."""
    names = set()
    for span in BACKTICK_RE.findall(FENCE_RE.sub("", text)):
        names.update(ENV_RE.findall(span))
    return names


@functools.lru_cache(maxsize=None)
def _source_strings():
    """Every string literal in the package source."""
    strings = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings.update(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant)
                       and isinstance(node.value, str))
    return frozenset(strings)


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


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _unknown_flags(command):
    """Flags of one ``repro ...`` command line that the (sub)command
    they follow does not accept; ``None`` when the line names no
    subcommand (prose such as ``repro score: ...``)."""
    from repro.cli import build_parser

    parser = build_parser()
    named = False
    unknown = []
    for token in command.split():
        flag = FLAG_RE.match(token.lstrip("[("))
        if flag:
            if flag.group() not in parser._option_string_actions:
                unknown.append(flag.group())
        elif token in _subcommands(parser):
            parser = _subcommands(parser)[token]
            named = True
    return unknown if named else None


def _cited_commands(text):
    """``{span: command}`` for every backticked span outside code fences
    that holds a ``repro ...`` or ``perspector ...`` command line."""
    spans = BACKTICK_RE.findall(FENCE_RE.sub("", text))
    return {span: m.group(1) for span in spans
            for m in [CLI_RE.search(span)] if m}


def _cited_unknown_flags(text):
    """Every ``repro <sub> --flag`` in a backticked span outside code
    fences whose subcommand does not accept ``--flag``."""
    return {f"{span}: {flag}"
            for span, command in _cited_commands(text).items()
            for flag in _unknown_flags(command) or ()}


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_modules_are_runnable(document):
    text = _text(document)
    dead = sorted({m for m in MODULE_RE.findall(text) if not _runnable(m)})
    assert dead == [], f"{document} cites missing modules: {dead}"
    dead = sorted(n for n in _cited_dotted_names(text) if not _resolves(n))
    assert dead == [], f"{document} cites missing names: {dead}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_class_attrs_exist(document):
    dead = sorted(_dead_class_attrs(_text(document)))
    assert dead == [], f"{document} cites missing class attributes: {dead}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_env_vars_are_read(document):
    dead = sorted(_cited_env_vars(_text(document)) - _source_strings())
    assert dead == [], f"{document} cites unread variables: {dead}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_make_targets_exist(document):
    dead = sorted(_cited_make_targets(_text(document)) - _make_targets())
    assert dead == [], f"{document} cites missing make targets: {dead}"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_cli_flags_exist(document):
    dead = sorted(_cited_unknown_flags(_text(document)))
    assert dead == [], f"{document} cites flags no parser accepts: {dead}"


def test_guard_sees_references():
    # A regex that silently matched nothing would pass every check.
    assert "qa" in _make_targets()
    modules = set()
    names = set()
    cited = set()
    env_vars = set()
    flagged = set()
    class_attrs = set()
    for document in DOCUMENTS:
        text = _text(document)
        modules.update(MODULE_RE.findall(text))
        names.update(_cited_dotted_names(text))
        cited.update(_cited_make_targets(text))
        env_vars.update(_cited_env_vars(text))
        class_attrs.update(_cited_class_attrs(text))
        flagged.update(command for command in _cited_commands(text).values()
                       if _unknown_flags(command) is not None
                       and FLAG_RE.search(command))
    assert "repro.qa.determinism" in modules
    assert "repro.engine.diskcache.FORMAT_VERSION" in names
    assert not _resolves("repro.engine.no_such_module")
    assert not _resolves("repro.engine.diskcache.NO_SUCH_NAME")
    assert {"qa", "bench", "bench-e2e"} <= cited
    assert {"REPRO_CACHE_DIR", "REPRO_TRACE"} <= env_vars
    assert "REPRO_CACHE_DIR" in _source_strings()
    assert "REPRO_NO_SUCH_VARIABLE" not in _source_strings()
    assert "qa --workers 2" in flagged
    assert ("CPU", "execute_interval") in class_attrs
    assert _dead_class_attrs("`CPU.execute_interval`, `Engine.score_matrix`") == set()
    assert _dead_class_attrs("`CPU.no_such_method`, `NotOurs.x`") == {
        "CPU.no_such_method"}
    assert _dead_class_attrs("`repro.uarch.cpu.CPU.x`, `README.md`") == set()
    assert _unknown_flags("obs check --max-wall-pct -1") == []
    assert _unknown_flags("--quick score nbench --cache-dir D") == []
    assert _unknown_flags("qa --workers 2 [--no-such-flag]") == [
        "--no-such-flag"]
    assert _unknown_flags("score: bad suite --workers") is None
    assert _cited_unknown_flags("`repro score nbench --shards 2`") == {
        "repro score nbench --shards 2: --shards"}
