"""Run manifests: every trace ships with enough context to re-run it.

A trace file answers "where did the time go"; the manifest next to it
answers "what exactly ran". It records the full argv, the resolved
engine knobs (seed, workers, cache mode, cache dir, preset), a stable
SHA-256 digest of the configuration, the git state of the tree
(``git describe`` plus dirty flag, when available), and the library
versions that executed -- so any run is reproducible from its artifacts
alone, and two manifests differing only in timestamps provably ran the
same configuration (compare ``config_digest``).

The manifest lives at :func:`manifest_path` (``<trace>.manifest.json``)
and is written atomically like the trace itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time

from repro.obs.export import _atomic_write

SCHEMA_VERSION = 1


def manifest_path(trace_path):
    """Where the manifest for a trace file lives (same directory)."""
    return f"{os.fspath(trace_path)}.manifest.json"


#: Environment variables that change how a run executes; resolved into
#: every manifest so history records capture the execution environment,
#: not just the config mapping.
ENV_VARS = ("REPRO_CACHE_DIR", "REPRO_TRACE", "REPRO_HISTORY")


def _canonical(value):
    """Fold one config value into the JSON grammar, recursively:
    mappings sort by stringified key, sequences keep order, scalars
    pass through, and anything else goes through ``repr``. Nested
    mappings therefore digest identically regardless of insertion
    order -- the same guarantee the top level always had."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _canonical(value[k])
                for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return repr(value)


def config_digest(config):
    """Stable SHA-256 digest of a configuration mapping: canonical JSON
    (sorted keys at every nesting level, no whitespace variance),
    values outside the JSON grammar folded through :func:`_canonical`.
    Two runs with equal digests ran the same configuration."""
    clean = {str(k): _canonical(v) for k, v in dict(config).items()}
    canonical = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolved_env():
    """``{name: value-or-None}`` for every :data:`ENV_VARS` entry, as
    resolved in this process."""
    return {name: os.environ.get(name) for name in ENV_VARS}


_GIT_DESCRIBE_CACHE = {}


def git_describe(cwd=None):
    """``git describe --always --dirty`` of the working tree, or None
    when git (or the repository) is unavailable.

    Memoized per (process, cwd): manifests are built per run, and a
    daemon recording history builds one per served request -- a
    subprocess spawn each would dwarf the cost of recording itself.
    The tree state a process started from is the honest provenance for
    everything it computes anyway.
    """
    if cwd in _GIT_DESCRIBE_CACHE:
        return _GIT_DESCRIBE_CACHE[cwd]
    described = _git_describe_uncached(cwd)
    _GIT_DESCRIBE_CACHE[cwd] = described
    return described


def _git_describe_uncached(cwd):
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def build_manifest(command, argv, config, trace_file=None,
                   trace_format=None):
    """The manifest dict for one run.

    Parameters
    ----------
    command:
        Subcommand name (``"score"``, ``"compare"``, ...).
    argv:
        The full argument vector as invoked.
    config:
        Mapping of resolved run knobs (seed, workers, cache, cache_dir,
        quick, ...); digested into ``config_digest``.
    trace_file / trace_format:
        The trace artifact this manifest accompanies.
    """
    config = dict(config or {})
    versions = {"python": platform.python_version()}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    try:
        from repro import __version__ as repro_version

        versions["repro"] = repro_version
    except ImportError:
        pass
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "argv": list(argv),
        "config": config,
        "config_digest": config_digest(config),
        "env": resolved_env(),
        "trace_file": (None if trace_file is None
                       else os.path.basename(os.fspath(trace_file))),
        "trace_format": trace_format,
        "git_describe": git_describe(),
        "platform": platform.platform(),
        "versions": versions,
        "created_unix": time.time(),
    }


def write_manifest(path, manifest):
    """Atomically write a manifest dict to ``path``; returns the path."""
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True)
                  + "\n")
    return path


def load_manifest(path):
    """Read a manifest back; raises ``ValueError`` on schema mismatch."""
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: manifest schema {version!r} != {SCHEMA_VERSION}"
        )
    return manifest
