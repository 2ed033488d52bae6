"""The four workloads and the child-process runner they share.

Every workload is a closed loop with one client: the harness issues one
request, waits for it to finish, then issues the next. Every request is
a real ``repro`` CLI process (``python -m repro.cli``) or, for the
served arm, one :class:`repro.service.ServiceClient` call to a real
``repro serve`` daemon. At most two processes of the program run at
once (the CLI plus its pool at ``--workers 2``, or an idle daemon plus
one CLI process during set-up).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter

from bench.stats import percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Seconds one child process may take before it is killed and counted
#: as failed; keeps a whole run inside its 180 s limit.
CHILD_TIMEOUT_S = 150.0

#: How long a leaked grandchild (a pool worker, a resource tracker)
#: may take to exit after its parent before it counts as left over.
ORPHAN_GRACE_S = 5.0

#: Prefix of the shared-memory segments the engine's pool publishes.
SHM_PREFIX = "reproshm"

#: The untimed harness warm-up that opens every workload's set-up.
WARMUP = ("--quick", "score", "lmbench")

#: The paper's fixed suites (Table III), minus spec17, whose 43 workloads
#: are the subset workload's input.
SUITES = ("parsec", "ligra", "lmbench", "nbench", "sgxgauge")

#: Builds a measured-suites-only disk tier: ``measure_suites`` through
#: the library, so no kernel result lands in the template.
MEASURE_ONLY = (
    "import sys\n"
    "from dataclasses import replace\n"
    "from repro.experiments.runner import ExperimentConfig, measure_suites\n"
    "measure_suites([sys.argv[1]],\n"
    "               replace(ExperimentConfig.quick(), cache_dir=sys.argv[2]))\n"
)


@dataclass
class Outcome:
    """One finished child process; ``error`` is None when it passed."""

    key: str
    error: str | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes = b""


def child_env(root, tmpdir):
    """``(env, scrubbed)``: the environment every child runs under, with
    every ``REPRO_*`` variable removed (they would select a backend, a
    cache directory, tracing, history or shards behind the harness's
    back), and the removed values for the results file."""
    scrubbed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = tmpdir
    return env, scrubbed


def become_subreaper():
    """Adopt orphaned grandchildren (Linux ``PR_SET_CHILD_SUBREAPER``),
    so a pool worker that outlives its CLI process becomes our child and
    shows up in :func:`live_children`. Returns whether it worked."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def live_children():
    """Pids of this process's unreaped children, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def shm_segments():
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def tree_bytes(path):
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def seal(path):
    """Make a template tier read-only, so no invocation can write it."""
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            os.chmod(os.path.join(dirpath, name), stat.S_IRUSR | stat.S_IRGRP)
    for dirpath, _dirs, _files in os.walk(path, topdown=False):
        os.chmod(dirpath, stat.S_IRUSR | stat.S_IXUSR)


def remove_tree(path):
    def unseal(func, failed, _exc):
        os.chmod(os.path.dirname(failed), stat.S_IRWXU)
        func(failed)

    shutil.rmtree(path, onerror=unseal)


class Run:
    """One workload run's children, work directory and correctness
    ledger. Every checked operation goes through :meth:`record`."""

    def __init__(self, root, work, goldens):
        self.root = root
        self.work = work
        self.goldens = goldens
        self.env = child_env(root, work)[0]
        self.attempted = 0
        self.failures = []
        self._seq = 0

    # -- ledger ----------------------------------------------------------

    def record(self, label, error):
        """Count one attempted operation; ``error`` (a string) fails it."""
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")
        return not error

    # -- work directory --------------------------------------------------

    def path(self, stem):
        self._seq += 1
        return os.path.join(self.work, f"{self._seq:04d}-{stem}")

    def fresh_dir(self, stem="cache"):
        path = self.path(stem)
        os.makedirs(path)
        return path

    def copy_tier(self, template):
        """A fresh writable copy of a (sealed) template tier."""
        dest = self.path("cache")
        for dirpath, _dirs, files in os.walk(template):
            target = os.path.join(dest, os.path.relpath(dirpath, template))
            os.makedirs(target)
            for name in files:
                shutil.copyfile(os.path.join(dirpath, name),
                                os.path.join(target, name))
        return dest

    # -- children --------------------------------------------------------

    def spawn(self, argv, stem):
        with open(self.path(f"{stem}.out"), "wb") as out, \
                open(self.path(f"{stem}.err"), "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
        proc.stdout_path, proc.stderr_path = out.name, err.name
        return proc

    @staticmethod
    def reap(proc, timeout=CHILD_TIMEOUT_S):
        """Wait for ``proc`` (killing it after ``timeout``); returns its
        exit code and resource usage."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def execute(self, argv, key):
        """Run one child to completion, timed from spawn to exit. Not
        recorded in the ledger; callers record what they check."""
        start = perf_counter()
        proc = self.spawn(argv, "child")
        code, usage = self.reap(proc)
        wall = perf_counter() - start
        with open(proc.stdout_path, "rb") as f:
            stdout = f.read()
        error = None
        if code != 0:
            with open(proc.stderr_path, "rb") as f:
                tail = f.read()[-400:].decode("utf-8", "replace").strip()
            error = f"exit {code}: {tail}"
        return Outcome(key=key, error=error, wall_s=wall,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       rss_mb=usage.ru_maxrss / 1024, stdout=stdout)

    def cli(self, args, cache_dir=None, trace_to=None):
        """One checked ``repro`` invocation; ``trace_to`` runs it through
        ``bench/traced.py`` instead, writing the span log there."""
        key = " ".join(args)
        argv = list(args) + (["--cache-dir", cache_dir] if cache_dir else [])
        if trace_to is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced.py"),
                   trace_to, "--", *argv]
        out = self.execute(cmd, key)
        if out.error is None:
            out.error = self.goldens.check_stdout(key, out.stdout)
        self.record(key, out.error)
        return out

    def build_template(self, suite):
        """A sealed disk tier holding only ``suite``'s measurement."""
        tier = self.fresh_dir("template")
        out = self.execute([sys.executable, "-c", MEASURE_ONLY, suite, tier],
                           f"measure {suite}")
        self.record(out.key, out.error)
        seal(tier)
        return tier

    # -- leak checks -----------------------------------------------------

    def check_leaks(self, shm_before):
        """Fail the run for any process or shm segment left behind;
        stops and reaps leftover processes so the run leaves none."""
        deadline = time.monotonic() + ORPHAN_GRACE_S
        while True:
            alive = []
            for pid in live_children():
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    alive.append(pid)
            if not alive or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            self.record("leak check", f"process {pid} left running")
        leaked = shm_segments() - shm_before
        if leaked:
            self.record("leak check",
                        f"shared-memory segments left: {sorted(leaked)}")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Workload:
    """One named benchmark workload.

    The harness times ``setup_reps`` repetitions of [warm-up invocation
    + :meth:`setup`] as ``setup_s``, then calls :meth:`measure` for the
    timed window, :meth:`close`, and, when tracing, runs
    :meth:`trace_requests` through ``bench/traced.py``.
    """

    name = ""
    setup_reps = 1

    def __init__(self):
        #: Measurements taken outside the CLI outcomes (served arm).
        self.extra = {}

    def setup(self, run):
        """Workload-specific set-up, after the warm-up invocation."""

    def measure(self, run, seconds, rng):
        """Timed CLI :class:`Outcome` list for a window of ``seconds``."""
        raise NotImplementedError

    def trace_requests(self, run):
        """``(args, cache_dir)`` pairs the traced pass runs."""
        raise NotImplementedError

    def close(self, run):
        """Stop anything :meth:`setup` started."""


class Repeated(Workload):
    """One request invoked back to back until the window closes."""

    args = ()
    setup_reps = 3

    def cache_dir(self, run):
        """The ``--cache-dir`` for one invocation, made untimed."""
        return None

    def measure(self, run, seconds, rng):
        deadline = perf_counter() + seconds
        outcomes = []
        while True:
            outcomes.append(run.cli(self.args, cache_dir=self.cache_dir(run)))
            if perf_counter() >= deadline:
                return outcomes

    def trace_requests(self, run):
        return [(self.args, self.cache_dir(run))]


class ColdScoreNbench(Repeated):
    name = "cold-score-nbench"
    args = ("score", "nbench", "--workers", "1")


class ColdCompareW2(Repeated):
    name = "cold-compare-w2"
    args = ("--quick", "compare", *SUITES, "--workers", "2")

    def cache_dir(self, run):
        return run.fresh_dir()


class RescoreSubsetSpec17(Repeated):
    name = "rescore-subset-spec17"
    args = ("--quick", "subset", "spec17", "--size", "8", "--search", "64")
    # One measurement of spec17 costs ~15 s; repeating it would not fit
    # a full comparison's time budget (92 runs in 3420 s).
    setup_reps = 1

    def setup(self, run):
        self.template = run.build_template("spec17")

    def cache_dir(self, run):
        return run.copy_tier(self.template)


def score_args(suite, focus):
    return ("--quick", "score", suite, "--focus", focus)


class WarmRequests(Workload):
    """The repeat-analysis path: 15 score requests that were all
    answered before, asked of a disk-warm CLI and of a warm daemon."""

    name = "warm-requests"
    requests = tuple((s, f) for s in SUITES for f in ("all", "llc", "tlb"))
    #: Share of the window given to the CLI arm (whole rounds only).
    cli_share = 0.6

    def __init__(self):
        super().__init__()
        self.daemon = None
        self.client = None

    def setup(self, run):
        from repro.service import ServiceClient

        self.tier = run.fresh_dir("tier")
        for suite, focus in self.requests:
            run.cli(score_args(suite, focus), cache_dir=self.tier)
        seal(self.tier)
        self.daemon = run.spawn(
            [sys.executable, "-m", "repro.cli", "--quick", "serve",
             "--workers", "1", "--cache-dir", run.copy_tier(self.tier),
             "--host", "127.0.0.1", "--port", "0"], "serve")
        self.client = ServiceClient(host="127.0.0.1",
                                    port=self._port(self.daemon), retries=0)
        for suite, focus in self.requests:
            self._serve(run, suite, focus)

    @staticmethod
    def _port(proc, timeout=60.0):
        """The port from the daemon's ``listening on`` banner."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(proc.stderr_path, encoding="utf-8") as f:
                found = re.search(r"listening on http://[^:]+:(\d+)", f.read())
            if found:
                return int(found.group(1))
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"repro serve did not come up (see "
                           f"{proc.stderr_path})")

    def _serve(self, run, suite, focus):
        """One timed served request, checked byte for byte against the
        CLI's stdout for the same request; its latency in ms, or None
        when it failed."""
        from repro.service import ServiceError

        key = " ".join(score_args(suite, focus))
        start = perf_counter()
        try:
            rendered = self.client.score(suite, focus=focus)["rendered"]
        except ServiceError as exc:
            run.record(f"served {key}", str(exc))
            return None
        elapsed_ms = (perf_counter() - start) * 1e3
        error = run.goldens.check_stdout(key, (rendered + "\n").encode())
        return elapsed_ms if run.record(f"served {key}", error) else None

    def measure(self, run, seconds, rng):
        start = perf_counter()
        outcomes = []
        while True:
            for suite, focus in rng.sample(self.requests, len(self.requests)):
                outcomes.append(run.cli(score_args(suite, focus),
                                        cache_dir=run.copy_tier(self.tier)))
            if perf_counter() - start >= self.cli_share * seconds:
                break
        before = self.client.metrics()["values"]
        latencies = []
        while True:
            for suite, focus in rng.sample(self.requests, len(self.requests)):
                latencies.append(self._serve(run, suite, focus))
            if perf_counter() - start >= seconds:
                break
        after = self.client.metrics()["values"]
        latencies = [ms for ms in latencies if ms is not None]
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        self.extra = {
            "service.latencies_ms": latencies,
            "service.p50_ms": percentile(latencies, 50) if latencies else 0.0,
            "service.p95_ms": percentile(latencies, 95) if latencies else 0.0,
            "service.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "service.requests": len(latencies),
        }
        return outcomes

    def close(self, run):
        """Shut the daemon down over ``/v1/shutdown``; its max RSS joins
        the run's, and a non-clean exit fails the run."""
        from repro.service import ServiceError

        if self.daemon is None:
            return
        proc, self.daemon = self.daemon, None
        if proc.returncode is not None:
            run.record("daemon exit", f"exited early with {proc.returncode}")
            return
        if self.client is None:  # it never printed its port
            proc.terminate()
        else:
            try:
                self.client.shutdown()
            except ServiceError as exc:
                run.record("daemon shutdown", str(exc))
                proc.terminate()
        code, usage = run.reap(proc, timeout=60)
        self.extra["daemon_rss_mb"] = usage.ru_maxrss / 1024
        run.record("daemon exit", code and f"exit code {code}")

    def trace_requests(self, run):
        return [(score_args(s, f), run.copy_tier(self.tier))
                for s, f in self.requests]


WORKLOADS = {w.name: w for w in (ColdScoreNbench, ColdCompareW2,
                                 RescoreSubsetSpec17, WarmRequests)}
