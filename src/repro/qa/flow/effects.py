"""The effect lattice and the whole-program effect-inference engine.

Every function in the indexed project is assigned a *set of effect
atoms* drawn from a small, flat lattice (the bottom element -- the
empty set -- is "pure modulo arguments"):

``READS_GLOBAL``
    reads module-level mutable state (result may depend on call order);
``WRITES_GLOBAL``
    writes module-level state (``global`` rebinding, stores into or
    mutator-method calls on module-level containers);
``RNG_UNSEEDED``
    draws from an unseeded random source (legacy ``np.random.*``
    functions, the ``random`` module, ``default_rng()`` without a seed);
``CLOCK``
    reads a wall/monotonic clock;
``IO``
    touches the filesystem or a stream (``open``, ``print``,
    ``Path.read_text``, ``os.replace``, ...);
``SPAWNS_PROCESS``
    creates processes (``subprocess``, ``ProcessPoolExecutor``, ...);
``NONDET_ITERATION``
    iterates a ``set`` directly, so the visit order is hash-seed
    dependent.

Intrinsic atoms are seeded from the tables below during module-summary
extraction (:mod:`repro.qa.flow.summary`); this module's
:class:`EffectSolver` then propagates them transitively over the call
graph to a fixpoint: a function's effect set is its own atoms unioned
with the *exported* effects of everything it calls (including edges
through ``functools.partial`` and ``parallel_map``).

**Sanctioned substrate masks.** The memoization, transport and
observability layers are deliberately effectful -- the disk cache does
IO, the tracer reads the clock -- but are proven bit-transparent at
runtime by ``repro qa`` (tracing/caching/fan-out change no output bit).
:data:`SANCTIONED_EFFECTS` therefore masks those effect classes at the
listed module boundaries: callers do not inherit them, while the
functions' *own* reports (``repro analyze effects``) still show them.
``RNG_UNSEEDED`` and ``NONDET_ITERATION`` are never maskable -- no
substrate claim makes nondeterminism safe. The soundness argument
lives in DESIGN.md section 11.
"""

from __future__ import annotations

from dataclasses import dataclass

READS_GLOBAL = "READS_GLOBAL"
WRITES_GLOBAL = "WRITES_GLOBAL"
RNG_UNSEEDED = "RNG_UNSEEDED"
CLOCK = "CLOCK"
IO = "IO"
SPAWNS_PROCESS = "SPAWNS_PROCESS"
NONDET_ITERATION = "NONDET_ITERATION"

#: Every atom, in report order.
ALL_EFFECTS = (
    READS_GLOBAL,
    WRITES_GLOBAL,
    RNG_UNSEEDED,
    CLOCK,
    IO,
    SPAWNS_PROCESS,
    NONDET_ITERATION,
)

#: Effects that may never be masked by a sanctioned-substrate entry.
UNMASKABLE = frozenset({RNG_UNSEEDED, NONDET_ITERATION})

#: Fully-qualified callables with a known intrinsic effect.
INTRINSIC_CALLS = {
    # clocks
    "time.time": CLOCK, "time.time_ns": CLOCK,
    "time.perf_counter": CLOCK, "time.perf_counter_ns": CLOCK,
    "time.monotonic": CLOCK, "time.monotonic_ns": CLOCK,
    "time.process_time": CLOCK, "time.process_time_ns": CLOCK,
    "time.sleep": CLOCK,
    "datetime.datetime.now": CLOCK, "datetime.datetime.utcnow": CLOCK,
    "datetime.date.today": CLOCK,
    # io
    "open": IO, "print": IO, "input": IO,
    "os.listdir": IO, "os.scandir": IO, "os.walk": IO, "os.stat": IO,
    "os.remove": IO, "os.unlink": IO, "os.rename": IO, "os.replace": IO,
    "os.makedirs": IO, "os.mkdir": IO, "os.rmdir": IO, "os.utime": IO,
    "os.open": IO, "os.read": IO, "os.write": IO, "os.close": IO,
    "tempfile.mkdtemp": IO, "tempfile.mkstemp": IO,
    "tempfile.NamedTemporaryFile": IO, "tempfile.TemporaryDirectory": IO,
    "numpy.save": IO, "numpy.load": IO, "numpy.savez": IO,
    "numpy.loadtxt": IO, "numpy.savetxt": IO,
    # environment
    "os.getenv": READS_GLOBAL, "os.putenv": WRITES_GLOBAL,
    "os.environ.get": READS_GLOBAL,
    # process creation
    "os.system": SPAWNS_PROCESS, "os.fork": SPAWNS_PROCESS,
    "os.posix_spawn": SPAWNS_PROCESS, "os.execv": SPAWNS_PROCESS,
    "multiprocessing.Process": SPAWNS_PROCESS,
    "multiprocessing.Pool": SPAWNS_PROCESS,
    "concurrent.futures.ProcessPoolExecutor": SPAWNS_PROCESS,
    # unseeded randomness
    "numpy.random.seed": WRITES_GLOBAL,
    "numpy.random.set_state": WRITES_GLOBAL,
    "random.seed": WRITES_GLOBAL,
    "uuid.uuid1": RNG_UNSEEDED, "uuid.uuid4": RNG_UNSEEDED,
    "secrets.token_hex": RNG_UNSEEDED, "secrets.token_bytes": RNG_UNSEEDED,
}

#: Prefix-matched intrinsics; exact :data:`INTRINSIC_CALLS` entries and
#: :data:`INTRINSIC_PREFIX_EXEMPT` names win over these.
INTRINSIC_PREFIXES = (
    ("numpy.random.", RNG_UNSEEDED),
    ("random.", RNG_UNSEEDED),
    ("subprocess.", SPAWNS_PROCESS),
    ("shutil.", IO),
    ("pathlib.Path.", IO),
)

#: Names inside an intrinsic prefix that are *not* intrinsically
#: effectful (seedable constructors and plain types).
INTRINSIC_PREFIX_EXEMPT = frozenset({
    "numpy.random.default_rng",  # handled separately: seed-dependent
    "numpy.random.Generator", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.RandomState",
    "random.Random", "random.SystemRandom",
    "subprocess.CompletedProcess", "subprocess.CalledProcessError",
    "subprocess.DEVNULL", "subprocess.PIPE",
})

#: Method names (receiver type unknown) specific enough to claim an
#: effect -- the ``pathlib.Path`` write/read surface and datetime
#: "current moment" constructors.
INTRINSIC_METHODS = {
    "read_text": IO, "write_text": IO,
    "read_bytes": IO, "write_bytes": IO,
    "mkdir": IO, "rmdir": IO, "unlink": IO, "touch": IO,
    "hardlink_to": IO, "symlink_to": IO,
    "now": CLOCK, "utcnow": CLOCK, "today": CLOCK,
}

#: Container-mutator method names: calling one of these on a
#: module-level binding is a global write.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "update",
    "setdefault", "pop", "popitem", "clear", "move_to_end",
})

#: Sanctioned substrate boundaries: ``(qualname prefix, masked effects)``.
#: A caller of a function under one of these prefixes does not inherit
#: the masked effects; ``repro qa`` holds the runtime side of the
#: bargain (bit-identical outputs with the substrate on or off).
SANCTIONED_EFFECTS = (
    # Tracing/metrics: clocks and exporter IO never reach an output bit.
    ("repro.obs.", frozenset({CLOCK, IO, READS_GLOBAL, WRITES_GLOBAL})),
    # The memoization tiers *are* the content-addressed store.
    ("repro.engine.cache.",
     frozenset({IO, READS_GLOBAL, WRITES_GLOBAL})),
    ("repro.engine.diskcache.",
     frozenset({IO, CLOCK, READS_GLOBAL, WRITES_GLOBAL})),
    # Pool lifecycle state, leak-checked by qa.
    ("repro.engine.parallel.",
     frozenset({IO, READS_GLOBAL, WRITES_GLOBAL})),
)


def sanctioned_mask(qualname):
    """Union of effect classes masked at this function's boundary."""
    masked = set()
    for prefix, effects in SANCTIONED_EFFECTS:
        if qualname.startswith(prefix):
            masked |= effects
    return masked - UNMASKABLE


def intrinsic_effect(resolved):
    """The intrinsic effect of a fully-resolved external callable name,
    or ``None``. ``numpy.random.default_rng`` is *not* handled here --
    its effect depends on the seed argument (see the extraction pass)."""
    if resolved in INTRINSIC_PREFIX_EXEMPT:
        return None
    effect = INTRINSIC_CALLS.get(resolved)
    if effect is not None:
        return effect
    for prefix, prefix_effect in INTRINSIC_PREFIXES:
        if resolved.startswith(prefix):
            return prefix_effect
    return None


@dataclass(frozen=True)
class EffectAtom:
    """One directly-observed effect: what, where, and why."""

    effect: str
    line: int
    col: int
    detail: str


@dataclass(frozen=True)
class ChainStep:
    """One hop of the justification for an inferred effect: either a
    call site (``callee`` set) or the terminal intrinsic atom."""

    qualname: str
    path: str
    line: int
    detail: str


class EffectSolver:
    """Fixpoint propagation of effect atoms over a call graph.

    Parameters
    ----------
    graph:
        A :class:`repro.qa.flow.callgraph.CallGraph`: per-function own
        atoms plus resolved call/partial/task edges.

    The transfer function is monotone over a finite lattice (unions of
    a 7-element atom set), so the worklist iteration terminates;
    recursion and mutual recursion converge like any other cycle.
    """

    def __init__(self, graph):
        self.graph = graph
        self._effects = {fq: {a.effect for a in graph.own_atoms(fq)}
                         for fq in graph.functions()}
        self._solved = False

    def solve(self):
        """Run the worklist to fixpoint (idempotent)."""
        if self._solved:
            return self
        callers = {}
        for fq in self.graph.functions():
            for edge in self.graph.edges(fq):
                if edge.callee in self._effects:
                    callers.setdefault(edge.callee, set()).add(fq)
        pending = list(self._effects)
        pending_set = set(pending)
        while pending:
            fq = pending.pop()
            pending_set.discard(fq)
            combined = set(self._effects[fq])
            for edge in self.graph.edges(fq):
                combined |= self.exported(edge.callee)
            if combined != self._effects[fq]:
                self._effects[fq] = combined
                for caller in callers.get(fq, ()):
                    if caller not in pending_set:
                        pending.append(caller)
                        pending_set.add(caller)
        self._solved = True
        return self

    def effects(self, fq):
        """The full inferred effect set of ``fq`` (own + transitive)."""
        return set(self._effects.get(fq, set()))

    def exported(self, fq):
        """What a *caller* of ``fq`` inherits: the effect set minus the
        sanctioned-substrate mask at this boundary."""
        if fq not in self._effects:
            return set()
        return self._effects[fq] - sanctioned_mask(fq)

    # -- justification -----------------------------------------------------

    def chain(self, fq, effect):
        """Shortest call chain proving ``fq`` carries ``effect``, as a
        list of :class:`ChainStep` (first element is ``fq`` itself, the
        last names the intrinsic atom). Empty when the effect does not
        hold."""
        self.solve()
        if effect not in self.effects(fq):
            return []
        return self._chain(fq, effect, visited=set())

    def _chain(self, fq, effect, visited):
        visited.add(fq)
        record = self.graph.record(fq)
        path = record.path if record is not None else "<unknown>"
        for atom in self.graph.own_atoms(fq):
            if atom.effect == effect:
                return [ChainStep(qualname=fq, path=path, line=atom.line,
                                  detail=atom.detail)]
        for edge in self.graph.edges(fq):
            if edge.callee in visited:
                continue
            if effect in self.exported(edge.callee):
                rest = self._chain(edge.callee, effect, visited)
                if rest:
                    step = ChainStep(qualname=fq, path=path, line=edge.line,
                                     detail=f"calls {edge.callee}")
                    return [step] + rest
        return []


def format_chain(steps, effect):
    """``f (a.py:3) -> g (b.py:9) -> time.time() [CLOCK]`` -- the
    one-line justification embedded in deep-rule findings. Every hop
    names the function and the source line of the call (or, for the
    last hop, of the intrinsic atom itself)."""
    if not steps:
        return ""
    parts = [f"{step.qualname} ({step.path}:{step.line})"
             for step in steps]
    parts.append(f"{steps[-1].detail} [{effect}]")
    return " -> ".join(parts)
