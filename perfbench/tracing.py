"""Per-layer tracing from outside the program.

``install`` wraps the public entry points of each layer at every binding site
callers resolve: the defining module's attribute, every ``repro`` module that
imported the same function object by value, and methods once on their class.
A wrapper records a span (name, start, end, parent, op id, thread) while the
tracer is active and nothing otherwise; spans nest per thread, so a layer's
self time is its span minus its child spans.  Hot inner functions
(``convolve``, ``add_vectors``, ``faults.check``) are only counted.  The
async service coroutines get spans of their own, kept off the thread stacks
because coroutines interleave on the event loop.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

#: The op id of the operation being timed (copied into asyncio tasks).
current_op: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "current_op", default=None)

_SESSION_METHODS = ("classify", "explanation", "backend", "values", "ranking",
                    "top", "max", "of", "null_players", "report")
_STORE_KEYS = ("database_content_text", "lineage_content_text",
               "database_digest", "plan_key", "lineage_key", "support_key",
               "circuit_key", "pairs_key", "maintained_key")

#: (layer, owner, attribute): owner is a module, or ``module:Class``.
TIMED = [
    ("analysis.classify", "repro.analysis.dichotomy", "classify_svc"),
    ("analysis.classify", "repro.engine.svc_engine", "resolve_auto_backend"),
    ("analysis.classify", "repro.engine.svc_engine", "_resolved_auto"),
    ("counting.lineage", "repro.counting.lineage", "build_lineage"),
    ("counting.count", "repro.counting.dnf_counter:MonotoneDNF", "count_by_size"),
    ("counting.count", "repro.counting.dnf_counter:MonotoneDNF",
     "conditioned_count_by_size"),
    ("compile.compile", "repro.compile.compiler", "compile_dnf"),
    ("compile.bottom_up", "repro.compile.circuit:Circuit", "count_vectors"),
    ("compile.top_down", "repro.compile.circuit:Circuit", "conditioned_pairs"),
    ("compile.restrict", "repro.compile.circuit:Circuit", "restrict"),
    ("compile.probability", "repro.compile.circuit:Circuit", "probability"),
    ("engine.decompose", "repro.engine.sharding", "decompose_lineage"),
    ("engine.decompose", "repro.engine.sharding", "decompose_dnf"),
    ("engine.solve_component", "repro.engine.sharding", "solve_component"),
    ("engine.combine", "repro.engine.sharding", "combine_component_pairs"),
    ("engine.brute", "repro.engine.backends", "coalition_values_of_size"),
    ("engine.brute", "repro.engine.backends", "brute_pair_partials_for_sizes"),
    ("engine.brute", "repro.engine.backends", "brute_value_from_table"),
    ("engine.safe", "repro.engine.backends", "safe_value_from_plan"),
    ("probability.lifted", "repro.probability.lifted", "evaluate_plan"),
    ("linalg.solve", "repro.linalg", "solve_linear_system"),
    ("values.combine", "repro.engine.backends", "combine_fgmc_vectors"),
    *[("values.combine", f"repro.values.indexes:{cls}", "combine")
      for cls in ("ShapleyIndex", "BanzhafIndex", "ResponsibilityIndex")],
    *[("api.session", "repro.api.session:AttributionSession", m)
      for m in _SESSION_METHODS],
    *[("data.snapshot", "repro.workspace.workspace:AttributionWorkspace", m)
      for m in ("insert", "remove", "make_exogenous", "make_endogenous")],
    ("workspace.refresh", "repro.workspace.workspace:AttributionWorkspace", "refresh"),
    ("workspace.whatif", "repro.workspace.workspace:AttributionWorkspace", "what_if"),
    *[("workspace.keys", "repro.workspace.store", name) for name in _STORE_KEYS],
    *[(f"workspace.store_{op}", f"repro.workspace.store:{cls}", op)
      for cls in ("MemoryStore", "DiskStore") for op in ("get", "put")],
    ("incremental.apply", "repro.incremental.lineage:MaintainedLineage", "apply"),
    ("incremental.apply", "repro.incremental.delta", "apply_delta"),
    ("incremental.apply", "repro.incremental.delta", "supports_through"),
    ("incremental.patch", "repro.incremental.patch", "patch_attribution"),
    ("incremental.recombine", "repro.incremental.patch",
     "combine_component_semivalues"),
]
COUNTED = [
    ("counting.convolve_calls", "repro.counting.dnf_counter", "convolve"),
    ("counting.convolve_calls", "repro.counting.dnf_counter", "add_vectors"),
    ("reliability.fault_checks", "repro.reliability.faults", "check"),
]
ASYNC = [("serve.service", "repro.serve.service:AttributionService", m)
         for m in ("attribute", "refresh_tenant", "what_if")]
#: Counts read off a layer's result: (layer, counter, function of the result).
RESULT_COUNTS = {
    "counting.lineage": ("counting.lineage_clauses",
                         lambda r: len(r.dnf.clauses)),
    "compile.compile": ("compile.circuit_nodes", lambda r: r.size),
    "engine.decompose": ("engine.islands", lambda r: len(r.components)),
}


class Tracer:
    """Spans and counts of one run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: "list[tuple]" = []
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, int]" = defaultdict(int)
        self.async_s: "dict[str, float]" = defaultdict(float)
        #: Time inside top-level spans of non-main threads (executor work).
        self.executor_s = 0.0
        self._main = threading.get_ident()

    # -- recording ----------------------------------------------------------------
    def count(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counts[name] += by

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            thread = threading.get_ident()
            with self._lock:
                self.spans[index] = (name, start, end, parent, current_op.get(),
                                     thread)
                self.self_s[name] += duration - frame[1]
                if parent == -1 and thread != self._main:
                    self.executor_s += duration

    async def call_async(self, name: str, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans.append((name, start, end, -1, current_op.get(),
                                   threading.get_ident()))
                self.async_s[name] += end - start

    def dump(self, path) -> None:
        """Write every span as JSON (``names`` indexes the span tuples)."""
        names = sorted({s[0] for s in self.spans if s is not None})
        position = {n: i for i, n in enumerate(names)}
        threads = sorted({s[5] for s in self.spans if s is not None})
        thread_no = {t: i for i, t in enumerate(threads)}
        spans = [[position[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4],
                  thread_no[s[5]]] for s in self.spans if s is not None]
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op",
                                  "thread"],
                       "names": names, "spans": spans}, out,
                      separators=(",", ":"))


def _owner(spec: str):
    module_name, _, cls = spec.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, cls) if cls else None)


def _rebind(original, wrapper) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at ``wrapper``."""
    sites = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                sites += 1
    return sites


def install(tracer: Tracer) -> int:
    """Wrap every layer entry point; returns the number of sites patched."""
    sites = 0

    def timed(name, fn):
        post = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, args, kwargs)
            if post is not None:
                tracer.count(post[0], post[1](result))
            return result
        return wrapper

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def timed_async(name, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            return await tracer.call_async(name, fn, args, kwargs)
        return wrapper

    plan = ([(timed, *t) for t in TIMED] + [(counted, *t) for t in COUNTED]
            + [(timed_async, *t) for t in ASYNC])
    for make, name, spec, attr in plan:
        module, cls = _owner(spec)
        if cls is not None:
            original = cls.__dict__[attr]
            if make is timed_async and not inspect.iscoroutinefunction(original):
                raise TypeError(f"{spec}.{attr} is not a coroutine function")
            setattr(cls, attr, make(name, original))
            sites += 1
            continue
        original = getattr(module, attr)
        wrapper = make(name, original)
        for extra in ("cache_clear", "cache_info"):
            if hasattr(original, extra):
                setattr(wrapper, extra, getattr(original, extra))
        sites += _rebind(original, wrapper)
    return sites
