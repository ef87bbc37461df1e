"""Spans around capbmo's module entry points, and the per-layer metrics.

The tracer wraps entry-point functions from outside the package. Modules
bind names with ``from .content import ...``, so a wrapper is installed
on every capbmo module attribute that holds the original function, and
the originals are put back on uninstall. A name that does not exist is
skipped; a layer with no name left is reported as absent.

Each call records a span (id, parent id, name, task, thread, start, end,
info) in memory. The parent is the innermost open span of the calling
thread, or, on a thread with no open span (the verify thread pool), the
innermost open span of the main thread. A layer's self time is the time
its spans cover minus the part covered by their child spans.

Which end-to-end metric each layer metric should move, and on which
workload:

  grid           denominators; wall_s mostly unchanged
  content        wall_s, task_s_p90 on oscillation_log and verify_cli
  kernels        wall_s, peak_rss_mb on content_bulk
  oscillation    task_s_p90 (the q=2 task) on oscillation_log
  choquet        wall_s on oscillation_log (signed centering)
  weights        wall_s on verify_cli
  czd            wall_s on verify_cli
  verify         wall_s on verify_cli
  serialization  wall_s on verify_cli (expected small)
  cli            wall_s, cpu_s on verify_cli
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, NamedTuple

# layer -> entry points wrapped in that module (capbmo.<layer>)
ENTRY_POINTS = {
    "grid": ("enumerate_cubes", "dyadic_cubes", "lattice_cubes"),
    "content": ("masked_integral_many", "masked_integral", "dyadic_content", "weighted_content", "cube_content"),
    "kernels": ("reduce_tree",),
    "oscillation": ("gamma_interval", "oscillation_objective", "bmo_seminorm", "blo_seminorm", "weighted_bmo_seminorm"),
    "choquet": ("choquet", "choquet_wrt", "signed_average", "cube_choquet", "essential_bounds", "jensen_sides"),
    "weights": ("maximal_function", "ap_constant", "a1_constant", "power_maximal_weight", "a1_factorize", "weighted_l1_comparison"),
    "czd": ("cz_decompose", "cz_verify"),
    "verify": (
        "survival_curve", "fit_envelope", "verify_jn", "verify_characterization", "verify_equivalences",
        "verify_inclusions", "verify_factorization", "weak_restricted_strong_check",
    ),
    "serialization": ("load_fixture", "load_grid", "load_function", "load_set", "report_document", "curves_to_csv", "atomic_write_text"),
    "cli": ("main",),
}

PACKAGE = "capbmo"
LAYERS = tuple(ENTRY_POINTS)
BENCH_LAYER = "bench"  # the benchmark's own span around each task

INTEGRATOR = "content.masked_integral_many"


class Span(NamedTuple):
    id: int
    parent: int  # 0 for the benchmark's task spans
    name: str  # "<layer>.<function>"
    layer: str
    task: str | None
    thread: int
    start: float
    end: float
    info: Any  # per-name detail, see INFO


def _jobs(args, kwargs, result):
    return len(kwargs["jobs"] if "jobs" in kwargs else args[1])


def _reduce_tree(args, kwargs, result):
    """(rows, leaf cells, bytes computed from the array sizes read and written)."""
    leaf = args[0]
    ndim, depth = int(args[1]), int(args[2])
    rows, cells = leaf.shape
    moved = 0
    for level in range(depth, 0, -1):
        moved += rows * ((1 << level) ** ndim + (1 << (level - 1)) ** ndim) * 8
    return rows, rows * cells, moved


def _length(args, kwargs, result):
    return len(result)


def _utf8_bytes(args, kwargs, result):
    return len(result.encode())


def _command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# span info recorded after the call, per qualified name
INFO = {
    INTEGRATOR: _jobs,
    "kernels.reduce_tree": _reduce_tree,
    "grid.enumerate_cubes": _length,
    "serialization.report_document": _utf8_bytes,
    "cli.main": _command,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple] = []
        self.present: dict[str, list[str]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.present = {}
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            found = []
            for name in names:
                original = getattr(home, name, None) if home is not None else None
                if not callable(original):
                    continue
                found.append(name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
            if found:
                self.present[layer] = found

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def absent_layers(self) -> list[str]:
        return [layer for layer in LAYERS if layer not in self.present]

    def _wrap(self, qualname: str, layer: str, fn):
        info_of = INFO.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = info_of(args, kwargs, result) if info_of else None
            self.spans.append(Span(sid, parent, qualname, layer, self.task, threading.get_ident(), start, end, info))
            return result

        return wrapper

    @contextlib.contextmanager
    def task_span(self, name: str):
        """The benchmark's own span around one task."""
        self.task = name
        sid = next(self._ids)
        self._main_stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append(Span(sid, 0, f"{BENCH_LAYER}.task", BENCH_LAYER, name, threading.get_ident(), start, end, None))
            self.task = None

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# ----------------------------------------------------------------- analysis


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is not None and lo <= hi_run:
                hi_run = max(hi_run, hi)
                continue
            if hi_run is not None:
                covered += hi_run - lo_run
            lo_run, hi_run = lo, hi
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


def pass_metrics(spans: list[Span], present: dict[str, list[str]]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and integrator calls per task.

    Counts are exact and repeat between passes; times are in seconds.
    Metrics whose entry point is absent are left out.
    """
    by_id = {s.id: s for s in spans}
    self_t = _self_times(spans)

    def parent_layer(s):
        p = by_id.get(s.parent)
        return p.layer if p else None

    def caller_layer(s):
        """Layer of the nearest ancestor outside content and kernels."""
        p = by_id.get(s.parent)
        while p is not None and p.layer in ("content", "kernels"):
            p = by_id.get(p.parent)
        return p.layer if p else None

    named = defaultdict(list)
    self_by_layer = defaultdict(float)
    calls_by_layer = defaultdict(int)
    for s in spans:
        named[s.name].append(s)
        self_by_layer[s.layer] += self_t[s.id]
        calls_by_layer[s.layer] += 1

    def has(layer, name):
        return name in present.get(layer, ())

    m: dict[str, float] = {f"{layer}.self_s": self_by_layer[layer] for layer in present}
    per_task: dict[str, int] = defaultdict(int)

    if has("grid", "enumerate_cubes"):
        enum = named["grid.enumerate_cubes"]
        m["grid.enumerate_cubes.calls"] = len(enum)
        m["grid.cubes"] = sum(s.info for s in enum)

    integ = named[INTEGRATOR]
    if has("content", "masked_integral_many"):
        jobs = sum(s.info for s in integ)
        m["content.integrator_calls"] = len(integ)
        m["content.integrator_jobs"] = jobs
        m["content.jobs_per_call"] = jobs / len(integ) if integ else 0.0
        for s in integ:
            per_task[s.task] += 1
        if "oscillation" in present:
            # cubes handled: families enumerated by oscillation code, plus
            # single-cube entry points called from other layers
            jobs = sum(s.info for s in integ if caller_layer(s) == "oscillation")
            cubes = sum(s.info for s in named["grid.enumerate_cubes"] if parent_layer(s) == "oscillation")
            for name in ("oscillation.gamma_interval", "oscillation.oscillation_objective"):
                cubes += sum(1 for s in named[name] if parent_layer(s) != "oscillation")
            m["oscillation.integrator_jobs"] = jobs
            m["oscillation.jobs_per_cube"] = jobs / cubes if cubes else 0.0
        if "weights" in present:
            m["weights.integrator_calls"] = sum(1 for s in integ if caller_layer(s) == "weights")

    if has("kernels", "reduce_tree"):
        red = named["kernels.reduce_tree"]
        m["kernels.reduce_tree.calls"] = len(red)
        m["kernels.rows"] = sum(s.info[0] for s in red)
        m["kernels.leaf_cells"] = sum(s.info[1] for s in red)
        m["kernels.bytes_computed"] = sum(s.info[2] for s in red)

    if has("oscillation", "gamma_interval"):
        m["oscillation.gamma_interval.calls"] = len(named["oscillation.gamma_interval"])
    for layer in ("choquet", "weights"):
        if layer in present:
            m[f"{layer}.calls"] = calls_by_layer[layer]
    for name in ("cz_decompose", "cz_verify"):
        if has("czd", name):
            m[f"czd.{name}.s"] = sum(s.end - s.start for s in named[f"czd.{name}"])
    if "verify" in present:
        outermost = (s for s in spans if s.layer == "verify" and parent_layer(s) != "verify")
        m["verify.driver_s"] = sum(s.end - s.start for s in outermost)
    if has("serialization", "report_document"):
        docs = named["serialization.report_document"]
        m["serialization.report_document.calls"] = len(docs)
        m["serialization.bytes"] = sum(s.info for s in docs)
    if has("cli", "main"):
        # threads that ran verify code during one `capbmo verify` call
        tasks = {s.task for s in named["cli.main"] if s.info == "verify"}
        m["cli.verify.workers"] = max(
            (len({s.thread for s in spans if s.task == t and s.layer == "verify"}) for t in tasks),
            default=0,
        )
    return m, dict(per_task)


def is_count(name: str) -> bool:
    return not name.endswith(("_s", ".s"))


def unit_of(name: str) -> str:
    if not is_count(name):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_per_call", "_per_cube")):
        return "jobs/" + name.rsplit("_", 1)[1]
    return "count"


def span_records(spans: list[Span], origin: float):
    """Spans as JSON-ready dicts, times in seconds from origin."""
    for s in spans:
        yield {
            "id": s.id, "parent": s.parent, "name": s.name, "task": s.task, "thread": s.thread,
            "start": round(s.start - origin, 9), "end": round(s.end - origin, 9),
        }
