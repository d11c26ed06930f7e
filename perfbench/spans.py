"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each program layer from the
outside: every function listed in a layer module's ``__all__`` is replaced,
in every ``gibbsqfi`` namespace that holds it, by a wrapper that records one
span per call.  The program itself is not modified.

Span times are read from the calling thread's CPU clock.  The sweep pool
runs points on worker threads while the main thread blocks in the pool;
with per-thread CPU clocks the blocked thread accrues no time, so the self
times of all spans plus the unattributed remainder add up to the CPU time
the process spent on the job (the busy time), with nothing counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import NamedTuple

# The program's layers, in the order the tables list them.  ``skew`` is
# reachable from no command line job and ``models`` costs well under a
# millisecond per job, so neither is a traced layer; their namespaces are
# still patched so calls they make into traced layers are seen.
LAYERS = ("hilbert", "families", "dsf", "metrics", "inequalities", "cli")

# Work counts taken from a layer's return value at the span boundary.
WORK_COUNTERS = {
    "dsf.build_dsf": lambda spectrum: int(spectrum.omegas.size),
}


class Span(NamedTuple):
    """One call of a traced function.

    Spans are plain tuples that refer to their parent by id, so the garbage
    collector soon stops tracking them and a long trace adds little to
    collection time.  Ids count up from 0 in the order spans open.
    """

    id: int
    name: str
    thread: int
    parent: int | None
    cpu0: float
    cpu1: float
    wall0: float = 0.0
    wall1: float = 0.0
    work: int = 0


class Recorder:
    """Collects spans in memory; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        work_of = WORK_COUNTERS.get(name)
        spans, ids, local = self.spans, self._ids, self._local
        thread_time, perf_counter, get_ident = time.thread_time, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            wall0 = perf_counter()
            cpu0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu1 = thread_time()
                wall1 = perf_counter()
                stack.pop()
                work = work_of(result) if work_of is not None and result is not None else 0
                spans.append(Span(span_id, name, get_ident(), parent, cpu0, cpu1, wall0, wall1, work))

        return traced


def public_functions(package: str = "gibbsqfi") -> dict[str, object]:
    """``{"<layer>.<function>": function}`` for every traced public function."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


@contextlib.contextmanager
def traced(recorder: Recorder, package: str = "gibbsqfi"):
    """Patch every namespace of ``package`` for the duration of the block."""
    wrappers = {id(fn): (fn, recorder.wrap(key, fn)) for key, fn in public_functions(package).items()}
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if value is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def summarize(spans: list[Span], busy_s: float) -> dict:
    """Calls, self time and work counts per function, and self time per layer.

    A span's self time is its duration minus the durations of its child
    spans.  Children share their parent's thread, so they never overlap
    one another or outlast the parent.  ``unattributed_s`` is the part of
    ``busy_s`` that no span's self time covers.
    """
    child_s: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + (span.cpu1 - span.cpu0)
    functions: dict[str, dict] = {}
    layers: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        self_s = (span.cpu1 - span.cpu0) - child_s.get(span.id, 0.0)
        entry = functions.setdefault(span.name, {"calls": 0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["work"] += span.work
        layer = span.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return {
        "functions": functions,
        "layers": layers,
        "busy_s": busy_s,
        "unattributed_s": busy_s - sum(layers.values()),
    }


def write_spans(spans: list[Span], path, header: dict):
    """Write a header object, then one JSON array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "columns": list(Span._fields)}, sort_keys=True) + "\n")
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")
