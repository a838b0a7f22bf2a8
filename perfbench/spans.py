"""Span recording around genturan's public functions, from outside the package.

A `Tracer` replaces chosen module attributes (the name a caller looks up at
call time) with thin wrappers that record one span per call: a name, start
and end in nanoseconds, the enclosing span and an operation id.  Spans stay in
memory; `write_tsv` dumps them once at the end and `layer_metrics` derives
per-layer counts and self times from them.  `restore` puts every original
attribute back.

Self time of a span is its duration minus the durations of its direct
children.  Calls are single-threaded, so children never overlap and the self
times of all spans add up to the duration of the outermost ones.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

# Spans that group operations rather than being one: an operation id is the id
# of the first span opened below one of these (or at top level).
CONTAINERS = frozenset({"bench.pass", "bench.setup", "cli"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.infos: list[object] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or self.names[parent] in CONTAINERS:
            op = sid
        else:
            op = self.ops[parent]
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.infos.append(None)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int, info: object = None) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()
        if info is not None:
            self.infos[sid] = info

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and self.names[self._stack[-1]] == name

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, info=None) -> None:
        """Record a `name` span around each call of owner.attr.

        `info(args, result)` may return a value stored on the span.  A call made
        while the innermost open span already has this name (a layer calling
        itself) is passed through without a span, so counts are boundary
        crossings."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._inside(name):
                return original(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if info is not None:
                tracer.infos[sid] = info(args, result)
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_iter(self, owner: object, attr: str, name: str) -> None:
        """Record a `name` span around each `next` on the iterator that
        owner.attr returns; a span whose `next` yielded has info True."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return _TracedIter(tracer, name, iter(original(*args, **kwargs)))

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_tsv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tinfo\n")
            for i, name in enumerate(self.names):
                info = self.infos[i]
                fh.write(f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\t"
                         f"{'' if info is None else info}\n")

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        dur = [(e - s) / 1e9 for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own


class _TracedIter:
    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        sid = self._tracer._open(self._name)
        try:
            value = next(self._it)
        except StopIteration:
            self._tracer._close(sid, False)
            raise
        except BaseException:
            self._tracer._close(sid)
            raise
        self._tracer._close(sid, True)
        return value


# Layers whose wrapped calls are reported as `<layer>.calls` and `.self_s`.
CALL_LAYERS = ("graphs.canon", "counting.count", "packing", "graph6",
               "gspec", "constructions")


def layer_metrics(tracer: Tracer, repeat_text=None) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times, as {name: (value, unit)}.

    `repeat_text(info)` maps the info of a `search` span to the text that
    identifies its problem; a call counts as a repeat when that text already
    appeared on an earlier `search` span."""
    own = tracer.self_times()
    names = tracer.names
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]

    out: dict[str, tuple[float, str]] = {}
    enum_classes = sum(1 for i, n in enumerate(names)
                       if n == "graphs.enum" and tracer.infos[i] is True)
    enum_self = self_s.get("graphs.enum", 0.0)
    out["graphs.enum.classes"] = (enum_classes, "count")
    out["graphs.enum.self_s"] = (enum_self, "s")
    out["graphs.enum.classes_per_s"] = (enum_classes / enum_self if enum_self else 0.0, "1/s")

    prune_calls = calls.get("counting.prune", 0)
    rejects = sum(1 for i, n in enumerate(names)
                  if n == "counting.prune" and tracer.infos[i] is False)
    out["counting.prune.calls"] = (prune_calls, "count")
    out["counting.prune.self_s"] = (self_s.get("counting.prune", 0.0), "s")
    out["counting.prune.reject_ratio"] = (rejects / prune_calls if prune_calls else 0.0, "ratio")

    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")

    searches = [i for i, n in enumerate(names) if n == "search"]
    explored = 0
    repeats = 0
    seen: set[str] = set()
    for i in searches:
        problem, result_explored = tracer.infos[i] or (None, 0)
        explored += result_explored
        if repeat_text is not None and problem is not None:
            text = repeat_text(problem)
            repeats += text in seen
            seen.add(text)
    out["search.calls"] = (len(searches), "count")
    out["search.self_s"] = (self_s.get("search", 0.0), "s")
    out["search.explored"] = (explored, "count")
    out["search.repeat_ratio"] = (repeats / len(searches) if searches else 0.0, "ratio")

    checks = [(tracer.ends[i] - tracer.starts[i]) / 1e9
              for i, n in enumerate(names) if n == "verify.check"]
    out["verify.checks"] = (len(checks), "count")
    out["verify.check_p50_s"] = (statistics.median(checks) if checks else 0.0, "s")
    out["verify.check_max_s"] = (max(checks) if checks else 0.0, "s")
    out["verify.self_s"] = (self_s.get("verify.check", 0.0), "s")
    out["verify.report_s"] = (self_s.get("verify.report", 0.0), "s")
    out["cli.self_s"] = (self_s.get("cli", 0.0), "s")

    layer_total = sum(t for n, t in self_s.items() if not n.startswith("bench."))
    wall = sum(tracer.ends[i] - tracer.starts[i]
               for i, parent in enumerate(tracer.parents) if parent < 0) / 1e9
    out["trace.wall_s"] = (wall, "s")
    out["trace.layer_self_s"] = (layer_total, "s")
    out["trace.spans"] = (len(names), "count")
    return out
