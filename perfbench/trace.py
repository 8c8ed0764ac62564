"""Outside-in span tracing for the rosdos package.

The tracer replaces a layer function with a wrapper that records a span, in
every rosdos module that binds it: the package imports many names directly
(``from .numerics import svd``), so patching the defining module alone would
miss most calls. ``installed`` puts every original back when it exits.

Spans stay in memory; ``write`` saves them when the run ends. Times come from
``time.perf_counter``, which on Linux is CLOCK_MONOTONIC and so comparable
between processes of one machine.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
import uuid
from collections import defaultdict

PACKAGE = "rosdos"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error", "info")

    def __init__(self, id, parent, name, start, end=None, error=None, info=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.error = error      # exception class name when the call raised
        self.info = info        # small per-call facts set by a result hook

    @property
    def duration(self):
        return self.end - self.start

    def to_record(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans for one run; all spans share ``run_id``."""

    def __init__(self, run_id=None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans = []
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        """Return fn wrapped in a span; on_result(span, args, result) may
        record facts about a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target while the block runs, then restore the originals.

        A target is (span name, module name, attribute, on_result); the
        attribute may be ``Class.method``, whose class holds its only binding.
        """
        modules = [
            module for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        try:
            for name, module_name, attr, on_result in targets:
                owner = importlib.import_module(module_name)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                wrapper = self.wrap(name, original, on_result)
                if outer:
                    self._patch(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            yield self
        finally:
            while self._patches:
                owner, key, original = self._patches.pop()
                setattr(owner, key, original)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def adopt(self, records):
        """Append spans recorded elsewhere (another process) under the
        currently open span, renumbering their ids."""
        base = len(self.spans)
        parent = self._stack[-1].id if self._stack else None
        for rec in records:
            self.spans.append(Span(
                base + rec["id"],
                parent if rec["parent"] is None else base + rec["parent"],
                rec["name"], rec["start"], rec["end"], rec["error"], rec["info"],
            ))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id,
                 "spans": [s.to_record() for s in self.spans]},
                fh,
            )


def self_times(spans):
    """Map span id to its duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children[s.id]):
            a = max(a, reach)
            b = min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


def root_names(spans):
    """Map span id to the name of its outermost ancestor (itself if a root)."""
    out = {}
    for s in spans:   # parents precede their children in the list
        out[s.id] = s.name if s.parent is None else out[s.parent]
    return out
