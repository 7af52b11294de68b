"""Span tracing of latentadapt from outside the package.

``install`` wraps every public function of each layer module and rebinds the
wrapper wherever the package looks the original up: the defining module, any
module that imported the name, and the package namespace. The package source
is never edited; ``uninstall`` puts every original back.

Each call into a wrapped function records one span ``[name, parent, start_ns,
end_ns]``, with ``parent`` the index of the enclosing span (-1 at top level).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# package modules, outermost last; cli is traced by the command spans the
# benchmark opens around ``latentadapt.cli.main``
LAYERS = (
    "rng",
    "linalg",
    "subspace",
    "decoder",
    "cmaes",
    "quant",
    "adapt",
    "datagen",
    "fileio",
    "report",
)

# methods traced on their class (the functions above are module-level only)
METHODS = (("rng", "Xoshiro256pp", "normals"),)

# fileio calls whose first argument's file size is added to a byte counter
_BYTE_COUNTERS = {
    "fileio.read_features": "fileio.bytes_read",
    "fileio.read_artifact": "fileio.bytes_read",
    "fileio.write_features": "fileio.bytes_written",
    "fileio.write_artifact": "fileio.bytes_written",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = _BYTE_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if counter is not None:
                counters[counter] += os.path.getsize(args[0])
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def install(self, package: str = "latentadapt") -> None:
        # ``latentadapt.adapt`` is shadowed by the function of that name, so
        # modules are reached through sys.modules, never by attribute
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, bound, fn))
                            setattr(holder, bound, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            fn = cls.__dict__[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, self.wrap(f"{layer}.{method}", fn))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")


class Profile:
    """Per-name totals of a span list: calls, total and self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[str, int] = defaultdict(int)
        for name, parent, start, end in spans:
            self.calls[name] += 1
            self.total_ns[name] += end - start
            if parent >= 0:
                child_ns[spans[parent][0]] += end - start
        # single-threaded, so direct children never overlap one another
        self.self_ns = {name: self.total_ns[name] - child_ns[name] for name in self.calls}

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def under(self, name: str, ancestors: tuple[str, ...]) -> dict[str, tuple[int, float]]:
        """Calls and seconds of ``name`` spans by nearest listed ancestor."""
        out = {a: [0, 0] for a in ancestors}
        spans = self.spans
        for span_name, parent, start, end in spans:
            if span_name != name:
                continue
            while parent >= 0 and spans[parent][0] not in out:
                parent = spans[parent][1]
            if parent >= 0:
                slot = out[spans[parent][0]]
                slot[0] += 1
                slot[1] += end - start
        return {a: (c, ns / 1e9) for a, (c, ns) in out.items()}
