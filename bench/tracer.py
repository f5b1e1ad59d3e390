"""Spans and counters around cvgfa's public functions, installed from outside.

The package binds functions by name across modules (``engine`` imports
``init_state``, ``active_factors`` and the ``approx`` functions; ``cli``
imports ``generate`` and ``active_factors``), so wrapping a function only in
its defining module would miss most calls. ``Tracer.install`` therefore
replaces every binding of a wrapped function in every loaded ``cvgfa``
module, and ``Tracer.uninstall`` puts the originals back.

Spans are aggregated as they close, keyed by (name, parent name), instead of
being stored one by one: a fit at the acceptance size makes about a hundred
thousand ``approx`` calls.
"""

import contextlib
import functools
import inspect
import sys
import time


class SpanStats:
    """Totals for one (span name, parent span name) pair."""

    __slots__ = ("calls", "total_s", "self_s", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.bytes = 0


class Tracer:
    """Times calls to the public functions of the given modules.

    byte_counters maps a span name ("io.read_checkpoint") to a function of
    the call's (args, kwargs) that returns the bytes the call read or wrote,
    computed from file sizes after the call returns.
    """

    def __init__(self, modules, byte_counters=None):
        self.byte_counters = dict(byte_counters or {})
        self.stats = {}
        self._stack = []
        self._wrappers = {}  # original function -> wrapper
        self._bindings = []  # (module, attribute, original)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        count_bytes = self.byte_counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, time covered by child spans]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent else None)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = SpanStats()
                entry.calls += 1
                entry.total_s += elapsed
                entry.self_s += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if count_bytes is not None:
                entry.bytes += count_bytes(args, kwargs)
            return result

        return traced

    def install(self):
        """Replace every binding of a traced function in cvgfa's modules."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    self._bindings.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings = []

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def stray_bindings(self):
        """Bindings that still point at an unwrapped original, as 'module.attr'."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in self._wrappers
        ]

    def total(self, name, parent=None, field="total_s"):
        """Sum of one field over the spans named name (under parent if given)."""
        return sum(
            getattr(entry, field)
            for (span, span_parent), entry in self.stats.items()
            if span == name and (parent is None or span_parent == parent)
        )


def _package_modules():
    return [
        mod
        for mod_name, mod in sorted(sys.modules.items())
        if mod is not None and (mod_name == "cvgfa" or mod_name.startswith("cvgfa."))
    ]
