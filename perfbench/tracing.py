"""Span tracer that times bellforge from outside the library.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper that records a span, in every bellforge module that holds the function
as an attribute. Names one module imports from another (`bell.coherent_cp1`,
`bell.sample_fubini_study`, `cli.verify_antimap`) are therefore timed too.
`uninstall()` puts the originals back. Spans stay in memory until `dump()`.

Spans are stored as columns: span i has a name, start and end times, the index
of its enclosing span (-1 for none), a pass id, and optionally a dict of
counts computed from the call's arguments (quadrature nodes, rows drawn, bytes
of the drawn array). Times are `time.perf_counter()` values, which share one
monotonic clock across the processes of a machine, so spans written by a child
process can be placed under the parent's span for that child.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("projective", "coherent", "flatmaps", "quadrature", "bell", "analysis", "fourier", "cli")
COMPLEX_BYTES = 16


def _work_counters(quadrature):
    """Counts computed from the arguments, keyed by the span name they attach to."""

    def cp1_nodes(f, two_j, spec=None):
        spec = spec or quadrature.QuadratureSpecCP1.for_spin(two_j)
        return {"quadrature.nodes": spec.radial_nodes * spec.angular_nodes}

    def cp2_nodes(f, spec=None):
        spec = spec or quadrature.QuadratureSpecCP2()
        return {"quadrature.nodes": spec.simplex_nodes**2 * spec.angular_nodes**2}

    def draws(n, spec):
        # bytes of the returned complex128 rows, computed from the shape
        return {
            "quadrature.samples": spec.samples,
            "quadrature.sample_bytes": spec.samples * (n + 1) * COMPLEX_BYTES,
        }

    return {
        "quadrature.integrate_cp1": cp1_nodes,
        "quadrature.integrate_cp2": cp2_nodes,
        "quadrature.sample_fubini_study": draws,
    }


def _public_functions(layers: dict):
    """(span name, function) for each public function a layer module defines."""
    for layer, module in layers.items():
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{layer}.{attr}", obj


def _layer_modules() -> dict:
    return {name: importlib.import_module(f"bellforge.{name}") for name in LAYERS}


def traced_names() -> set[str]:
    """Span names install() would record, without installing anything."""
    return {name for name, _ in _public_functions(_layer_modules())}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.passes = array("q")
        self.work: dict[int, dict] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, work) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.passes.append(self.pass_id)
        self.ends.append(0.0)
        if work:
            self.work[index] = work
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, counter(*args, **kwargs) if counter else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def adopt(self, columns: dict) -> None:
        """Append spans written by a child process under the span open now."""
        parent = self._stack[-1] if self._stack else -1
        offset = len(self.names)
        self.names.extend(columns["names"][i] for i in columns["name"])
        self.starts.extend(columns["start"])
        self.ends.extend(columns["end"])
        self.parents.extend(up + offset if up >= 0 else parent for up in columns["parent"])
        self.passes.extend(self.pass_id for _ in columns["parent"])
        self.work.update({int(i) + offset: counts for i, counts in columns["work"].items()})

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("bellforge")
        layers = _layer_modules()
        counters = _work_counters(layers["quadrature"])
        wrappers = {
            fn: self._wrap(name, fn, counters.get(name)) for name, fn in _public_functions(layers)
        }
        holders = [package] + [
            sys.modules[name] for name in sorted(sys.modules) if name.startswith("bellforge.")
        ]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- output ----------------------------------------------------------

    def columns(self) -> dict:
        table = sorted(set(self.names))
        position = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "name": [position[name] for name in self.names],
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "pass": self.passes.tolist(),
            "work": {str(i): counts for i, counts in self.work.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.columns(), handle)


def load(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for a, b in sorted((starts[c], ends[c]) for c in children[index]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        result.append(end - start - covered)
    return result
