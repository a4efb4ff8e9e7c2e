"""Span recording from outside the program: pass-through wrappers.

The traced run wraps the objects the benchmark hands to the program (a
scheduler, a collector, a live plane, SLO monitors, a replication
controller, an arrival iterator) so that every call across a layer
boundary becomes a span.  A span is ``(name, start, end, parent,
cell)``; spans are kept in memory as typed arrays and written once, at
the end of the run.

A layer's *self time* is the duration of its spans minus the part of it
covered by their direct children: the engine's ``run`` span minus the
scheduler hooks, collector records and live-plane calls made inside it.
Untraced runs use the bare objects; nothing here is on their path.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

__all__ = ["Tracer", "Proxy", "traced_iter"]


class Tracer:
    """In-memory span recorder with explicit parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._cell = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        #: Index of the cell the spans being recorded belong to.
        self.cell = -1
        #: Exact counts measured at the same boundaries as the spans.
        self.counts: Counter[str] = Counter()

    def name_id(self, name: str, layer: str) -> int:
        """Register span ``name`` as belonging to ``layer``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._cell.append(self.cell)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        index = self.begin(self.name_id(name, layer))
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name, layer)
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return traced

    # -- analysis ------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the time its
        direct children cover."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        durations = np.frombuffer(self._end, dtype=float) - np.frombuffer(
            self._start, dtype=float
        )
        covered = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(covered, parents[nested], durations[nested])
        own = np.bincount(names, weights=durations - covered, minlength=len(self.names))
        out: dict[str, float] = {}
        for nid, seconds in enumerate(own):
            layer = self.layers[nid]
            out[layer] = out.get(layer, 0.0) + float(seconds)
        return out

    def calls(self) -> dict[str, int]:
        """Number of spans per span name."""
        counts = np.bincount(
            np.frombuffer(self._name, dtype=np.int32), minlength=len(self.names)
        )
        return {name: int(n) for name, n in zip(self.names, counts)}

    def save(self, path: Path) -> None:
        """Write every span (names resolved) to ``path`` as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            cell=np.frombuffer(self._cell, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=float),
            end=np.frombuffer(self._end, dtype=float),
        )


class Proxy:
    """Forwards every attribute to ``inner``; the listed methods are
    recorded as spans ``<layer>.<method>``.

    Attribute writes go to ``inner`` too, so a caller that configures
    the object it was given (``controller.telemetry = ...``) configures
    the real one.
    """

    def __init__(
        self, inner: Any, tracer: Tracer, layer: str, methods: Iterable[str]
    ) -> None:
        object.__setattr__(self, "_inner", inner)
        for method in methods:
            object.__setattr__(
                self,
                method,
                tracer.wrap(getattr(inner, method), f"{layer}.{method}", layer),
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._inner, name, value)


def traced_iter(items: Iterable[Any], tracer: Tracer, layer: str) -> Iterator[Any]:
    """Iterate ``items`` recording each ``next`` (the lazy generation
    of one element) as a span; counts elements as ``<layer>.items``."""
    nid = tracer.name_id(f"{layer}.next", layer)
    iterator = iter(items)
    while True:
        index = tracer.begin(nid)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.finish(index)
        tracer.counts[f"{layer}.items"] += 1
        yield item
