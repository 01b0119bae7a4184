"""In-memory spans around the public calls into each layer.

The traced run wraps calls from outside the program: an instance
attribute (``service.monitor.on_events``), a class attribute (used inside
the server process, where instances do not exist yet) or a module
function (``repro.engine.procshard.route_batch``).  Each call records one
span -- run id, span id, parent span id, name, start, end -- in a list
that is written out only when the run ends.  A layer's self time is its
spans' time minus the time their child spans cover (:func:`self_times`).

Span names are ``<layer>.<call>``; the layer is the text before the
first dot, except ``core.apply`` and ``core.query``, which split the core
layer into ingest and query work.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (run id, span id, parent id or 0, name, start, end).
Span = Tuple[str, int, int, str, float, float]

#: One wrapping target: (owner object, attribute name, span name).
Target = Tuple[Any, str, str]


class SpanRecorder:
    """Wraps callables so every call records a span."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._installed: List[Tuple[Any, str, bool, Any]] = []

    def wrap(self, name: str, func: Callable,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """A callable that runs ``func`` inside a span called ``name``;
        ``on_result`` sees each return value (e.g. to count routed work)."""
        spans = self.spans
        stack = self._stack
        run_id = self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((run_id, span_id, parent, name, started, ended))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, owner: Any, attribute: str, name: str,
                on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attribute`` by its traced form.

        On a class the raw function is wrapped, so it still binds as a
        method; on an instance or module the bound attribute is wrapped.
        """
        own = vars(owner)
        had_own = attribute in own
        previous = own.get(attribute)
        func = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, func, on_result))
        self._installed.append((owner, attribute, had_own, previous))

    def install_all(self, targets: Iterable[Target]) -> None:
        for owner, attribute, name in targets:
            self.install(owner, attribute, name)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attribute, had_own, previous = self._installed.pop()
            if had_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the spans (and any run facts) as one JSON document."""
        document = dict(extra or {})
        document["run_id"] = self.run_id
        document["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream)


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    head, _, rest = name.partition(".")
    if head == "core":
        return "core." + rest.partition(".")[0]
    return head


def _covered(intervals: List[Tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the part of it its children
    cover, so nested layers are not counted twice.
    """
    spans = list(spans)
    children: Dict[Tuple[str, int], List[Tuple[float, float]]] = \
        defaultdict(list)
    for run_id, _span_id, parent, _name, start, end in spans:
        if parent:
            children[(run_id, parent)].append((start, end))
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for run_id, span_id, _parent, name, start, end in spans:
        row = table[name]
        duration = end - start
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - _covered(
            children.get((run_id, span_id), []), start, end)
    return dict(table)


def layer_self_times(table: Dict[str, Dict[str, float]]
                     ) -> Dict[str, float]:
    """Self time summed per layer (see :func:`layer_of`)."""
    layers: Dict[str, float] = defaultdict(float)
    for name, row in table.items():
        layers[layer_of(name)] += row["self_s"]
    return dict(layers)
