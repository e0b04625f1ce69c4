"""In-memory span recorder owned by the benchmark (nothing in ``src/`` knows it).

A span is ``[name, start, end, parent, tag]``.  Synchronous spans come
from wrapping a public callable *on one instance* (``tracer.wrap(kernel,
"matmul", ...)`` sets an instance attribute that shadows the method, so no
class or module of the program under test is patched); their parent is
the span open on the same thread.  Spans that straddle an ``await``
(client requests) are written whole with :meth:`Tracer.record`.  ``tag``
is the request id, the step index, or rows for kernel calls.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

NAME, START, END, PARENT, TAG = range(5)
_ABSENT = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._wrapped: List[tuple] = []

    # -- recording -------------------------------------------------------- #

    def begin(self, name: str, tag: Any = None) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, tag]
        self.spans.append(span)  # list.append is atomic across threads
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[list] = None, tag: Any = None) -> list:
        span = [name, start, end, parent, tag]
        self.spans.append(span)
        return span

    # -- wrapping --------------------------------------------------------- #

    def wrap(self, obj: Any, attr: str, name: str,
             tag: Optional[Callable[..., Any]] = None,
             count: Optional[Callable[..., Dict[str, float]]] = None) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``tag(*args, **kwargs)`` labels the span; ``count(*args, **kwargs)``
        returns counter increments taken at the same boundary.
        """
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            span = self.begin(name, tag(*args, **kwargs) if tag else None)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(span)
                if count is not None:
                    for key, amount in count(*args, **kwargs).items():
                        self.counts[key] += amount

        self.replace(obj, attr, lambda _inner: traced)

    def replace(self, obj: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Shadow ``obj.attr`` with ``make(original)`` (undone by unwrap)."""
        self._wrapped.append((obj, attr, vars(obj).get(attr, _ABSENT)))
        setattr(obj, attr, make(getattr(obj, attr)))

    def unwrap_all(self) -> None:
        """Put back whatever each instance had before (usually nothing)."""
        for obj, attr, previous in reversed(self._wrapped):
            if previous is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._wrapped.clear()

    # -- reading ---------------------------------------------------------- #

    def closed(self) -> List[list]:
        return [span for span in self.spans if span[END] is not None]

    def dump(self, path, extra: Dict[str, Any]) -> None:
        """Write spans (parents as indices, times relative to the first)."""
        spans = self.closed()
        index = {id(span): i for i, span in enumerate(spans)}
        origin = min((span[START] for span in spans), default=0.0)
        rows = [[span[NAME], round(span[START] - origin, 7),
                 round(span[END] - origin, 7),
                 index.get(id(span[PARENT]), -1), span[TAG]]
                for span in spans]
        doc = dict(extra, span_fields=["name", "start_s", "end_s",
                                       "parent", "tag"], spans=rows)
        with open(path, "w") as handle:
            json.dump(doc, handle)


def aggregate(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total`` (s) and ``self`` (s).

    A span's self time is its duration minus the part of it its direct
    children cover (children are clipped to the parent's interval;
    siblings on one thread never overlap).
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[END] is not None:
            overlap = (min(span[END], parent[END])
                       - max(span[START], parent[START]))
            covered[id(parent)] += max(0.0, overlap)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0})
    for span in spans:
        duration = span[END] - span[START]
        row = out[span[NAME]]
        row["count"] += 1
        row["total"] += duration
        row["self"] += duration - covered[id(span)]
    return out
