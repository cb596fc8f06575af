"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions (spans inside the engine are a later change).  A
span is ``(name, start, end, parent, op_id)``; spans of one operation share
its ``op_id``.  They stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Optional

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *_exc: object) -> None:
        tracer = self._tracer
        record = tracer.spans[self._index]
        record[2] = perf_counter()
        tracer._current = record[3]

    @property
    def seconds(self) -> float:
        record = self._tracer.spans[self._index]
        return record[2] - record[1]


class Tracer:
    """Records nested spans; ``op_id`` is set by the runner per operation."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None, op_id]`` per span.
        self.spans: list[list] = []
        self.op_id = -1
        self._current: Optional[int] = None

    def span(self, name: str) -> _Span:
        """Open a span (use as a context manager); nests under the open one."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._current, self.op_id])
        self._current = index
        self.spans[index][1] = perf_counter()
        return _Span(self, index)

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op_id"],
            "spans": [
                [name, round(start - origin, 7), round(end - origin, 7), parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
