"""In-memory span recorder wrapped around the program's public entry points.

The benchmark traces from the outside: :func:`wrap` replaces a bound
method on one *instance* with a timing shim, so the program itself runs
unchanged (observability stays off and every fast path it selects stays
engaged).  Each call becomes one span — name, start, end and the
enclosing wrapped call as its parent — appended to preallocated-growth
arrays and written out once, at the end of the run.

Spans opened on a thread whose own stack is empty (the HTTP front
door's thread) take the caller-set :attr:`SpanRecorder.remote_parent`
as their parent: the in-flight client request that caused them.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["SpanRecorder", "wrap", "LayerStats"]


class SpanRecorder:
    """Append-only span store; one instance per traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: Parent for spans opened on a thread with no open span of its
        #: own (set around a cross-thread request, -1 otherwise).
        self.remote_parent = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, nid: int) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else self.remote_parent)
            self.end.append(0)
            self.start.append(self.clock())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        t = self.clock()
        self._stack().pop()
        self.end[sid] = t

    def __len__(self) -> int:
        return len(self.name)

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span as one JSON document (columns, not objects)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def wrap(
    rec: SpanRecorder,
    obj: Any,
    attr: str,
    name: str,
    after: Callable[[tuple, Any], None] | None = None,
) -> None:
    """Shadow ``obj.attr`` with a span-recording shim on this instance
    only.  ``after(args, result)`` runs outside the span, for counts
    taken at the same boundary."""
    inner = getattr(obj, attr)
    nid = rec.name_id(name)

    def shim(*args: Any, **kwargs: Any) -> Any:
        sid = rec.open(nid)
        try:
            result = inner(*args, **kwargs)
        finally:
            rec.close(sid)
        if after is not None:
            after(args, result)
        return result

    setattr(obj, attr, shim)


class LayerStats:
    """Per-name self time and duration percentiles over a recorder.

    Self time is a span's duration minus its direct children's; children
    never outlive their parent (calls nest, and the cross-thread front
    door answers before the client span closes).
    """

    def __init__(self, rec: SpanRecorder) -> None:
        n = len(rec)
        self.names = rec.names
        name = np.frombuffer(rec.name, dtype=np.int32, count=n)
        start = np.frombuffer(rec.start, dtype=np.int64, count=n)
        end = np.frombuffer(rec.end, dtype=np.int64, count=n)
        parent = np.frombuffer(rec.parent, dtype=np.int32, count=n)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        self._by_name: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for nid, label in enumerate(rec.names):
            mask = name == nid
            self._by_name[label] = (dur[mask], self_ns[mask])

    def calls(self, label: str) -> int:
        return int(self._by_name[label][0].size) if label in self._by_name else 0

    def self_ms(self, label: str) -> float:
        if label not in self._by_name:
            return 0.0
        return float(self._by_name[label][1].sum()) / 1e6

    def pct_us(self, label: str, q: float) -> float:
        if self.calls(label) == 0:
            return 0.0
        return float(np.percentile(self._by_name[label][0], q)) / 1e3
