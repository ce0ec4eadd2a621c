"""In-memory span recorder for the benchmark's traced pass.

A span is ``(id, name, start, end, parent)`` on ``time.perf_counter``,
which is the system-wide monotonic clock on Linux, so spans recorded in
a child process can be grafted under the parent span that launched it.
Spans stay in memory until :meth:`Tracer.tree` renders them; a disabled
tracer records nothing, so the same code runs traced and untraced.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def adopt(self, spans: List[Dict], parent: Optional[int]) -> None:
        """Graft spans recorded elsewhere (e.g. a child process) under ``parent``."""
        if not self.enabled:
            return
        offset = len(self.spans)
        for span in spans:
            own = span["parent"]
            self.spans.append(
                dict(
                    span,
                    id=span["id"] + offset,
                    parent=parent if own is None else own + offset,
                )
            )

    def tree(self) -> List[Dict]:
        """Root spans with nested ``children``, each with duration and self time.

        Self time is a span's duration minus the part of it its children
        cover; children of one parent never overlap here, because every
        span is opened and closed on one thread of control.
        """
        nodes = {
            s["id"]: dict(s, duration_s=s["end"] - s["start"], children=[])
            for s in self.spans
        }
        roots = []
        for node in nodes.values():
            parent = node["parent"]
            (nodes[parent]["children"] if parent is not None else roots).append(node)
        for node in nodes.values():
            covered = sum(
                min(c["end"], node["end"]) - max(c["start"], node["start"])
                for c in node["children"]
            )
            node["self_s"] = node["duration_s"] - max(covered, 0.0)
        return roots

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = {}

        def walk(node: Dict) -> None:
            totals[node["name"]] = totals.get(node["name"], 0.0) + node["self_s"]
            for child in node["children"]:
                walk(child)

        for root in self.tree():
            walk(root)
        return totals
