"""Span tracing around revivalkit's public calls, installed from outside.

A ``Tracer`` replaces a function at the name its caller looks it up
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and the point it belongs to.
Work counts taken from a call's arguments or result are added to the
current point at the same boundary.  Spans stay in memory until
``write`` dumps them; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        # (parent, point, name, start, end); index in the list is the span id
        self.spans: list[tuple | None] = []  # None while the call runs
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.point = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls of ``owner.attr``; ``count(args, kwargs, result)`` yields (key, n) pairs."""
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(span)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (parent, self.point, name, start, end)
            if count is not None:
                point_counts = counts[self.point]
                for key, n in count(args, kwargs, result):
                    point_counts[key] += n
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summaries(self) -> dict:
        """Per point: busy time and calls per name, self time per layer, top-level cover.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because every traced call runs on one thread.
        A name's layer is the part before its first dot.
        """
        child_time: Counter = Counter()
        for parent, _, _, start, end in self.spans:
            if parent != NO_PARENT:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {
            "busy": Counter(), "calls": Counter(), "self": Counter(), "covered": 0.0,
        })
        for i, (parent, point, name, start, end) in enumerate(self.spans):
            summary = out[point]
            summary["busy"][name] += end - start
            summary["calls"][name] += 1
            summary["self"][name.split(".", 1)[0]] += end - start - child_time[i]
            if parent == NO_PARENT:
                summary["covered"] += end - start
        for point, summary in out.items():
            summary["counts"] = self.counts[point]
        return dict(out)

    def write(self, path: Path) -> None:
        """Dump every span, one JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write('["span", "parent", "point", "name", "start", "end"]\n')
            for i, span in enumerate(self.spans):
                out.write(json.dumps([i, *span]) + "\n")
