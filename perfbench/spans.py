"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces a function at the name its caller looks it up
by (a module global such as ``repro.core.server.accept_secure``, or a
class attribute such as ``KeyPair.from_pem``) with a wrapper that
records one span per call: ``(id, parent, name, start, end)``.  A
thread-local stack supplies the parent, so a request served on one
worker thread forms one tree whose root is the ``handle_link`` span.

Spans stay in a list until the run ends and are then written out.
:func:`layer_totals` turns them into per-name inclusive and self times;
self time is a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans for the functions it patches while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        """``func`` with a span named ``name`` around every traced call.

        The enabled flag is read once, at entry: a call that started
        traced always finishes its span, one that started untraced never
        records one (its traced children become orphans, which
        :func:`layer_totals` drops).
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper (undone by :meth:`unpatch`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def load_spans(path: Path) -> list[tuple[int, int | None, str, float, float]]:
    return [tuple(span) for span in json.loads(path.read_text())]


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(parts):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def span_trees(spans, root: str):
    """Keep the spans that descend from a span named ``root``.

    Returns ``(kept, children)``: ``kept`` maps id to span, ``children``
    maps id to the ids of its direct children among the kept spans.
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span[0])
    kept: dict[int, tuple] = {}
    todo = [span[0] for span in spans if span[2] == root and span[1] is None]
    while todo:
        span_id = todo.pop()
        kept[span_id] = by_id[span_id]
        todo.extend(children.get(span_id, ()))
    return kept, {k: [c for c in v if c in kept] for k, v in children.items() if k in kept}


def self_times(kept, children) -> dict[int, float]:
    """Self time of every span of :func:`span_trees`' result, by span id."""
    out = {}
    for span_id, (_, _, _, start, end) in kept.items():
        parts = [(kept[c][3], kept[c][4]) for c in children.get(span_id, ())]
        out[span_id] = (end - start) - covered((start, end), parts)
    return out


def layer_totals(spans, root: str) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, inclusive ``total`` and ``self`` seconds."""
    kept, children = span_trees(spans, root)
    selfs = self_times(kept, children)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for span_id, (_, _, name, start, end) in kept.items():
        row = out[name]
        row["count"] += 1
        row["total"] += end - start
        row["self"] += selfs[span_id]
    return dict(out)
