"""In-memory spans around horicert's public functions.

A :class:`Tracer` replaces each function at the name its caller looks it
up under (``contraction`` imports ``canonical_form`` by name, so the patch
goes on ``horicert.contraction.canonical_form``), records one span per call
(name, start, end, parent) and restores every original on exit.  Spans stay
in memory; :meth:`Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1)
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_call=None):
        """``fn`` recording a span per call.

        ``name`` is a span name or a function of the call's result that
        returns one; ``on_call(counts, args, result)`` may add counters.
        """
        stack = self._stack
        spans = self.spans
        fixed = None if callable(name) else self._name_id(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (self._name_id("error"), start, perf_counter(), parent)
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (fixed if fixed is not None else self._name_id(name(result)), start, end, parent)
            if on_call is not None:
                on_call(self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_call=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (nid, start, end, _) in enumerate(self.spans):
            out[self.names[nid]] += end - start - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for nid, _, _, _ in self.spans:
            out[self.names[nid]] += 1
        return out

    def calls_under(self, name: str, ancestors: set[str]) -> int:
        """Spans called ``name`` with an ancestor named in ``ancestors``."""
        target = self._name_ids.get(name)
        wanted = {self._name_ids[a] for a in ancestors if a in self._name_ids}
        count = 0
        for nid, _, _, parent in self.spans:
            if nid != target:
                continue
            while parent >= 0:
                pid = self.spans[parent][0]
                if pid in wanted:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path) -> None:
        """Save the spans as ``{"names": [...], "spans": [[name, start, end, parent], ...]}``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))

