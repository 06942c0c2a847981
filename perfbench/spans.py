"""Spans around the calls into shiftrank's modules, and the layer figures.

A span is a dict with name, start, end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so shared by a parent and its children),
parent (index of the enclosing span, or None) and query (the query id, or
None in set-up and warm-up).  Spans stay in memory; the benchmark writes
them out when it ends.  A layer's self time is its span minus the spans of
its children.

``install`` wraps the public functions below wherever a shiftrank module
holds them, so calls made inside the library (``engine`` calling
``truncate`` and ``get_family``) are recorded as well.  shiftrank itself is
not changed.
"""

from __future__ import annotations

import statistics
import sys
import time

TRACED = (
    ("shiftrank.expressions", "parse_expr", "expressions.parse"),
    ("shiftrank.crossed", "truncate", "crossed.truncate"),
    ("shiftrank.towers", "get_family", "towers.get_family"),
    ("shiftrank.engine", "rank_interval", "engine.rank_interval"),
)


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.query: str | None = None
        self._stack: list[int] = []
        self._families: dict[tuple, object] = {}

    def add(self, name: str, start: float, end: float) -> None:
        """A span measured outside this process, such as a child's start."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": None, "query": self.query})

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "query": self.query}
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._annotate(span, args, kwargs, result)
            return result

        return traced

    def _annotate(self, span: dict, args, kwargs, result) -> None:
        if span["name"] == "towers.get_family":
            # a miss returns another object than the last call with this key
            key = (*args, *sorted(kwargs.items()))
            span["miss"] = self._families.get(key) is not result
            self._families[key] = result
            span["words"] = len(result.words)
        elif span["name"] == "engine.rank_interval":
            span["words"] = result.words_used
            span["dim"] = result.dim
            span["field"] = result.field_name


def install(recorder: Recorder) -> None:
    """Replace each traced function by its wrapper in every shiftrank module."""
    for module, attr, name in TRACED:
        original = getattr(sys.modules[module], attr)
        wrapper = recorder.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "shiftrank" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Times of the traced layers; query-path figures are per query."""
    own = _self_times(spans)
    starts = [s["end"] - s["start"] for s in spans if s["name"] == "cli.start"]
    parses = [s["end"] - s["start"] for s in spans if s["name"] == "expressions.parse"]
    misses = [s for s in spans if s["name"] == "towers.get_family" and s["miss"]]
    miss_time = sum(s["end"] - s["start"] for s in misses)
    miss_words = sum(s["words"] for s in misses)
    timed = [i for i, s in enumerate(spans)
             if s["name"] == "engine.rank_interval" and s["query"] is not None]
    timed_set = set(timed)
    truncate_time = sum(s["end"] - s["start"] for s in spans
                        if s["name"] == "crossed.truncate" and s["parent"] in timed_set)
    engine = {"q": [], "fp": [], "matrix": []}
    words = 0
    for i in timed:
        s = spans[i]
        cls = "matrix" if s["dim"] > 1 else ("q" if s["field"] == "Q" else "fp")
        engine[cls].append(own[i])
        words += s["words"]
    engine_time = sum(own[i] for i in timed)
    return {
        "cli.start_s": statistics.median(starts) if starts else 0.0,
        "expressions.parse_s": statistics.fmean(parses) if parses else 0.0,
        "crossed.truncate_s": _ratio(truncate_time, len(timed)),
        "towers.enumerate_s": _ratio(miss_time, len(misses)),
        "towers.words": _ratio(miss_words, len(misses)),
        "towers.words_per_s": _ratio(miss_words, miss_time),
        "engine.rank_s.q": statistics.fmean(engine["q"]) if engine["q"] else 0.0,
        "engine.rank_s.fp": statistics.fmean(engine["fp"]) if engine["fp"] else 0.0,
        "engine.rank_s.matrix":
            statistics.fmean(engine["matrix"]) if engine["matrix"] else 0.0,
        "engine.words_per_s": _ratio(words, engine_time),
    }
