"""In-memory span recorder for the traced run.

Spans are opened by the benchmark's own code around each call it makes into
a layer's public function.  Each span records its name, start, end, parent
and run id; nothing is written until the run ends.  A span's self time is
its duration minus the time covered by its direct children.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Sum of self times per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(
            {
                "name": self.name,
                "parent": t._open[-1] if t._open else None,
                "run": t.run_id,
                "start": perf_counter(),
                "end": None,
            }
        )
        t._open.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index]["end"] = perf_counter()
        t._open.pop()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


NO_SPAN = _NoSpan()


def no_span(name: str) -> _NoSpan:
    """Stand-in for Tracer.span when tracing is off."""
    return NO_SPAN
