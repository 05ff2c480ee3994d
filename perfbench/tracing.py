"""In-process span tracing of ``aoi_csma_game.cli.main``, without editing src/.

The recorder replaces, for the duration of one call, the names that ``cli``
imported from the other package modules with timing wrappers, then calls
``cli.main(argv)`` itself. Each wrapped call becomes a span (call id, name,
start, end, parent); spans stay in memory and are written out once, when
the benchmark ends. A span's self time is its duration minus the part its
child spans cover.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Layer (package module) -> public functions that cli calls through its own
# namespace. A name cli no longer imports is skipped and reports zero calls.
TRACED = {
    "scenario": ("load_scenario",),
    "game": (
        "age_pmf",
        "expected_age_after",
        "success_probability_of",
        "collision_probability",
        "idle_probability",
    ),
    "equilibrium": ("msne_closed_form", "check_weak_dominance", "enumerate_pure_nash"),
    "simulate": ("run_monte_carlo", "simulate_age_trajectory"),
}
ROOT = "cli.main"


@dataclass
class Span:
    call: int
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, call: int, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(call, name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index].start, self.spans[index].end = start, end

        return traced

    def traced_main(self, call: int, cli, argv: list[str]) -> tuple[int, str, str]:
        """Run ``cli.main(argv)`` with every TRACED name wrapped.

        Returns (exit code, stdout, stderr); cli's output is captured rather
        than mixed into the benchmark's own.
        """
        saved = {}
        for layer, names in TRACED.items():
            for name in names:
                if hasattr(cli, name):
                    saved[name] = getattr(cli, name)
                    setattr(cli, name, self.wrap(call, f"{layer}.{name}", saved[name]))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.wrap(call, ROOT, cli.main)(argv)
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
        return code, out.getvalue(), err.getvalue()

    def call_summary(self, call: int) -> dict[str, float]:
        """Total seconds and call count per span name, plus cli.main self time."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.call == call]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for i, s in spans:
            out[f"{s.name}.s"] += s.duration
            out[f"{s.name}.calls"] += 1
            if s.name == ROOT:
                out["cli.self_s"] += s.duration - child_time[i]
        return out

    def as_json(self) -> list[dict]:
        return [
            {"call": s.call, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def median_summary(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over traced calls; a name missing from a call counts as 0."""
    names = set().union(*summaries)
    return {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in names}
