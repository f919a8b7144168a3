"""Span recorder for the traced benchmark run.

A span is one call a job makes into a public function of the program, or
one piece of the benchmark's own glue: name, start, end, parent span and
job id. Spans stay in memory until the run ends. The untraced run uses
NULL_TRACER, which calls straight through and records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

ROOT = "job"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_name(fn) -> str:
    """'<module>.<function>' for a function of the program, e.g.
    'response.susceptibility_forward'."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._in_wrapped = False
        self.job = -1

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.job))

    def call(self, fn, *args, **kwargs):
        with self.span(span_name(fn)):
            return fn(*args, **kwargs)

    @contextmanager
    def wrapped(self, targets):
        """Replace each (module, attribute, span name) with a spanned wrapper
        for the duration of the block, so calls made inside the program at
        that name are recorded too."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for (mod, attr, fn), (_, _, name) in zip(saved, targets):
                setattr(mod, attr, self._wrap(fn, name))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if self._in_wrapped:  # the program calling itself, e.g. one route via another
                return fn(*args, **kwargs)
            self._in_wrapped = True
            try:
                with self.span(name):
                    return fn(*args, **kwargs)
            finally:
                self._in_wrapped = False

        return traced


class _NullTracer:
    """Calls straight through; patches nothing and records nothing."""

    _NULL = nullcontext()

    def span(self, name):
        return self._NULL

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrapped(self, targets):
        return self._NULL


NULL_TRACER = _NullTracer()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


@dataclass(frozen=True)
class JobProfile:
    """Per-name totals of one job's spans, and the job's own wall time."""

    self_s: dict[str, float]
    duration_s: dict[str, float]
    wall_s: float

    @property
    def uncovered_s(self) -> float:
        """Time inside the job that no layer or glue span accounts for."""
        return self.self_s.get(ROOT, 0.0)

    @property
    def coverage(self) -> float:
        return 1.0 - self.uncovered_s / self.wall_s


def job_profiles(spans: list[Span]) -> dict[int, JobProfile]:
    """Fold each job's spans into per-name self and total times. Every job
    must have exactly one ROOT span enclosing the rest."""
    selfs = self_times(spans)
    by_job: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_job[s.job].append(s)
    out = {}
    for job, group in by_job.items():
        roots = [s for s in group if s.name == ROOT]
        if len(roots) != 1:
            raise ValueError(f"job {job} has {len(roots)} root spans")
        self_s: dict[str, float] = defaultdict(float)
        duration_s: dict[str, float] = defaultdict(float)
        for s in group:
            self_s[s.name] += selfs[s.id]
            duration_s[s.name] += s.duration
        out[job] = JobProfile(dict(self_s), dict(duration_s), roots[0].duration)
    return out
