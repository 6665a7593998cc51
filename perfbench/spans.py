"""In-memory span recording around the package's public functions.

A traced pass wraps every public function of the listed modules at every
module attribute that refers to it, so a call made through a re-imported
name (``attacks.helstrom_binary_mixed``, ``cipher.make_psk``) is recorded
under the defining module's name (``detection.helstrom_binary_mixed``,
``constellation.make_psk``).  Spans live in memory and are written out when
the pass ends; self time is computed afterwards from the span tree.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    key: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """Per-call hooks for one span name, fed the call's bound arguments.

    ``key`` labels the span (for example the register a stream comes from);
    ``counts`` returns counter increments attributed to the call.
    """

    key: Callable[[dict], str] | None = None
    counts: Callable[[dict], dict[str, int]] | None = None


class Recorder:
    """Collects nested spans of one thread plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, key: str | None = None):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, self._clock(), float("nan"), parent, key)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = self._clock()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if probe:
                bound = signature.bind(*args, **kwargs).arguments
                key = probe.key(bound) if probe.key else None
                if probe.counts:
                    self.counters.update(probe.counts(bound))
            with self.span(name, key):
                return fn(*args, **kwargs)

        return traced


def span_name(fn: Callable) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(recorder: Recorder, modules: Iterable, probes: dict[str, Probe]) -> Callable[[], None]:
    """Wrap the public functions defined in ``modules`` wherever they are bound.

    Returns a function that puts every original back.
    """
    modules = list(modules)
    wrappers: dict[Callable, Callable] = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                name = span_name(value)
                wrappers[value] = recorder.wrap(name, value, probes.get(name))
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                patched.append((mod, attr, value))

    def restore() -> None:
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return restore


def self_times(spans: list[Span]) -> Counter[str]:
    """Total self time per span name: duration minus direct children's durations.

    Spans of one thread nest, so a span's children are disjoint intervals
    inside it and their durations add without overlap.
    """
    child_time: Counter[int] = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: Counter[str] = Counter()
    for s in spans:
        out[s.name] += s.duration - child_time[s.id]
    return out


def call_counts(spans: list[Span]) -> Counter[str]:
    return Counter(s.name for s in spans)


def total_duration(spans: list[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def first_per_key(spans: list[Span], name: str) -> float:
    """Summed duration of the first ``name`` span for each distinct key."""
    seen: dict[str | None, float] = {}
    for s in sorted((s for s in spans if s.name == name), key=lambda s: s.start):
        seen.setdefault(s.key, s.duration)
    return sum(seen.values())


def top_level_time(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)


def to_dicts(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def from_dicts(rows: list[dict]) -> list[Span]:
    return [Span(**r) for r in rows]
