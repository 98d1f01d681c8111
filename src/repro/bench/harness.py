"""The benchmark registry and timing protocol.

The paper's core claim is quantitative — virtual-target dispatch must be
cheap enough that handlers gain asynchrony "without restructuring the
sequential code" (Section V measures dispatch overhead directly).  Guarding
that claim across PRs needs one harness producing *comparable* numbers, not
sixteen scripts each hand-rolling ``time.perf_counter`` loops.

Protocol
--------
Every benchmark is measured the same way, on the shared ``perf_counter_ns``
clock (the same clock the trace layer stamps events with):

1. *setup* builds the operation under test (and an optional cleanup);
2. ``warmup`` untimed samples prime caches, lazy imports, and thread pools;
3. ``repeats`` timed samples follow, each timing ``number`` back-to-back
   invocations of the operation and recording the mean ns/op;
4. the slowest ``trim`` fraction of samples is discarded before aggregate
   statistics — timer outliers on a busy host are one-sided (GC pauses,
   scheduler preemption), so trimming only the top keeps the floor honest;
5. statistics (min/mean/p50/p95/max) are computed over the kept samples.

The clock is injectable (``Protocol.clock``) so the protocol itself is
testable with a deterministic fake clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.metrics import percentile

__all__ = [
    "Benchmark",
    "BenchResult",
    "Protocol",
    "benchmark",
    "register",
    "unregister",
    "get",
    "all_benchmarks",
    "select",
    "run_benchmark",
    "run_selected",
    "clear_registry",
]


@dataclass(frozen=True)
class Protocol:
    """The shared measurement protocol (see module docstring)."""

    warmup: int = 2
    repeats: int = 10
    trim: float = 0.2
    clock: Callable[[], int] = time.perf_counter_ns

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0.0 <= self.trim < 1.0:
            raise ValueError(f"trim must be in [0, 1), got {self.trim}")


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark.

    *setup* is called once per run and returns either the operation to time
    (a zero-argument callable) or a ``(operation, cleanup)`` pair; *cleanup*
    runs after measurement even if the operation raised.  *number* is the
    inner-loop count per timed sample — raise it until one sample comfortably
    exceeds the clock's resolution (microbenchmarks want hundreds).
    """

    name: str
    setup: Callable[[], Any]
    group: str = "default"
    number: int = 1
    tags: tuple[str, ...] = ()
    description: str = ""
    slow: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.number < 1:
            raise ValueError(f"number must be >= 1, got {self.number}")

    def build(self) -> tuple[Callable[[], Any], Callable[[], None]]:
        """Run setup; normalize to an (operation, cleanup) pair."""
        built = self.setup()
        if isinstance(built, tuple):
            op, cleanup = built
            return op, cleanup
        return built, lambda: None

    def matches(self, pattern: str) -> bool:
        """Substring match against name, group, and tags (case-insensitive)."""
        p = pattern.lower()
        return (
            p in self.name.lower()
            or p in self.group.lower()
            or any(p in t.lower() for t in self.tags)
        )


@dataclass
class BenchResult:
    """Aggregate statistics for one benchmark run (all times in ns/op)."""

    name: str
    group: str
    number: int
    samples_ns: list[float]          # every timed sample (untrimmed)
    kept_ns: list[float] = field(default_factory=list)  # after trimming
    trimmed: int = 0

    @property
    def min_ns(self) -> float:
        return min(self.kept_ns)

    @property
    def max_ns(self) -> float:
        return max(self.kept_ns)

    @property
    def mean_ns(self) -> float:
        return sum(self.kept_ns) / len(self.kept_ns)

    @property
    def p50_ns(self) -> float:
        return percentile(self.kept_ns, 50.0)

    @property
    def p95_ns(self) -> float:
        return percentile(self.kept_ns, 95.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "group": self.group,
            "number": self.number,
            "repeats": len(self.samples_ns),
            "trimmed": self.trimmed,
            "samples_ns": [round(s, 3) for s in self.samples_ns],
            "min_ns": round(self.min_ns, 3),
            "mean_ns": round(self.mean_ns, 3),
            "p50_ns": round(self.p50_ns, 3),
            "p95_ns": round(self.p95_ns, 3),
            "max_ns": round(self.max_ns, 3),
        }


# ------------------------------------------------------------------ registry

_REGISTRY: dict[str, Benchmark] = {}


def register(bench: Benchmark) -> Benchmark:
    """Add *bench* to the process-wide registry.

    Re-registering a name replaces the previous entry — benchmark modules
    are imported both by pytest and by ``python -m repro bench``, and a
    double import must not error.
    """
    _REGISTRY[bench.name] = bench
    return bench


def benchmark(
    name: str,
    *,
    group: str = "default",
    number: int = 1,
    tags: tuple[str, ...] = (),
    description: str = "",
    slow: bool = False,
) -> Callable[[Callable[[], Any]], Benchmark]:
    """Decorator form of :func:`register`::

        @benchmark("dispatch_default", group="dispatch", number=200)
        def _dispatch_default():
            rt = PjRuntime(); rt.create_worker("w", 2)
            op = lambda: rt.invoke_target_block("w", _NOP)
            return op, lambda: rt.shutdown(wait=False)
    """

    def deco(setup: Callable[[], Any]) -> Benchmark:
        return register(
            Benchmark(
                name=name, setup=setup, group=group, number=number,
                tags=tags, description=description or (setup.__doc__ or "").strip(),
                slow=slow,
            )
        )

    return deco


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def clear_registry() -> None:
    """Drop every registered benchmark (test isolation helper)."""
    _REGISTRY.clear()


def get(name: str) -> Benchmark:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no benchmark named {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def all_benchmarks() -> list[Benchmark]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def select(pattern: str | None = None, *, include_slow: bool = False) -> list[Benchmark]:
    """Benchmarks matching *pattern* (None = all), name-sorted.

    Slow benchmarks are excluded unless *include_slow* or the pattern
    matches them explicitly by name.
    """
    out = []
    for b in all_benchmarks():
        if pattern is not None and not b.matches(pattern):
            continue
        if b.slow and not include_slow:
            # An exact-ish name match is an explicit request.
            if pattern is None or pattern.lower() not in b.name.lower():
                continue
        out.append(b)
    return out


# --------------------------------------------------------------------- runner

def run_benchmark(bench: Benchmark, protocol: Protocol | None = None) -> BenchResult:
    """Measure one benchmark under *protocol* and return its statistics."""
    proto = protocol or Protocol()
    clock = proto.clock
    number = bench.number
    op, cleanup = bench.build()
    try:
        for _ in range(proto.warmup):
            for _ in range(number):
                op()
        samples: list[float] = []
        for _ in range(proto.repeats):
            t0 = clock()
            for _ in range(number):
                op()
            t1 = clock()
            samples.append((t1 - t0) / number)
    finally:
        cleanup()
    n_trim = int(len(samples) * proto.trim)
    kept = sorted(samples)[: len(samples) - n_trim] if n_trim else sorted(samples)
    return BenchResult(
        name=bench.name,
        group=bench.group,
        number=number,
        samples_ns=samples,
        kept_ns=kept,
        trimmed=n_trim,
    )


def run_selected(
    pattern: str | None = None,
    protocol: Protocol | None = None,
    *,
    include_slow: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run every benchmark matching *pattern* and return their results."""
    results = []
    for bench in select(pattern, include_slow=include_slow):
        if progress is not None:
            progress(bench.name)
        results.append(run_benchmark(bench, protocol))
    return results
