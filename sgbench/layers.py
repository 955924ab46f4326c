"""Per-layer instrumentation for the traced benchmark run.

Nothing here changes the library.  The traced run observes each layer
from the outside, in three ways:

* through the library's own ``tracer=`` / ``metrics=`` / ``hooks=``
  arguments where a public API takes them (``certify``, ``run_system``,
  ``StreamService`` sessions);
* by shadowing public methods on the instances the benchmark built
  (the composed system and its components) with timing wrappers;
* by swapping, for the duration of one traced repetition, the module
  attributes through which the certifier calls ``project_transaction``
  and ``operations_of_object``, and the ``OnlineCertifier`` methods the
  stream service calls.  Every swap is undone on exit.

:class:`LayerClock` keeps aggregated spans: per layer name, the calls,
the inclusive time and the self time (inclusive minus the time of
wrapped calls made inside it).  It tracks nesting with one stack, so it
wraps synchronous functions only: an ``await`` inside a wrapped call
would let another task's calls land on the same stack.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.hooks import ObsHooks
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingBufferSink, Tracer

from . import speed

__all__ = [
    "LayerClock",
    "PeakRegistry",
    "Probe",
    "StepHooks",
    "patched",
]


class LayerClock:
    """Aggregated spans keyed by layer name (see the module docstring)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.items: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        drain: bool = False,
        size: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """``function`` timed under ``name``.

        ``drain`` turns an iterator result into a list inside the timed
        call, so a generator's work is charged to its layer; the number
        of items is added to ``items[name]``.  ``size(*args)`` adds the
        input size of each call to ``items[name]`` instead.
        """
        stack = self._stack
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append(0.0)
            try:
                result = function(*args, **kwargs)
                if drain:
                    result = list(result)
                    self.items[name] += len(result)
                elif size is not None:
                    self.items[name] += size(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return timed

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Time a block that may ``await``, under ``name``.

        Its self time excludes every wrapped call that ran while the
        block was open, on whichever task, so blocks that suspend stay
        correctly attributed; blocks timed this way must not overlap.
        """
        before = self.outermost()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.calls[name] += 1
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - (self.outermost() - before)

    def outermost(self) -> float:
        """Seconds spent inside any wrapped call (nested time counted once)."""
        return sum(self.self_time.values())


@contextmanager
def patched(swaps: Sequence[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each ``(owner, attribute, value)``; restore the originals on exit.

    An attribute that lived only on the owner's class (an instance
    method) is deleted again rather than re-assigned, so the instance
    falls back to its class.
    """
    saved = []
    try:
        for owner, attribute, value in swaps:
            own = vars(owner)
            saved.append((owner, attribute, attribute in own, own.get(attribute)))
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


class PeakRegistry(MetricsRegistry):
    """A metrics registry that also keeps the peak of every gauge."""

    def __init__(self) -> None:
        super().__init__()
        self.peaks: Dict[str, float] = {}

    def set_gauge(self, name: str, value: Any) -> None:
        super().set_gauge(name, value)
        if name not in self.peaks or value > self.peaks[name]:
            self.peaks[name] = value

    def count(self, name: str) -> Any:
        """A counter's value, 0 when it was never written."""
        return self.counter(name).snapshot()


class StepHooks(ObsHooks):
    """Driver observer: a timestamp per step and the enabled-set sizes.

    The timestamps come from :func:`sgbench.speed.clock`, so they are
    normalized while a speedometer runs.
    """

    def __init__(self) -> None:
        self.histories: List[List[float]] = []
        self.enabled_total = 0
        self.choices = 0

    def start_history(self) -> None:
        """Open a new step-timestamp series; call just before ``run_system``."""
        self.histories.append([speed.clock()])

    def on_step(self, step: int, action: Any) -> None:
        self.histories[-1].append(speed.clock())

    def on_policy_choice(self, enabled: Sequence[Any], choice: Optional[Any]) -> None:
        self.enabled_total += len(enabled)
        self.choices += 1

    def step_durations(self) -> List[List[float]]:
        """Per history, the duration of each step in seconds."""
        return [
            [later - earlier for earlier, later in zip(stamps, stamps[1:])]
            for stamps in self.histories
        ]


class Probe:
    """The instruments of one traced repetition.

    ``clock`` holds the benchmark's wrappers, ``tracer`` collects the
    library's ``certify.*`` / ``sg.*`` spans, ``metrics`` is handed to
    ``certify`` (and ``history.index.*`` counters land in it), and
    ``hooks`` observes the driver, and ``service_metrics`` is handed to
    the stream service and its sessions.
    """

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.sink = RingBufferSink(capacity=1 << 20)
        self.tracer = Tracer(self.sink)
        self.metrics = PeakRegistry()
        self.hooks = StepHooks()
        self.service_metrics = PeakRegistry()

    def span_seconds(self) -> Dict[str, float]:
        """Total duration per library span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.sink.spans():
            totals[span.name] += span.duration
        return totals


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
