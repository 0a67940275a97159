"""Timing, span recording and summary statistics shared by the workloads.

End-to-end numbers come from untraced passes, where the only cost the
benchmark adds is a ``perf_counter`` pair around each public call.  The
traced run records a :class:`Span` around each call instead; spans stay in
memory and are written out as JSON when the run ends.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Passes every run makes, however long they take.
MIN_PASSES = 3


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    tag: str


class Tracer:
    """Records nested spans; a disabled tracer records nothing.

    ``layer_totals`` sums each layer's *self* time (its duration minus the
    time its direct children cover), so nested layers are not counted
    twice.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, tag))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def mark(self) -> int:
        """Position to pass to :meth:`layer_totals` for spans after it."""
        return len(self.spans)

    def layer_totals(self, since: int = 0) -> dict[str, float]:
        """Self seconds per span name, over spans recorded after ``since``."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent is not None and span.parent >= since:
                child_time[span.parent - since] += span.end - span.start
        totals: dict[str, float] = {}
        for span, covered in zip(spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end - span.start - covered
            )
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile_with_tail(values, share: float, min_beyond: int = 10) -> float:
    """The ``share`` quantile of ``values`` (nearest rank), or 0.0 when
    fewer than ``min_beyond`` samples would lie beyond it: such a
    percentile would not describe a tail."""
    ordered = sorted(values)
    rank = int(share * len(ordered) + 0.5)
    if not ordered or len(ordered) - rank < min_beyond:
        return 0.0
    return ordered[min(rank, len(ordered) - 1)]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Clock:
    """Accumulates the timed segments of one pass.

    Work inside :meth:`timed` counts toward the pass; checks and object
    drops between segments do not.  ``reference`` sums the same segments,
    each rescaled to reference host speed by the probe timed just before
    and just after it (those probes are not timed).
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.reference = 0.0
        self.probes = [probe_seconds()]

    @contextmanager
    def timed(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self.probes.append(probe_seconds())
            self.elapsed += seconds
            probe = (self.probes[-2] + self.probes[-1]) / 2
            self.reference += seconds * REFERENCE_PROBE_S / probe


def keep_going(pass_times: list[float], seconds: float) -> bool:
    """Start another pass while it should still fit in ``seconds``.

    Whole passes only, so every run attempts whole rounds of the same
    operations; at least :data:`MIN_PASSES` so the median has a middle.
    """
    if len(pass_times) < MIN_PASSES:
        return True
    return sum(pass_times) + median(pass_times) <= seconds


#: The probe's time on a host at reference speed: ``pass_ref_s`` sums a
#: pass's timed segments, each times this over the probe's time around it.
#: A probe time typical of a two-vCPU VM, which ran it in 3.5-9 ms.
REFERENCE_PROBE_S = 0.005


def probe_seconds(iterations: int = 50_000) -> float:
    """Wall time of a fixed integer loop.

    It gauges how fast the host runs Python right now, so that times
    taken in different host speed states can be compared.  No code of
    the program runs in it, so no change to the program moves it, and it
    allocates nothing, so the program's heap and the garbage collector do
    not enter it.  Of the probes tried on a two-vCPU VM whose speed swung
    by up to 2x within seconds, this loop's time moved most nearly in
    proportion to the program's: a dict-and-object probe moved about
    twice as much as compiles did, so dividing by it over-corrected.
    """
    started = time.perf_counter()
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return time.perf_counter() - started
