"""Timing, span tracing and the correctness gate shared by every workload.

Spans are recorded from the benchmark's own code, around each call it makes
into a layer of the package; nothing inside the package is instrumented.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

# The machine this was written on (a 2-vCPU Intel Xeon on a shared host)
# switches between two speeds about 1.6x apart, for seconds to minutes at a
# time, and process CPU time swings with it. Every time the benchmark
# reports is therefore scaled to a reference pace. A fixed piece of work, the
# yardstick, is timed between layer calls every YARDSTICK_EVERY_S of a run.
# Each timed unit (a set-up, a round, a call) is divided by its pace: the
# mean time of the samples taken while it ran (or of the last one before,
# when it held none), see `pace`, over REFERENCE_YARDSTICK_S, the
# yardstick's median there in its slower, more common state. The program's
# own code follows the switches only in part, so scaling narrows their
# effect on a run's times without removing it. The yardstick's own time is
# taken out of every span around it.
YARDSTICK = "bench.yardstick"
YARDSTICK_EVERY_S = 0.05
REFERENCE_YARDSTICK_S = 0.0011


def yardstick() -> float:
    """Seconds taken by a fixed piece of interpreter-bound work like the
    package's own: dict and tuple churn, float math, small sorts and small
    numpy calls. The collector is off, so the program's live objects do not
    change its cost."""
    import numpy

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        base = {f"t{i:02d}": (float(i), float(i % 7)) for i in range(20)}
        acc = 0.0
        for r in range(100):
            d = dict(base)
            d["t03"] = (r * 0.5, 1.0)
            acc += min(math.hypot(x - r, y) for x, y in d.values())
            acc += len(sorted(d, key=lambda k: d[k][0]))
            if r % 10 == 0:
                a = numpy.arange(40.0) * r
                acc += float(numpy.sort(a)[3] + a.sum())
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def pace(samples: list[float]) -> float:
    """How much slower than the reference pace the machine ran: the mean
    yardstick time over the reference, leaving out the fastest and slowest
    tenth of samples (at least one each, from three samples on), because an
    interrupt that lands in a sample slows it far more than the work around
    it."""
    ordered = sorted(samples)
    cut = max(len(ordered) // 10, 1 if len(ordered) >= 3 else 0)
    return (statistics.fmean(ordered[cut:len(ordered) - cut])
            / REFERENCE_YARDSTICK_S)


class Recorder:
    """Busy time, call counts and work counters per layer name.

    Totals are always kept, and every call's time at the pace measured
    while it ran (`scaled`), because the end-to-end metrics are built from
    them. With `trace` on, every call also leaves a span
    (id, name, start, end, parent id) in memory, written out at the end.
    Yardstick samples taken between calls are kept in `yard`; their time is
    in `paused` and is left out of every span's busy time.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.busy: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[int] = []
        self.yard: list[float] = []
        self.paused = 0.0
        self._next_sample = 0.0

    @contextmanager
    def span(self, name: str):
        paused, first = self.paused, len(self.yard)
        if not self.trace:
            start = time.perf_counter()
            try:
                yield
            finally:
                self._close(name, time.perf_counter() - start
                            - (self.paused - paused), first)
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, 0.0, 0.0, parent))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)
            self._close(name, end - start - (self.paused - paused), first)

    def _close(self, name: str, took: float, first: int) -> None:
        self.busy[name] += took
        self.scaled[name].append(took / self._pace_since(first))
        self.calls[name] += 1

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            out = fn(*args, **kwargs)
        self.sample()
        return out

    def sample(self, force: bool = False) -> None:
        """Time the yardstick if YARDSTICK_EVERY_S has passed since the
        last sample (or `force`)."""
        now = time.perf_counter()
        if not force and now < self._next_sample:
            return
        if self.trace:
            # a child span, so that self times exclude it too
            parent = self._stack[-1] if self._stack else None
            self.spans.append((len(self.spans), YARDSTICK, now, now, parent))
        took = yardstick()
        end = time.perf_counter()
        if self.trace:
            self.spans[-1] = self.spans[-1][:3] + (end,) + self.spans[-1][4:]
        self.yard.append(took)
        self.paused += end - now
        self._next_sample = end + YARDSTICK_EVERY_S

    def seconds(self, name: str) -> float:
        """Busy time of `name`, scaled to the reference pace."""
        return self.busy[name] / self.pace()

    def timed(self, fn, *args):
        """(seconds at the pace measured meanwhile, result) of fn(*args),
        which records into this recorder; yardstick samples are left out."""
        first = len(self.yard)
        self.sample(force=True)
        paused, start = self.paused, time.perf_counter()
        out = fn(*args)
        took = time.perf_counter() - start - (self.paused - paused)
        return took / self._pace_since(first), out

    def pace(self) -> float:
        """How much slower than the reference pace the machine ran while
        this recorder's work ran (see `pace`)."""
        return self._pace_since(0)

    def _pace_since(self, first: int) -> float:
        """Pace over the samples taken since sample `first`, or over the
        last one before it when there are none."""
        samples = self.yard[first:] or self.yard[first - 1:first]
        if not samples:
            self.sample(force=True)
            samples = self.yard[-1:]
        return pace(samples)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Span time minus the time covered by its direct children, summed
        per name. Calls run on one thread, so children never overlap."""
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)


class Gate:
    """Counts operations and the ones whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)
        print(f"benchmark check failed: {what}", file=sys.stderr)

    @contextmanager
    def operation(self, what: str):
        """One attempted operation; an exception inside it is a failure."""
        self.attempted += 1
        failed_before = self.failed
        try:
            yield
        except Exception:  # a layer raised: record it and keep measuring
            traceback.print_exc(file=sys.stderr)
            if self.failed == failed_before:
                self.fail(f"{what} raised")


def machine_facts() -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_at_start": load,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
