"""Workload-independent pieces of the serving benchmark.

Nothing in this module imports the serving stack. It holds the rules the
numbers obey, so they can be tested on their own:

- ``percentile``: nearest-rank percentiles that refuse to report a tail
  with fewer than ten samples beyond it;
- ``poisson_offsets`` / ``zipf_ranks``: seeded open-loop arrival times and
  skewed payload draws;
- ``drive``: the open-loop generator. It sends each request at its
  scheduled time, whatever the server is doing, and stamps completion
  from a done-callback; with a window it drops requests due while the
  window is full, as a client with bounded outstanding work would;
- ``Tracer``: spans recorded from outside the program by wrapping public
  methods on live instances, kept in memory and written out at the end;
- ``check_batches``: bit-exact comparison of served answers against a
  reference run on the same stacked batch.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import resource
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, \
    Sequence, Tuple

import numpy as np

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values: Iterable[float], q: float,
               min_beyond: int = MIN_BEYOND) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    Failed requests enter as ``inf`` so that they miss every limit. Raises
    :class:`InsufficientSamples` when fewer than ``min_beyond`` samples
    rank above the percentile, and ``ValueError`` when the percentile
    itself lands on a failed request.
    """
    data = sorted(float(value) for value in values)
    count = len(data)
    if count == 0:
        raise InsufficientSamples(f"p{q:g} of no samples")
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {count} samples has {beyond} beyond it, "
            f"needs {min_beyond}")
    value = data[rank - 1]
    if not math.isfinite(value):
        raise ValueError(f"p{q:g} of {count} samples is a failed request")
    return value, count


def percentile_or_zero(values: Iterable[float], q: float) -> float:
    """:func:`percentile` for per-layer numbers, which have no bound: 0
    when the sample is too thin for the ten-beyond rule."""
    try:
        return percentile(values, q)[0]
    except InsufficientSamples:
        return 0.0


def median(values: Sequence[float]) -> float:
    """Median without the tail rule (for a few repeated set-up timings)."""
    if not len(values):
        raise InsufficientSamples("median of no samples")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def poisson_offsets(rate: float, duration: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Send times (seconds from phase start) of a Poisson stream."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, int(expected + 6 * math.sqrt(
        expected) + 16))
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, len(gaps)))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < duration]


def zipf_ranks(count: int, items: int, exponent: float,
               rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of item indices ``0..items-1`` where index ``r``
    has probability proportional to ``(r + 1) ** -exponent``."""
    weights = np.arange(1, items + 1, dtype=np.float64) ** -exponent
    return rng.choice(items, size=count, p=weights / weights.sum())


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set, in MiB, of this process (``RUSAGE_SELF``) or of
    its largest waited-for child (``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
class Refused:
    """The already-failed future of a request the generator did not send
    because its window was full."""

    def __init__(self, error: BaseException):
        self.error = error

    def done(self) -> bool:
        return True

    def exception(self, timeout=None) -> BaseException:
        return self.error

    def result(self, timeout=None):
        raise self.error


@dataclass
class Phase:
    """One timed phase: what was scheduled, sent and answered."""

    name: str
    rate: float
    duration: float
    start: float = 0.0                # clock time of offset 0
    end: float = 0.0                  # clock time the phase window closed
    scheduled: Optional[np.ndarray] = None
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    futures: List[object] = field(default_factory=list)
    fronts: List[object] = field(default_factory=list)   # traced submits
    links: List[object] = field(default_factory=list)    # traced engines
    inputs: Dict[str, object] = field(default_factory=dict)  # per workload

    @property
    def count(self) -> int:
        return len(self.futures)

    def offered(self, index: int) -> bool:
        """Whether request ``index`` reached the server."""
        return not isinstance(self.futures[index], Refused)

    def outcome(self, index: int) -> Optional[BaseException]:
        """The failure of request ``index`` (None when it succeeded)."""
        future = self.futures[index]
        if not future.done():
            return TimeoutError("never answered")
        return future.exception(timeout=0)

    def latencies_ms(self) -> List[float]:
        """Scheduled-send-to-done latency; ``inf`` for failures."""
        out = []
        for index in range(self.count):
            if self.outcome(index) is not None:
                out.append(math.inf)
            else:
                out.append((self.done[index] - self.scheduled[index]) * 1e3)
        return out

    def lags_ms(self) -> List[float]:
        """How late the generator sent each request."""
        return [(sent - due) * 1e3
                for sent, due in zip(self.sent, self.scheduled)]

    def succeeded_by(self, deadline: float) -> int:
        return sum(1 for index in range(self.count)
                   if self.outcome(index) is None
                   and self.done[index] <= deadline)

    def window_rates(self, width: float) -> List[float]:
        """Answers per second in each ``width``-second window of the
        phase (a trailing partial window is dropped)."""
        windows = int(self.duration / width + 1e-9)
        counts = [0] * windows
        for index in range(self.count):
            if self.outcome(index) is None:
                slot = int((self.done[index] - self.start) / width)
                if 0 <= slot < windows:
                    counts[slot] += 1
        return [count / width for count in counts]


def _stamp(done: List[float], finished: List[int], index: int, clock,
           future) -> None:
    done[index] = clock()
    finished.append(index)


def _traced_stamp(done: List[float], finished: List[int],
                  links: List[object], index: int, clock,
                  tracer: "Tracer", future) -> None:
    done[index] = clock()
    links[index] = tracer.last("engine")
    finished.append(index)


def drive(phase: Phase, offsets: np.ndarray, send: Callable[[int], object],
          *, clock=time.perf_counter, sleep=time.sleep,
          tracer: Optional["Tracer"] = None, tick: float = 0.0,
          window: int = 0, refused: Optional[Refused] = None) -> Phase:
    """Send request ``i`` at ``offsets[i]``, never waiting for answers.

    ``send(i)`` returns a future with ``add_done_callback``. With ``tick``
    set, the generator wakes once per tick and sends everything due,
    instead of sleeping before each request. With ``window`` set, a
    request that falls due while ``window`` sent requests are unanswered
    is not sent; its future is ``refused``. The phase window closes
    ``phase.duration`` after its start, whether or not answers are still
    outstanding.
    """
    if window and refused is None:
        raise ValueError("a window needs the future of a refused request")
    count = len(offsets)
    phase.sent = [0.0] * count
    phase.done = [math.nan] * count
    phase.futures = [None] * count
    if tracer is not None:
        phase.fronts = [None] * count
        phase.links = [None] * count
    phase.start = clock() + 0.002
    phase.scheduled = phase.start + np.asarray(offsets, dtype=np.float64)
    scheduled = phase.scheduled.tolist()
    finished: List[int] = []      # appended by done-callbacks
    sends = 0                     # minus len(finished): unanswered
    for index in range(count):
        due = scheduled[index]
        now = clock()
        if due > now:
            if tick:
                due = phase.start + math.ceil((due - phase.start) / tick) \
                    * tick
            sleep(due - now)
            now = clock()
        phase.sent[index] = now
        if window and sends - len(finished) >= window:
            phase.futures[index] = refused
            continue
        sends += 1
        future = send(index)
        phase.futures[index] = future
        if tracer is None:
            callback = partial(_stamp, phase.done, finished, index, clock)
        else:
            phase.fronts[index] = tracer.last("front")
            callback = partial(_traced_stamp, phase.done, finished,
                               phase.links, index, clock, tracer)
        future.add_done_callback(callback)
    window_end = phase.start + phase.duration
    now = clock()
    if window_end > now:
        sleep(window_end - now)
    phase.end = window_end
    return phase


def wait_all(futures: Sequence, timeout: float) -> int:
    """Wait up to ``timeout`` seconds in total; returns how many are
    still unanswered."""
    deadline = time.monotonic() + timeout
    pending = 0
    for future in futures:
        try:
            future.exception(timeout=max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            pending += 1
    return pending


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Call(NamedTuple):
    """One timed call of a wrapped method."""

    name: str
    index: int           # position in the method's call list
    start: float
    end: float
    size: int            # leading dimension of the sized argument

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Spans recorded around calls into the serving layers.

    :meth:`wrap` shadows a public method on one live instance with a
    timed copy and remembers, per thread, the last call of each slot, so
    a done-callback running on the thread that executed a batch can link
    its request to that batch. :meth:`span` appends a finished span;
    nothing is written until :meth:`dump`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[tuple] = []
        self.calls: Dict[str, List[Call]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: List[Tuple[object, str]] = []

    def wrap(self, obj, attr: str, name: str, slot: str,
             size_arg: Optional[int] = None) -> List[Call]:
        """Time every call of ``obj.attr`` under ``name``; ``size_arg``
        is the position of the argument whose leading dimension is the
        call's size."""
        original = getattr(obj, attr)
        calls = self.calls.setdefault(name, [])
        local, clock = self._local, self.clock

        def traced(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                shape = (getattr(args[size_arg], "shape", None)
                         if size_arg is not None else None)
                call = Call(name, len(calls), start, end,
                            int(shape[0]) if shape else 0)
                calls.append(call)
                slots = getattr(local, "slots", None)
                if slots is None:
                    slots = local.slots = {}
                slots[slot] = call

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))
        return calls

    def unwrap(self) -> None:
        """Restore every wrapped method (the class attribute shows
        through again)."""
        while self._wrapped:
            obj, attr = self._wrapped.pop()
            delattr(obj, attr)

    def last(self, slot: str) -> Optional[Call]:
        slots = getattr(self._local, "slots", None)
        return slots.get(slot) if slots else None

    def span(self, name: str, start: float, end: float,
             request=None, parent: Optional[int] = None, **attrs) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, parent, request, name, start, end,
                           attrs))
        return span_id

    def dump(self, path, origin: float) -> None:
        """Write every span as one JSON line, times in ms from
        ``origin``."""
        with open(path, "w") as handle:
            for span_id, parent, request, name, start, end, attrs in \
                    self.spans:
                record = {"id": span_id, "parent": parent,
                          "request": request, "name": name,
                          "start_ms": round((start - origin) * 1e3, 4),
                          "dur_ms": round((end - start) * 1e3, 4)}
                if attrs:
                    record.update(attrs)
                handle.write(json.dumps(record) + "\n")


def busy_share(calls: Sequence[Call], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by calls (calls never overlap:
    each wrapped engine runs one batch at a time)."""
    if end <= start:
        return 0.0
    busy = sum(max(0.0, min(c.end, end) - max(c.start, start))
               for c in calls)
    return busy / (end - start)


def calls_within(calls: Sequence[Call], start: float,
                 end: float) -> List[Call]:
    return [call for call in calls if start <= call.start < end]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_batches(groups: Dict[object, List[Tuple[int, np.ndarray,
                                                  np.ndarray]]],
                  reference: Callable[[np.ndarray], np.ndarray],
                  rng: np.random.Generator,
                  limit: Optional[int] = None) -> Tuple[int, List[str]]:
    """Compare served answers with a reference run of the same batch.

    ``groups`` maps a batch key to ``(order, payload, answer)`` rows; the
    rows are stacked in ``order`` (the order the server stacked them),
    run through ``reference`` and compared bitwise row by row. At most
    ``limit`` groups, drawn with ``rng``, are checked. Returns the number
    of rows checked and a description of each mismatch.
    """
    keys = sorted(groups, key=repr)
    if limit is not None and len(keys) > limit:
        picks = rng.choice(len(keys), size=limit, replace=False)
        keys = [keys[int(pick)] for pick in sorted(picks)]
    checked, mismatches = 0, []
    for key in keys:
        rows = sorted(groups[key], key=lambda row: row[0])
        expected = reference(np.stack([payload for _, payload, _ in rows]))
        for (order, _, answer), want in zip(rows, expected):
            checked += 1
            if not np.array_equal(answer, want):
                mismatches.append(
                    f"batch {key!r} request {order}: answer differs from "
                    "the reference run of the same batch")
    return checked, mismatches


def check_names(names: Iterable[str]) -> List[str]:
    """Names that break the ``[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`` rule."""
    return [name for name in names if not NAME_RE.match(name)]


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    """The last line of a run's standard output."""
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}})
