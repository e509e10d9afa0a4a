"""Dynamic batch forming, separated from batch execution.

``DynamicBatcher`` owns exactly one concern: turning a FIFO stream of
single requests into micro-batches. A batch becomes ready when it fills
(``max_batch`` requests queued) **or** when the oldest queued request's
deadline expires (``max_wait_ms`` after it was enqueued) — the classic
size-or-time policy that trades a bounded latency hit for GEMM lane fill.
Execution lives elsewhere (:func:`repro.serve.server.execute_batch`,
driven by :class:`~repro.serve.server.ModelServer` workers or by its
synchronous ``poll``/``drain``).

The batcher is deliberately passive and deterministic: it never sleeps,
never spawns threads, and only reads the injectable ``clock`` when a
request is enqueued (to stamp ``enqueued_at`` and its deadline). Readiness
checks take ``now`` from the caller, so tests drive time explicitly and
a force-drain never reads the clock outside the executor.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class ServedRequest:
    """One enqueued inference request and, once served, its result."""

    id: int
    payload: np.ndarray
    enqueued_at: float
    completed_at: Optional[float] = None
    result: Optional[np.ndarray] = None
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    fpga_ms: Optional[float] = None   # batch FPGA latency / batch size
    deadline: Optional[float] = None  # enqueued_at + max_wait, None = no cap
    model: Optional[str] = None
    future: Optional[object] = field(default=None, repr=False)
    error: Optional[BaseException] = field(default=None, repr=False)
    cached: bool = False              # answered from the response cache
    coalesced: bool = False           # rode another identical request

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency_ms(self) -> float:
        if not self.done:
            raise ConfigurationError(f"request {self.id} not served yet")
        return (self.completed_at - self.enqueued_at) * 1e3


def coerce_payload(plan, payload) -> np.ndarray:
    """Validate one request against a plan and coerce it to serving form.

    Shape mismatch is an immediate error (not a deferred batch failure).
    The payload is only copied when it has to be: a request that already
    matches the plan's dtype and is C-contiguous is passed through as-is,
    so a well-behaved client costs zero copies on the submit path.
    """
    payload = np.asarray(payload)
    expected = plan.input_shape
    if tuple(payload.shape) != expected:
        raise ConfigurationError(
            f"request shape {tuple(payload.shape)} != plan input "
            f"shape {expected}")
    if payload.dtype != plan.input_dtype \
            or not payload.flags["C_CONTIGUOUS"]:
        payload = np.ascontiguousarray(payload, dtype=plan.input_dtype)
    return payload


def coerce_chunk(plan, chunk) -> np.ndarray:
    """:func:`coerce_payload` for one streaming chunk.

    A chunk is a ``(T,) + step_shape`` slice of a session's input stream:
    the leading timestep count is free (``T >= 1``), only the per-step
    trailing dims must match the plan. Same copy discipline as the
    request path.
    """
    chunk = np.asarray(chunk)
    step_shape = plan.input_shape[1:]
    if chunk.ndim != len(plan.input_shape) \
            or tuple(chunk.shape[1:]) != step_shape or chunk.shape[0] < 1:
        raise ConfigurationError(
            f"stream chunk shape {tuple(chunk.shape)} != (T,) + "
            f"{step_shape} with T >= 1 (plan input {plan.input_shape})")
    if chunk.dtype != plan.input_dtype \
            or not chunk.flags["C_CONTIGUOUS"]:
        chunk = np.ascontiguousarray(chunk, dtype=plan.input_dtype)
    return chunk


class DynamicBatcher:
    """FIFO micro-batch former with a size-or-deadline flush policy."""

    def __init__(self, max_batch: int = 16,
                 max_wait_ms: Optional[float] = None,
                 clock=time.perf_counter):
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms is not None and max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.max_batch = int(max_batch)
        self.max_wait_ms = max_wait_ms
        self._clock = clock
        self._queue: Deque[ServedRequest] = deque()
        self._next_id = 0

    # ------------------------------------------------------------------
    def submit(self, payload: np.ndarray, future=None,
               model: Optional[str] = None) -> ServedRequest:
        """Enqueue one validated request (a single input, no batch dim)."""
        now = self._clock()
        request = ServedRequest(
            id=self._next_id, payload=payload, enqueued_at=now,
            deadline=None if self.max_wait_ms is None
            else now + self.max_wait_ms / 1e3,
            future=future, model=model)
        self._next_id += 1
        self._queue.append(request)
        return request

    def reserve_id(self) -> int:
        """Claim one request id without enqueueing anything — cache-hit
        and coalesced-follower records share the model's id space, so
        every ``ServedRequest`` a client sees is uniquely numbered."""
        request_id = self._next_id
        self._next_id += 1
        return request_id

    @property
    def pending(self) -> int:
        return len(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def oldest_enqueued_at(self) -> Optional[float]:
        return self._queue[0].enqueued_at if self._queue else None

    def next_deadline(self) -> Optional[float]:
        """Deadline of the oldest queued request (FIFO ⇒ the earliest),
        or None when idle / when requests never expire."""
        if not self._queue:
            return None
        return self._queue[0].deadline

    # ------------------------------------------------------------------
    def ready(self, now: Optional[float] = None) -> bool:
        """Is a batch ready — full, or past the oldest request's deadline?"""
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch:
            return True
        deadline = self._queue[0].deadline
        if deadline is None:
            return False
        if now is None:
            now = self._clock()
        return now >= deadline

    def take(self, now: Optional[float] = None,
             force: bool = False) -> List[ServedRequest]:
        """Pop the next micro-batch (up to ``max_batch`` requests, FIFO).

        Returns ``[]`` unless the batch is ready or ``force`` is set.
        ``force=True`` never consults the clock — ``ModelServer.drain``
        relies on that to keep its clock-call sequence fixed.
        """
        if not self._queue:
            return []
        if not force and not self.ready(now):
            return []
        return [self._queue.popleft()
                for _ in range(min(self.max_batch, len(self._queue)))]
