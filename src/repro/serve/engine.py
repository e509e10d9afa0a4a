"""Inference engine: an execution plan plus serving instrumentation.

``InferenceEngine`` is the unit batch execution drives: it runs
micro-batches through a loaded :class:`~repro.serve.plan.ExecutionPlan`,
keeps wall-clock counters, and prices every batch size it sees on the
configured accelerator design (cached — the cycle model runs once per
distinct batch size, not per request).

This module also owns :class:`ThroughputStats`, the one shared mixin
behind every stats dataclass in the serving stack (``EngineStats`` here,
``ModelStats`` in :mod:`repro.serve.server`): derived throughput/latency
metrics are defined once, and ``merge()`` aggregates same-typed stats
across models or workers.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.fpga.resources import GemmDesign, reference_designs
from repro.serve.backends import DEFAULT_BACKEND
from repro.serve.plan import ExecutionPlan


class ThroughputStats:
    """Derived serving metrics over the common counter fields.

    Mixed into the stats dataclasses; expects ``requests``, ``batches``
    and ``wall_seconds`` attributes, and optionally ``latencies_ms``
    (per-request queue+service latencies) and ``fpga_ms_total`` /
    ``fpga_ms`` (simulated accelerator time). Dataclasses without a field
    simply report 0 for the metrics that need it.
    """

    # ------------------------------------------------------------------
    # Throughput
    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def requests_per_second(self) -> float:
        return (self.requests / self.wall_seconds
                if self.wall_seconds > 0 else 0.0)

    # ------------------------------------------------------------------
    # Latency percentiles (0 when the dataclass keeps no latency list)
    # ------------------------------------------------------------------
    def _latencies(self):
        return getattr(self, "latencies_ms", None) or []

    def _percentile(self, q: float) -> float:
        latencies = self._latencies()
        return float(np.percentile(latencies, q)) if latencies else 0.0

    @property
    def latency_ms_mean(self) -> float:
        latencies = self._latencies()
        return float(np.mean(latencies)) if latencies else 0.0

    @property
    def latency_ms_p50(self) -> float:
        return self._percentile(50)

    @property
    def latency_ms_p95(self) -> float:
        return self._percentile(95)

    @property
    def latency_ms_p99(self) -> float:
        return self._percentile(99)

    # ------------------------------------------------------------------
    # Simulated FPGA
    # ------------------------------------------------------------------
    def _fpga_total(self) -> float:
        total = getattr(self, "fpga_ms_total", None)
        if total is None:
            total = getattr(self, "fpga_ms", 0.0)
        return total

    @property
    def fpga_ms_per_request(self) -> float:
        return self._fpga_total() / self.requests if self.requests else 0.0

    # ------------------------------------------------------------------
    # Response cache (0 for dataclasses without the counters)
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted requests answered from the response
        cache. ``requests`` counts only engine-served work, so the
        denominator adds hits and coalesced followers back in to get
        true submissions."""
        hits = getattr(self, "cache_hits", 0)
        submitted = (self.requests + hits
                     + getattr(self, "dedup_coalesced", 0))
        return hits / submitted if submitted else 0.0

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def merge(self, *others: "ThroughputStats") -> "ThroughputStats":
        """Aggregate same-typed stats (across models, workers, drains).

        Counters and wall/FPGA time sum (``wall_seconds`` is busy time, so
        a merge across concurrent workers reports conservative throughput),
        latency lists concatenate, equal strings are kept and differing
        ones collapse to ``"mixed"``. A field whose dataclass metadata
        sets ``merge="max"`` takes the maximum instead (e.g. a capacity
        like ``max_batch``).
        """
        for other in others:
            if type(other) is not type(self):
                raise ConfigurationError(
                    f"cannot merge {type(other).__name__} into "
                    f"{type(self).__name__}")
        merged = {}
        for spec in dataclasses.fields(self):
            values = [getattr(stats, spec.name)
                      for stats in (self, *others)]
            first = values[0]
            if spec.metadata.get("merge") == "max":
                merged[spec.name] = max(values)
            elif isinstance(first, (int, float)):
                merged[spec.name] = sum(values)
            elif isinstance(first, list):
                merged[spec.name] = [item for value in values
                                     for item in value]
            elif isinstance(first, str):
                merged[spec.name] = first if all(v == first
                                                 for v in values) else "mixed"
            else:
                merged[spec.name] = first
        return type(self)(**merged)


@dataclass
class EngineStats(ThroughputStats):
    """Lifetime counters of one engine."""

    requests: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    fpga_ms: float = 0.0


class InferenceEngine:
    """Batched quantized inference over a frozen artifact."""

    def __init__(self, plan: ExecutionPlan,
                 design: Optional[GemmDesign] = None,
                 clock=time.perf_counter):
        self.plan = plan
        # The paper's best published design point (D2-3: XC7Z045, 1:2
        # fixed:SP2) prices the simulated-FPGA latency numbers by default.
        self.design = design if design is not None \
            else reference_designs()["D2-3"]
        self.stats = EngineStats()
        self._clock = clock
        self._fpga_latency_cache: Dict[int, float] = {}

    @classmethod
    def load(cls, path, backend: str = DEFAULT_BACKEND,
             **kwargs) -> "InferenceEngine":
        return cls(ExecutionPlan.load(path, backend=backend), **kwargs)

    @property
    def backend(self) -> str:
        """Name of the kernel backend serving this engine's plan."""
        return self.plan.backend

    # ------------------------------------------------------------------
    def infer(self, batch: np.ndarray) -> np.ndarray:
        """Run one (N, ...) micro-batch; updates counters."""
        batch = np.asarray(batch)
        started = self._clock()
        outputs = self.plan.forward(batch)
        elapsed = self._clock() - started
        self.stats.requests += batch.shape[0]
        self.stats.batches += 1
        self.stats.wall_seconds += elapsed
        self.stats.fpga_ms += self.fpga_latency_ms(batch.shape[0])
        return outputs

    def infer_one(self, request: np.ndarray) -> np.ndarray:
        """Single-request convenience path (adds and strips the batch dim)."""
        return self.infer(np.asarray(request)[None])[0]

    def infer_stream(self, batch: np.ndarray, state: dict):
        """Run one (N, T, ...) chunk micro-batch from carried state.

        Returns ``(outputs, new_state)``
        (:meth:`~repro.serve.plan.ExecutionPlan.forward_stream`); counts
        each session's chunk as one request under the same counters as
        :meth:`infer`.
        """
        batch = np.asarray(batch)
        started = self._clock()
        outputs, new_state = self.plan.forward_stream(batch, state)
        elapsed = self._clock() - started
        self.stats.requests += batch.shape[0]
        self.stats.batches += 1
        self.stats.wall_seconds += elapsed
        self.stats.fpga_ms += self.fpga_latency_ms(batch.shape[0])
        return outputs, new_state

    # ------------------------------------------------------------------
    def fpga_latency_ms(self, batch_size: int) -> float:
        """Simulated accelerator latency of one micro-batch of this size.

        Milliseconds — exactly
        ``simulate_network(plan.workloads(batch_size), design).latency_ms``
        (the stack-wide ms convention; see :mod:`repro.fpga.accelerator`),
        cached per batch size.
        """
        if batch_size not in self._fpga_latency_cache:
            performance = self.plan.simulate(self.design, batch=batch_size)
            self._fpga_latency_cache[batch_size] = performance.latency_ms
        return self._fpga_latency_cache[batch_size]

    def warmup(self, batch_sizes=(1,)) -> None:
        """Bind scratch and run per-size verification outside the counters.

        One forward per listed batch size goes straight to the plan, so
        first-request latency excludes the lazy oracle compile and scratch
        allocation (no native code is built here: the ``compiled``
        backend built its one library at load). Counters and the FPGA
        price cache are left untouched.
        """
        shape = self.plan.input_shape
        dtype = self.plan.input_dtype
        for size in batch_sizes:
            self.plan.forward(np.zeros((int(size),) + shape, dtype=dtype))
