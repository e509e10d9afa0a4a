"""The benchmark's four workloads, built on the public serving API.

Each workload is a :class:`Runner` that sets the stack up from a float
model (timed, several times, each with a fresh codegen cache), serves
open-loop phases at the fixed rates in :data:`WORKLOADS`, checks every
answer it can afford to bit for bit, and derives its per-layer numbers
from the spans the traced run records.

Rates are absolute numbers, never a multiple of a capacity measured on
the build under test, so a faster build faces the same load.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    Call,
    Phase,
    Tracer,
    busy_share,
    calls_within,
    check_batches,
    median,
    percentile_or_zero,
    zipf_ranks,
)
from repro.api import Pipeline, PipelineConfig
from repro.errors import AdmissionError
from repro.serve import ClusterRouter, ExecutionPlan, InferenceEngine, \
    ModelServer
from repro.serve.cli import build_model
from repro.serve.partition import PipelineEngine

MAX_BATCH = 16
MAX_WAIT_MS = 2.0
CACHE_MB = 64
CLUSTER_CAPACITY = 64
#: Client window of the in-process saturating phases. A window is what
#: keeps their throughput a property of the server: without one the
#: queues grow by the excess rate for the whole phase and the generator
#: takes the interpreter lock for submits that serve nothing, a share
#: that changed from run to run with the host's speed. It is wide enough
#: that the server never waits for the generator's next tick: at 64,
#: rnn_stream's sessions ran dry (throughput ~25% lower) and
#: pipeline_split's stages ~7%; at 1024 neither gained.
CLIENT_WINDOW = 256
ZIPF_ITEMS = 256
ZIPF_EXPONENT = 1.1
SESSIONS = 16
CHUNK_WIDTHS = (1, 4)            # inclusive range of timesteps per chunk
#: Engine batches (or stream sessions) bit-checked per phase. Checking
#: every batch of a saturating phase against the reference backend would
#: take several times the phase itself, and so would the offline forward
#: of every session's stream (one timestep at a time, at batch 1).
CHECK_LIMIT = 64
STREAM_CHECK_LIMIT = 2
PAYLOAD_POOL = 2048
ONE_BLAS_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
MODEL = "m"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    backend: str
    nominal_rps: float
    saturating_rps: float
    setup_repeats: int
    why: str
    #: In BENCHMARK.json. An unlisted workload still runs by name.
    listed: bool = True
    #: Saturating phases send at most this many unanswered requests; one
    #: falling due while the window is full is refused by the client
    #: (0: no window).
    window: int = 0
    #: Run the whole process on one core. For an interpreter-bound
    #: server: on two cores its threads hand the interpreter lock across
    #: cores, and how long that takes varied with the host's load, so
    #: throughput spread 0.38 of its median over ten runs.
    one_core: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("vision_poisson", "mobilenet_v2", "compiled", 1000, 12000, 2,
             "MobileNet-v2 compiled in one ModelServer, distinct payloads, "
             "1000 rps nominal and 12000 rps saturating: kernels, codegen "
             "and batcher work, cache runs its miss path",
             # Unlisted: on a shared 2-core host its p99 and throughput
             # moved by more than the 0.25 bound between runs, and its two
             # ~25 s set-ups leave no time budget for longer runs.
             listed=False, window=CLIENT_WINDOW),
    Workload("zipf_cluster", "resnet_tiny", "fused", 500, 8000, 5,
             "ResNet-tiny fused behind ClusterRouter with 1 worker, Zipf "
             "1.1 over 256 payloads, 500 rps nominal and 8000 rps "
             "saturating: router, transport and cache work",
             # The router admits no more; past its cap it spent as long
             # refusing requests as serving them.
             window=CLUSTER_CAPACITY),
    Workload("rnn_stream", "gru_speech", "compiled", 1000, 12000, 7,
             "GRU-speech compiled, 16 streaming sessions, 1-4 step chunks, "
             "1000 chunks/s nominal and 12000 chunks/s saturating: session "
             "store, stream batcher, rnn node", window=CLIENT_WINDOW,
             one_core=True),
    Workload("pipeline_split", "mobilenet_v2", "fused", 500, 12000, 7,
             "MobileNet-v2 fused in a 2-stage PipelineEngine at auto cuts, "
             "500 rps nominal and 12000 rps saturating: stage queues and "
             "the slowest stage", window=CLIENT_WINDOW),
)}

END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "throughput_rps": "1/s", "peak_rss_mb": "MB",
}
#: The end-to-end metrics BENCHMARK.json bounds. Nominal-phase latency is
#: printed by every run but not bounded: across ten seeds on a shared
#: 2-core host its IQR/median reached 0.38 (p50) and 0.49 (p99) on
#: pipeline_split and 0.58 and 0.85 on rnn_stream, above the largest
#: bound a metric may have (0.25).
BOUNDED = ("setup_s", "throughput_rps", "peak_rss_mb")

KERNEL_KINDS = ("conv", "add", "globalavgpool", "linear", "rnn",
                "merge_time")
PER_LAYER: Dict[str, str] = {
    "setup.quantize_s": "s", "setup.load_s": "s", "setup.warmup_s": "s",
    "codegen.libraries": "count",
    "server.submit_us_p50": "us", "server.submit_us_p99": "us",
    "cache.hit_rate": "ratio", "cache.coalesced": "count",
    "batcher.queue_wait_ms_p50": "ms", "batcher.queue_wait_ms_p99": "ms",
    "batcher.batch_size_mean": "count",
    "engine.busy_share": "ratio", "engine.ms_per_request": "ms",
    **{f"kernels.b{size}.{kind}.share": "ratio"
       for size in (16, 1) for kind in KERNEL_KINDS},
    **{f"kernels.b{size}.{name}": unit for size in (16, 1)
       for name, unit in (("gemm_share", "ratio"), ("profile_gap", "ratio"),
                          ("forward_ms", "ms"))},
    "stream.batch_size_mean": "count", "stream.infer_ms_p50": "ms",
    "stream.session_bytes": "B",
    "router.submit_us_p50": "us", "transport.hop_ms_p50": "ms",
    "worker.latency_ms_p50": "ms", "router.shed_share": "ratio",
    "router.stats_ms": "ms", "router.stats_bytes": "B",
    "pipeline.stage0.busy_share": "ratio",
    "pipeline.stage1.busy_share": "ratio",
    "pipeline.stage0.ms_p50": "ms", "pipeline.stage1.ms_p50": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.spans": "count", "trace.latency_p50_overhead_ms": "ms",
    "trace.throughput_overhead_share": "ratio",
}
#: Per-layer metrics where a larger value is the improvement.
HIGHER_IS_BETTER = frozenset({
    "cache.hit_rate", "cache.coalesced", "batcher.batch_size_mean",
    "stream.batch_size_mean", "engine.busy_share",
    "pipeline.stage0.busy_share", "pipeline.stage1.busy_share",
    "kernels.b16.gemm_share", "kernels.b1.gemm_share",
})


def _quantize(model_name: str):
    """The float model and its calibration batch: what the process holds
    before set-up starts."""
    model, sample = build_model(model_name, seed=0)
    return model, [sample(np.random.default_rng(1), 8)]


def _calibrate(model, batches):
    return Pipeline(PipelineConfig(batch=MAX_BATCH),
                    model=model).calibrate(batches)


def payload_digest(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def is_shed(error: Optional[BaseException]) -> bool:
    return isinstance(error, AdmissionError)


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
class Runner:
    """One workload's set-up, request source, checks and layer numbers."""

    #: End-to-end peak RSS includes waited-for worker processes.
    children = False

    def __init__(self, spec: Workload, work_dir: Path, seed: int):
        self.spec = spec
        self.work_dir = work_dir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.codegen_dir: Optional[Path] = None

    # -- set-up ---------------------------------------------------------
    def setup(self, repeat: int) -> Dict[str, float]:
        """Build a ready server from the float model; returns the timed
        stages (``quantize``, ``load``, ``warmup``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop serving; requests still queued fail and are counted as
        cancelled, not as failures."""
        raise NotImplementedError

    # -- phases ---------------------------------------------------------
    def sender(self, phase: Phase, count: int):
        """``send(i)`` for a phase of ``count`` requests."""
        raise NotImplementedError

    def begin_phase(self, phase: Phase) -> None:
        pass

    def end_phase(self, phase: Phase) -> None:
        pass

    def wrap(self, tracer: Tracer) -> None:
        raise NotImplementedError

    # -- results --------------------------------------------------------
    def check(self, phases: List[Phase]) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def layers(self, tracer: Tracer, nominal: Phase,
               saturating: Phase) -> Dict[str, float]:
        return {}

    def kernel_plans(self) -> List[Tuple[ExecutionPlan, np.ndarray]]:
        """(plan, batch-16 input) pairs for the per-node kernel pass."""
        return []

    # -- helpers shared by the request/response runners -----------------
    def _request_spans(self, tracer: Tracer, phase: Phase,
                       front: str) -> None:
        for index in range(phase.count):
            done = phase.done[index]
            if math.isnan(done):
                continue
            root = tracer.span("request", phase.scheduled[index], done,
                               request=f"{phase.name}:{index}")
            call = phase.fronts[index]
            if call is not None:
                tracer.span(front, call.start, call.end,
                            request=f"{phase.name}:{index}", parent=root)
            self._child_spans(tracer, phase, index, root)

    def _child_spans(self, tracer: Tracer, phase: Phase, index: int,
                     root: int) -> None:
        pass

    def codegen_libraries(self) -> float:
        if self.codegen_dir is None or not self.codegen_dir.is_dir():
            return 0.0
        return float(len(list(self.codegen_dir.glob("*.so"))))


class _ServerRunner(Runner):
    """Shared by the in-process request/response fronts (ModelServer,
    PipelineEngine): distinct payloads, batch-composition check."""

    def __init__(self, spec, work_dir, seed):
        super().__init__(spec, work_dir, seed)
        # Distinct payloads without holding a whole saturating phase in
        # memory: a seeded pool, with one element stamped per request.
        _, sample = build_model(spec.model, seed=0)
        self.pool = sample(self.rng, PAYLOAD_POOL)
        self.reference: Optional[ExecutionPlan] = None
        self.front = None
        self.phases_sent = 0

    def sender(self, phase, count):
        stamp = 1e6 * self.phases_sent     # float32-exact below 2**24
        self.phases_sent += 1
        pool, submit = self.pool, self.front.submit

        def send(index):
            payload = pool[index % PAYLOAD_POOL].copy()
            payload.flat[0] = stamp + index
            return submit(MODEL, payload)

        return send

    def _reference(self, artifact) -> ExecutionPlan:
        if self.reference is None:
            self.reference = ExecutionPlan(artifact, backend="reference",
                                           verify=False)
        return self.reference

    def _check_served(self, phases: List[Phase],
                      reference: ExecutionPlan) -> Tuple[int, List[str]]:
        """Engine answers against a reference run of the same stacked
        batch; cache/coalesced answers against the engine bits of the
        same payload."""
        checked, mismatches = 0, []
        for phase in phases:
            groups: Dict[int, list] = {}
            reused = []
            for future in phase.futures:
                if not future.done() or future.exception(timeout=0):
                    continue
                request = future.request
                answer = future.result(timeout=0)
                if request.cached or request.coalesced:
                    reused.append((request.payload, answer))
                else:
                    groups.setdefault(request.batch_id, []).append(
                        (request.id, request.payload, answer,
                         request.batch_size))
            complete = {key: [(order, payload, answer)
                              for order, payload, answer, _ in rows]
                        for key, rows in groups.items()
                        if len(rows) == rows[0][3]}

            def forward(batch):
                return reference.per_request_outputs(
                    reference.forward(batch), len(batch))

            count, bad = check_batches(complete, forward, self.rng,
                                       CHECK_LIMIT)
            checked += count
            mismatches += [f"{phase.name}: {text}" for text in bad]
            if reused:
                engine_bits: Dict[str, List[np.ndarray]] = {}
                for rows in groups.values():
                    for _, payload, answer, _ in rows:
                        engine_bits.setdefault(payload_digest(payload),
                                               []).append(answer)
                count, bad = check_reuse(reused, engine_bits)
                checked += count
                mismatches += [f"{phase.name}: {text}" for text in bad]
        return checked, mismatches


def check_reuse(reused, engine_bits) -> Tuple[int, List[str]]:
    """A cached or coalesced answer must carry exactly the bits of an
    engine answer for the same payload."""
    mismatches = []
    for payload, answer in reused:
        candidates = engine_bits.get(payload_digest(payload), [])
        if not any(np.array_equal(answer, bits) for bits in candidates):
            mismatches.append("a reused answer matches no engine answer "
                              "for its payload")
    return len(reused), mismatches


class VisionPoisson(_ServerRunner):
    """MobileNet-v2, compiled backend, one in-process ModelServer."""

    def setup(self, repeat):
        model, batches = _quantize(self.spec.model)
        started = time.perf_counter()
        quantized = _calibrate(model, batches)
        quantized_at = time.perf_counter()
        self.artifact = quantized.export()
        plan = ExecutionPlan(self.artifact, backend=self.spec.backend)
        engine = InferenceEngine(plan)
        loaded_at = time.perf_counter()
        engine.warmup(range(1, MAX_BATCH + 1))
        server = ModelServer(workers=2, max_batch=MAX_BATCH,
                             max_wait_ms=MAX_WAIT_MS, cache_mb=CACHE_MB)
        server.add_engine(MODEL, engine, batch=MAX_BATCH,
                          max_wait_ms=MAX_WAIT_MS)
        ready_at = time.perf_counter()
        if self.front is not None:
            self.front.close()
        self.front, self.engine = server, engine
        return {"quantize": quantized_at - started,
                "load": loaded_at - quantized_at,
                "warmup": ready_at - loaded_at}

    def close(self):
        if self.front is not None:
            self.front.close(drain=False)

    def wrap(self, tracer):
        tracer.wrap(self.front, "submit", "server.submit", "front")
        tracer.wrap(self.engine, "infer", "engine.infer", "engine",
                    size_arg=0)

    def _child_spans(self, tracer, phase, index, root):
        link: Optional[Call] = phase.links[index]
        future = phase.futures[index]
        if link is None or future.exception(timeout=0) is not None:
            return
        request = future.request
        if request.cached or request.coalesced:
            return
        request_id = f"{phase.name}:{index}"
        tracer.span("batcher.queue", request.enqueued_at, link.start,
                    request=request_id, parent=root)
        tracer.span("engine.infer", link.start, link.end,
                    request=request_id, parent=root, batch=link.index,
                    size=link.size)

    def check(self, phases):
        return self._check_served(phases, self._reference(self.artifact))

    def layers(self, tracer, nominal, saturating):
        for phase in (nominal, saturating):
            self._request_spans(tracer, phase, "server.submit")
        out = _front_layers(nominal)
        out.update(_cache_layers((nominal, saturating)))
        waits = []
        for index in range(nominal.count):
            link, future = nominal.links[index], nominal.futures[index]
            if link is None or future.exception(timeout=0) is not None:
                continue
            if not (future.request.cached or future.request.coalesced):
                waits.append((link.start - future.request.enqueued_at)
                             * 1e3)
        calls = calls_within(tracer.calls["engine.infer"],
                             saturating.start, saturating.end)
        served = sum(call.size for call in calls)
        out.update({
            "batcher.queue_wait_ms_p50": percentile_or_zero(waits, 50),
            "batcher.queue_wait_ms_p99": percentile_or_zero(waits, 99),
            "batcher.batch_size_mean": served / len(calls) if calls else 0,
            "engine.busy_share": busy_share(calls, saturating.start,
                                            saturating.end),
            "engine.ms_per_request": (sum(c.ms for c in calls) / served
                                      if served else 0.0),
        })
        return out

    def kernel_plans(self):
        plan = self.engine.plan
        return [(plan, self.pool[:MAX_BATCH])]


class PipelineSplit(_ServerRunner):
    """MobileNet-v2, fused backend, 2-stage in-process PipelineEngine."""

    def setup(self, repeat):
        model, batches = _quantize(self.spec.model)
        started = time.perf_counter()
        quantized = _calibrate(model, batches)
        quantized_at = time.perf_counter()
        self.artifact = quantized.export()
        pipeline = PipelineEngine.from_artifact(
            self.artifact, stages=2, backend=self.spec.backend, name=MODEL,
            max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, workers=1)
        loaded_at = time.perf_counter()
        # The stage engines are only reachable through the private list;
        # warming each through its public ``warmup`` is what a server
        # answering every batch size needs.
        for engine in pipeline._engines:
            engine.warmup(range(1, MAX_BATCH + 1))
        ready_at = time.perf_counter()
        if self.front is not None:
            self.front.close()
        self.front = pipeline
        return {"quantize": quantized_at - started,
                "load": loaded_at - quantized_at,
                "warmup": ready_at - loaded_at}

    def close(self):
        if self.front is not None:
            self.front.close(drain=False)

    def wrap(self, tracer):
        tracer.wrap(self.front, "submit", "server.submit", "front")
        for index, engine in enumerate(self.front._engines):
            # The last stage resolves the futures on its own thread, so
            # its calls fill the "engine" slot the done-callback reads.
            slot = ("engine" if index == len(self.front._engines) - 1
                    else f"stage{index}")
            tracer.wrap(engine, "infer", f"pipeline.stage{index}", slot,
                        size_arg=0)

    def _child_spans(self, tracer, phase, index, root):
        link: Optional[Call] = phase.links[index]
        future = phase.futures[index]
        if link is None or future.exception(timeout=0) is not None:
            return
        request_id = f"{phase.name}:{index}"
        # Stages run batches in FIFO order, so the k-th call of every
        # stage belongs to the same batch.
        first = tracer.calls["pipeline.stage0"][link.index]
        tracer.span("batcher.queue", future.request.enqueued_at,
                    first.start, request=request_id, parent=root)
        tracer.span("pipeline.stage0", first.start, first.end,
                    request=request_id, parent=root, batch=first.index,
                    size=first.size)
        tracer.span("pipeline.stage1", link.start, link.end,
                    request=request_id, parent=root, batch=link.index,
                    size=link.size)

    def check(self, phases):
        return self._check_served(phases, self._reference(self.artifact))

    def kernel_plans(self):
        # The stages together run the kernels of the unsplit plan.
        plan = ExecutionPlan(self.artifact, backend=self.spec.backend)
        return [(plan, self.pool[:MAX_BATCH])]

    def layers(self, tracer, nominal, saturating):
        for phase in (nominal, saturating):
            self._request_spans(tracer, phase, "server.submit")
        out = _front_layers(nominal)
        window = (saturating.start, saturating.end)
        stage_calls = [calls_within(tracer.calls[f"pipeline.stage{k}"],
                                    *window) for k in (0, 1)]
        served = sum(call.size for call in stage_calls[-1])
        busy = [busy_share(calls, *window) for calls in stage_calls]
        waits = []
        stage0 = tracer.calls["pipeline.stage0"]
        for index in range(nominal.count):
            link, future = nominal.links[index], nominal.futures[index]
            if link is not None and future.exception(timeout=0) is None:
                waits.append((stage0[link.index].start
                              - future.request.enqueued_at) * 1e3)
        out.update({
            "batcher.queue_wait_ms_p50": percentile_or_zero(waits, 50),
            "batcher.queue_wait_ms_p99": percentile_or_zero(waits, 99),
            "batcher.batch_size_mean": (
                sum(c.size for c in stage_calls[0]) / len(stage_calls[0])
                if stage_calls[0] else 0.0),
            "engine.busy_share": sum(busy) / len(busy),
            "engine.ms_per_request": (
                sum(c.ms for calls in stage_calls for c in calls) / served
                if served else 0.0),
        })
        for k in (0, 1):
            out[f"pipeline.stage{k}.busy_share"] = busy[k]
            out[f"pipeline.stage{k}.ms_p50"] = (
                median([c.ms for c in stage_calls[k]])
                if stage_calls[k] else 0.0)
        return out


class ZipfCluster(Runner):
    """ResNet-tiny, fused backend, one subprocess worker behind a
    ClusterRouter, Zipf-skewed payloads over a warmed cache."""

    children = True
    WARM_SIZES = range(1, MAX_BATCH + 1)

    def __init__(self, spec, work_dir, seed):
        super().__init__(spec, work_dir, seed)
        _, sample = build_model(spec.model, seed=0)
        self.items = sample(self.rng, ZIPF_ITEMS)
        self.router: Optional[ClusterRouter] = None
        self.warm: List[Tuple[int, object]] = []
        self.stats_bytes: List[Tuple[float, int]] = []
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def setup(self, repeat):
        model, batches = _quantize(self.spec.model)
        path = self.work_dir / f"zipf-{repeat}.npz"
        started = time.perf_counter()
        quantized = _calibrate(model, batches)
        quantized_at = time.perf_counter()
        self.artifact = quantized.export(path=path)
        router = ClusterRouter.spawn(
            {MODEL: str(path)}, workers=1, placement="consistent_hash",
            max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
            backend=self.spec.backend, capacity=CLUSTER_CAPACITY,
            worker_threads=1, env=ONE_BLAS_THREAD, cache_mb=CACHE_MB)
        loaded_at = time.perf_counter()
        # Warm the cache with the most popular items, in waves of 1..16
        # distinct payloads so each batch size meets its first check here.
        warm, item = [], 0
        for size in self.WARM_SIZES:
            wave = [(index, router.submit(MODEL, self.items[index]))
                    for index in range(item, item + size)]
            item += size
            for _, future in wave:
                future.result(timeout=60)
            warm += wave
        ready_at = time.perf_counter()
        if self.router is not None:
            self.router.close()
        self.router, self.warm = router, warm
        return {"quantize": quantized_at - started,
                "load": loaded_at - quantized_at,
                "warmup": ready_at - loaded_at}

    def sender(self, phase, count):
        draws = zipf_ranks(count, ZIPF_ITEMS, ZIPF_EXPONENT, self.rng)
        phase.inputs["draws"] = draws
        submit, items = self.router.submit, self.items
        return lambda index: submit(MODEL, items[draws[index]])

    def _poll(self) -> None:
        """The load process's once-a-second stats call; its size is the
        JSON of the merged snapshot, the same fields the wire carries."""
        while not self._stop.wait(1.0):
            stats = self.router.stats()
            self.stats_bytes.append((time.perf_counter(), len(json.dumps(
                {name: value.to_wire() for name, value in stats.items()}))))

    def begin_phase(self, phase):
        self._stop.clear()
        self._poller = threading.Thread(target=self._poll,
                                        name="perfbench-stats", daemon=True)
        self._poller.start()

    def end_phase(self, phase):
        self._stop.set()
        self._poller.join(timeout=60)

    def close(self):
        if self.router is not None:
            self.router.close(drain=False)

    def wrap(self, tracer):
        tracer.wrap(self.router, "submit", "router.submit", "front")
        tracer.wrap(self.router, "stats", "router.stats", "stats")

    def _child_spans(self, tracer, phase, index, root):
        future = phase.futures[index]
        call = phase.fronts[index]
        if call is None or future.exception(timeout=0) is not None:
            return
        request = future.request
        tracer.span("cluster.remote", call.end, phase.done[index],
                    request=f"{phase.name}:{index}", parent=root,
                    worker=request.worker, worker_ms=request.latency_ms,
                    cached=request.cached, coalesced=request.coalesced)

    def check(self, phases):
        # Rows: (payload item, router id, worker, batch id/size, answer).
        rows = [(item, future) for item, future in self.warm]
        for phase in phases:
            rows += [(int(phase.inputs["draws"][index]), phase.futures[index])
                     for index in range(phase.count)]
        groups: Dict[tuple, list] = {}
        engine_bits: Dict[str, List[np.ndarray]] = {}
        reused = []
        for item, future in rows:
            if not future.done() or future.exception(timeout=0):
                continue
            request, answer = future.request, future.result(timeout=0)
            payload = self.items[item]
            if request.cached or request.coalesced:
                reused.append((payload, answer))
                continue
            engine_bits.setdefault(payload_digest(payload), []).append(answer)
            groups.setdefault((request.worker, request.batch_id), []).append(
                (request.id, payload, answer, request.batch_size))
        complete = {key: [(order, payload, answer)
                          for order, payload, answer, _ in members]
                    for key, members in groups.items()
                    if len(members) == members[0][3]}
        reference = ExecutionPlan(self.artifact, backend="reference",
                                  verify=False)
        checked, mismatches = check_batches(complete, reference.forward,
                                            self.rng)
        count, bad = check_reuse(reused, engine_bits)
        return checked + count, mismatches + bad

    def layers(self, tracer, nominal, saturating):
        for phase in (nominal, saturating):
            self._request_spans(tracer, phase, "router.submit")
        stats_calls = calls_within(tracer.calls["router.stats"],
                                   nominal.start, saturating.end)
        for call in stats_calls:
            tracer.span("router.stats", call.start, call.end,
                        request=f"stats:{call.index}")
        sizes = [size for stamp, size in self.stats_bytes
                 if nominal.start <= stamp < saturating.end]
        submit_us, hops, worker_ms = [], [], []
        for index in range(nominal.count):
            future, call = nominal.futures[index], nominal.fronts[index]
            if call is None or future.exception(timeout=0) is not None:
                continue
            submit_us.append(call.ms * 1e3)
            latency = future.request.latency_ms
            worker_ms.append(latency)
            hops.append((nominal.done[index] - call.start) * 1e3 - latency)
        # Of the requests the client window let through, those the
        # router refused at its in-flight cap.
        offered = [index for index in range(saturating.count)
                   if saturating.offered(index)]
        shed = sum(1 for index in offered
                   if is_shed(saturating.outcome(index)))
        out = {
            "router.submit_us_p50": percentile_or_zero(submit_us, 50),
            "transport.hop_ms_p50": percentile_or_zero(hops, 50),
            "worker.latency_ms_p50": percentile_or_zero(worker_ms, 50),
            "router.shed_share": shed / len(offered) if offered else 0.0,
            "router.stats_ms": (median([call.ms for call in stats_calls])
                                if stats_calls else 0.0),
            "router.stats_bytes": median(sizes) if sizes else 0.0,
        }
        out.update(_cache_layers((nominal, saturating)))
        return out


class RnnStream(Runner):
    """GRU-speech, compiled backend, 16 streaming sessions per phase."""

    def __init__(self, spec, work_dir, seed):
        super().__init__(spec, work_dir, seed)
        self.server: Optional[ModelServer] = None

    def setup(self, repeat):
        model, batches = _quantize(self.spec.model)
        started = time.perf_counter()
        quantized = _calibrate(model, batches)
        quantized_at = time.perf_counter()
        artifact = quantized.export()
        plan = ExecutionPlan(artifact, backend=self.spec.backend)
        engine = InferenceEngine(plan)
        loaded_at = time.perf_counter()
        # Every (sessions, timesteps) shape a phase can batch: one chunk
        # per session per micro-batch, equal widths only.
        features = plan.input_shape[1:]
        for sessions in range(1, SESSIONS + 1):
            for width in range(CHUNK_WIDTHS[0], CHUNK_WIDTHS[1] + 1):
                plan.forward_stream(
                    np.zeros((sessions, width) + features,
                             dtype=plan.input_dtype), {})
        server = ModelServer(workers=2, max_batch=MAX_BATCH,
                             max_wait_ms=MAX_WAIT_MS)
        server.add_engine(MODEL, engine, batch=MAX_BATCH,
                          max_wait_ms=MAX_WAIT_MS)
        ready_at = time.perf_counter()
        if self.server is not None:
            self.server.close()
        self.server, self.engine, self.plan = server, engine, plan
        return {"quantize": quantized_at - started,
                "load": loaded_at - quantized_at,
                "warmup": ready_at - loaded_at}

    def sender(self, phase, count):
        rng = self.rng
        widths = rng.integers(CHUNK_WIDTHS[0], CHUNK_WIDTHS[1] + 1, count)
        owners = rng.integers(0, SESSIONS, count)
        features = self.plan.input_shape[1:]
        frames = rng.normal(size=(int(widths.sum()),) + features).astype(
            self.plan.input_dtype)
        bounds = np.concatenate([[0], np.cumsum(widths)])
        chunks = [frames[bounds[i]:bounds[i + 1]] for i in range(count)]
        sessions = [self.server.open_session(MODEL)
                    for _ in range(SESSIONS)]
        phase.inputs.update(chunks=chunks, owners=owners)
        submit = self.server.submit_stream
        return lambda index: submit(MODEL, sessions[owners[index]],
                                    chunks[index])

    def end_phase(self, phase):
        phase.inputs["session_bytes"] = self.server.stats()[
            MODEL].session_bytes

    def close(self):
        if self.server is not None:
            self.server.close(drain=False)

    def wrap(self, tracer):
        tracer.wrap(self.server, "submit_stream", "server.submit", "front")
        tracer.wrap(self.engine, "infer_stream", "engine.infer_stream",
                    "engine", size_arg=0)

    def _child_spans(self, tracer, phase, index, root):
        link: Optional[Call] = phase.links[index]
        if link is not None and phase.futures[index].exception(
                timeout=0) is None:
            tracer.span("engine.infer_stream", link.start, link.end,
                        request=f"{phase.name}:{index}", parent=root,
                        batch=link.index, size=link.size)

    def check(self, phases):
        """Every session's answered chunks must be a prefix of what it
        sent; in a seeded sample of sessions they must, concatenated,
        equal one offline full-sequence ``forward_stream`` of their
        inputs."""
        checked, mismatches = 0, []
        for phase in phases:
            owners, chunks = phase.inputs["owners"], phase.inputs["chunks"]
            streams: Dict[int, List[int]] = {s: [] for s in range(SESSIONS)}
            for index in range(phase.count):
                if phase.offered(index):
                    streams[int(owners[index])].append(index)
            picks = set(self.rng.choice(SESSIONS, size=STREAM_CHECK_LIMIT,
                                        replace=False).tolist())
            for session, mine in streams.items():
                answered = [i for i in mine if phase.outcome(i) is None]
                if answered != mine[:len(answered)]:
                    mismatches.append(f"{phase.name}: session {session} "
                                      "answered chunks out of order")
                    continue
                if not answered or session not in picks:
                    continue
                inputs = np.concatenate([chunks[i] for i in answered])
                outputs, _ = self.plan.forward_stream(inputs[None], {})
                offline = self.plan.stream_outputs(outputs, 1)[0]
                chunked = np.concatenate(
                    [phase.futures[i].result(timeout=0) for i in answered])
                checked += len(answered)
                if not np.array_equal(chunked, offline):
                    mismatches.append(f"{phase.name}: session {session} "
                                      "chunked output differs from the "
                                      "offline run")
        return checked, mismatches

    def layers(self, tracer, nominal, saturating):
        for phase in (nominal, saturating):
            self._request_spans(tracer, phase, "server.submit")
        out = _front_layers(nominal)
        calls = calls_within(tracer.calls["engine.infer_stream"],
                             saturating.start, saturating.end)
        served = sum(call.size for call in calls)
        out.update({
            "stream.batch_size_mean": served / len(calls) if calls else 0,
            "stream.infer_ms_p50": (median([c.ms for c in calls])
                                    if calls else 0.0),
            "stream.session_bytes": float(
                saturating.inputs["session_bytes"]),
            "engine.busy_share": busy_share(calls, saturating.start,
                                            saturating.end),
            "engine.ms_per_request": (sum(c.ms for c in calls) / served
                                      if served else 0.0),
        })
        return out

    def kernel_plans(self):
        shape = (MAX_BATCH,) + self.plan.input_shape
        batch = np.random.default_rng(self.seed).normal(size=shape)
        return [(self.plan, batch.astype(self.plan.input_dtype))]


def _front_layers(nominal: Phase) -> Dict[str, float]:
    submit_us = [call.ms * 1e3 for call in nominal.fronts
                 if call is not None]
    return {"server.submit_us_p50": percentile_or_zero(submit_us, 50),
            "server.submit_us_p99": percentile_or_zero(submit_us, 99)}


def _cache_layers(phases) -> Dict[str, float]:
    hits = coalesced = answered = 0
    for phase in phases:
        for future in phase.futures:
            if not future.done() or future.exception(timeout=0):
                continue
            answered += 1
            hits += bool(future.request.cached)
            coalesced += bool(future.request.coalesced)
    return {"cache.hit_rate": hits / answered if answered else 0.0,
            "cache.coalesced": float(coalesced)}


RUNNERS = {
    "vision_poisson": VisionPoisson,
    "zipf_cluster": ZipfCluster,
    "rnn_stream": RnnStream,
    "pipeline_split": PipelineSplit,
}


# ----------------------------------------------------------------------
# Per-node kernel pass
# ----------------------------------------------------------------------
def kernel_pass(plan: ExecutionPlan, batch: np.ndarray, tracer: Tracer,
                reps: int = 30) -> Tuple[Dict[str, float], List[str]]:
    """Walk ``plan.compiled.graph`` in order, calling each node's public
    ``Kernel.run``, at batch 16 and batch 1.

    Per kind: the share of the summed per-node medians. ``gemm_share``
    times ``numpy.matmul`` (every serving GEMM goes through it) in a
    separate walk, so its wrapper does not inflate the node times.
    ``profile_gap`` is the per-node sum against the median ``plan.forward``
    of the same batch. Returns the metrics and any mismatch between the
    walk's output and ``plan.forward``.
    """
    compiled = plan.compiled
    graph = compiled.graph
    order = [node for node in graph.nodes if node.id != graph.input_id]
    clock = time.perf_counter
    real_matmul = np.matmul
    gemm = [0.0]

    def timed_matmul(*args, **kwargs):
        started = clock()
        try:
            return real_matmul(*args, **kwargs)
        finally:
            gemm[0] += clock() - started

    def walk(x, times=None):
        values = {graph.input_id: x}
        for node in order:
            run = compiled.kernels[node.id].run
            args = [values[source] for source in node.inputs]
            started = clock()
            values[node.id] = run(*args)
            if times is not None:
                times[node.id].append((started, clock()))
        return values[graph.output_id]

    metrics, mismatches = {}, []
    for size in (MAX_BATCH, 1):
        x = np.ascontiguousarray(batch[:size])
        expected = np.array(plan.forward(x), copy=True)
        forward = []
        for _ in range(reps):
            started = clock()
            plan.forward(x)
            forward.append(clock() - started)
        times = {node.id: [] for node in order}
        for rep in range(reps):
            out = walk(x, times)
            if rep == 0 and not np.array_equal(out, expected):
                mismatches.append(f"kernel pass at batch {size} differs "
                                  "from plan.forward")
        totals, gemm_shares = [], []
        np.matmul = timed_matmul
        try:
            for _ in range(reps):
                gemm[0] = 0.0
                started = clock()
                walk(x)
                gemm_shares.append(gemm[0] / (clock() - started))
        finally:
            np.matmul = real_matmul
        node_ms = {node.id: median([(end - start) * 1e3
                                    for start, end in times[node.id]])
                   for node in order}
        total = sum(node_ms.values())
        forward_ms = median(forward) * 1e3
        prefix = f"kernels.b{size}"
        for kind in KERNEL_KINDS:
            metrics[f"{prefix}.{kind}.share"] = sum(
                ms for node_id, ms in node_ms.items()
                if graph.node(node_id).kind == kind) / total
        metrics[f"{prefix}.gemm_share"] = median(gemm_shares)
        metrics[f"{prefix}.profile_gap"] = total / forward_ms - 1.0
        metrics[f"{prefix}.forward_ms"] = forward_ms
        # Spans of the last walk: one root, one child per node.
        last = {node.id: times[node.id][-1] for node in order}
        request = f"kernels:b{size}"
        root = tracer.span("kernel.walk", last[order[0].id][0],
                           last[order[-1].id][1], request=request)
        for node in order:
            start, end = last[node.id]
            tracer.span(f"kernel.{node.kind}", start, end, request=request,
                        parent=root, node=node.id)
    return metrics, mismatches
