"""The async serving layer: dynamic batcher, futures, ModelServer, stats,
wire protocol.

Everything here is deterministic: batch-deadline behavior is driven by a
manual injectable clock (no sleeps anywhere), and the one threaded test
only ever blocks on futures with generous timeouts.
"""

import io
import json

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import ConfigurationError, ServingError
from repro.serve import (
    DynamicBatcher,
    EngineStats,
    ModelServer,
    coerce_payload,
    gather,
)
from repro.serve.cli import serve_protocol
from repro.serve.server import ModelStats
from tests.conftest import make_mlp


class ManualClock:
    """A clock tests advance explicitly; reading it never moves it."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> "ManualClock":
        self.now += seconds
        return self


def make_deployment(seed=7, batch=4, max_wait_ms=None):
    """A small, fast MLP deployment (input shape (12,), 3 logits)."""
    rng = np.random.default_rng(seed + 1000)
    pipeline = Pipeline(PipelineConfig(batch=batch), model=make_mlp(seed))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy(max_wait_ms=max_wait_ms), pipeline.result


def payload_stream(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(12,)).astype(np.float32)
            for _ in range(count)]


def assert_batchwise_bit_exact(futures, payloads, quantized):
    """Server results == eager inference at the served batch composition.

    (Individual re-inference is only ``allclose``: BLAS picks kernels per
    shape, so bit-equality is defined against eager at the same batch.)
    """
    groups = {}
    for future, payload in zip(futures, payloads):
        groups.setdefault(future.request.batch_id, []).append(
            (future.result(timeout=0), payload))
    assert groups
    for pairs in groups.values():
        served = np.stack([result for result, _ in pairs])
        eager = quantized.predict(np.stack([p for _, p in pairs]))
        # reshape: time-merged plans return eager output flattened
        assert np.array_equal(served, eager.reshape(served.shape))


# ----------------------------------------------------------------------
# DynamicBatcher: size-or-deadline flush, FIFO, determinism
# ----------------------------------------------------------------------
class TestDynamicBatcher:
    def test_size_flush_fires_before_deadline(self):
        clock = ManualClock()
        batcher = DynamicBatcher(max_batch=3, max_wait_ms=50.0, clock=clock)
        for index in range(3):
            batcher.submit(np.float32(index))
        # Full batch is ready immediately — the deadline never enters.
        assert batcher.ready(now=clock.now)
        batch = batcher.take(now=clock.now)
        assert [int(r.payload) for r in batch] == [0, 1, 2]

    def test_deadline_flush_fires_on_partial_batch(self):
        clock = ManualClock()
        batcher = DynamicBatcher(max_batch=8, max_wait_ms=5.0, clock=clock)
        batcher.submit(np.float32(0))
        clock.advance(0.002)
        batcher.submit(np.float32(1))
        assert not batcher.ready(now=clock.now)       # 2 < 8, 2ms < 5ms
        assert batcher.take(now=clock.now) == []
        clock.advance(0.0031)                          # oldest now past 5ms
        assert batcher.next_deadline() == pytest.approx(0.005)
        assert batcher.ready(now=clock.now)
        batch = batcher.take(now=clock.now)
        assert [int(r.payload) for r in batch] == [0, 1]

    def test_deadline_is_the_oldest_requests(self):
        # A newer request must not extend the oldest one's wait.
        clock = ManualClock()
        batcher = DynamicBatcher(max_batch=8, max_wait_ms=5.0, clock=clock)
        batcher.submit(np.float32(0))
        clock.advance(0.004)
        batcher.submit(np.float32(1))                  # deadline 9ms
        clock.advance(0.0015)                          # now 5.5ms
        assert batcher.ready(now=clock.now)
        assert len(batcher.take(now=clock.now)) == 2

    def test_no_deadline_means_size_or_force_only(self):
        clock = ManualClock()
        batcher = DynamicBatcher(max_batch=2, max_wait_ms=None, clock=clock)
        batcher.submit(np.float32(0))
        clock.advance(1e9)
        assert not batcher.ready(now=clock.now)
        assert batcher.next_deadline() is None
        assert len(batcher.take(force=True)) == 1

    def test_fifo_across_takes(self):
        batcher = DynamicBatcher(max_batch=2, max_wait_ms=0.0,
                                 clock=ManualClock())
        ids = [batcher.submit(np.float32(i)).id for i in range(5)]
        taken = []
        while batcher.pending:
            taken.extend(r.id for r in batcher.take(force=True))
        assert taken == ids == [0, 1, 2, 3, 4]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            DynamicBatcher(max_batch=0)
        with pytest.raises(ConfigurationError):
            DynamicBatcher(max_batch=4, max_wait_ms=-1.0)


class TestCoercePayload:
    def test_matching_payload_is_not_copied(self, tmp_path):
        deployment, _ = make_deployment()
        payload = np.arange(12, dtype=deployment.plan.input_dtype)
        assert coerce_payload(deployment.plan, payload) is payload

    def test_mismatched_dtype_or_layout_is_coerced(self):
        deployment, _ = make_deployment()
        doubled = np.arange(12, dtype=np.float64)
        coerced = coerce_payload(deployment.plan, doubled)
        assert coerced.dtype == deployment.plan.input_dtype
        strided = np.zeros((12, 2), dtype=np.float32)[:, 0]
        assert not strided.flags["C_CONTIGUOUS"]
        assert coerce_payload(deployment.plan, strided).flags["C_CONTIGUOUS"]

    def test_shape_mismatch_raises(self):
        deployment, _ = make_deployment()
        with pytest.raises(ConfigurationError):
            coerce_payload(deployment.plan, np.zeros((2, 12),
                                                     dtype=np.float32))


# ----------------------------------------------------------------------
# ModelServer: deterministic single-thread mode (workers=0)
# ----------------------------------------------------------------------
class TestModelServerSync:
    def test_deadline_flush_vs_size_flush_ordering(self):
        clock = ManualClock()
        deployment, _ = make_deployment(batch=4)
        server = ModelServer(workers=0, clock=clock)
        server.add("mlp", deployment, max_wait_ms=5.0)
        payloads = payload_stream(3)
        futures = server.submit_many("mlp", payloads)
        assert server.poll() == 0                 # 3 < 4 and deadline ahead
        assert not any(f.done() for f in futures)
        clock.advance(0.006)
        assert server.poll() == 3                 # deadline flush, batch of 3
        assert [f.request.batch_size for f in futures] == [3, 3, 3]
        # A full batch flushes with no clock movement at all.
        futures = server.submit_many("mlp", payload_stream(4, seed=1))
        assert server.poll() == 4                 # size flush
        assert [f.request.batch_size for f in futures] == [4] * 4
        server.close()

    def test_fifo_preserved_under_interleaved_multi_model_submits(self):
        clock = ManualClock()
        dep_a, quant_a = make_deployment(seed=3, batch=4)
        dep_b, quant_b = make_deployment(seed=11, batch=4)
        server = ModelServer(workers=0, clock=clock)
        server.add("a", dep_a)
        server.add("b", dep_b)
        payloads = payload_stream(12, seed=2)
        futures = {"a": [], "b": []}
        for index, payload in enumerate(payloads):
            name = "a" if index % 2 == 0 else "b"
            futures[name].append((server.submit(name, payload), payload))
        server.drain()
        for name, quantized in (("a", quant_a), ("b", quant_b)):
            pairs = futures[name]
            # FIFO: request ids and batch ids are non-decreasing in
            # submission order, per model.
            ids = [future.request.id for future, _ in pairs]
            assert ids == sorted(ids)
            batch_ids = [future.request.batch_id for future, _ in pairs]
            assert batch_ids == sorted(batch_ids)
            assert_batchwise_bit_exact([f for f, _ in pairs],
                                       [p for _, p in pairs], quantized)
        # The two models were actually served as distinct plans.
        stats = server.stats()
        assert stats["a"].requests == stats["b"].requests == 6
        server.close()

    def test_future_error_propagation_on_shape_mismatch(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        future = server.submit("mlp", np.zeros((7,), dtype=np.float32))
        assert future.done()
        assert isinstance(future.exception(), ConfigurationError)
        with pytest.raises(ConfigurationError, match="request shape"):
            future.result(timeout=0)
        # The poisoned submit never reached the queue: good requests that
        # follow still serve, in order.
        good = server.submit_many("mlp", payload_stream(2))
        server.drain()
        assert all(f.exception() is None for f in good)
        assert server.stats()["mlp"].requests == 2
        server.close()

    def test_batched_results_bit_exact_and_individual_close(self):
        deployment, quantized = make_deployment(batch=4)
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        payloads = payload_stream(10, seed=5)
        futures = server.submit_many("mlp", payloads)
        server.drain()
        assert_batchwise_bit_exact(futures, payloads, quantized)
        for future, payload in zip(futures, payloads):
            np.testing.assert_allclose(
                future.result(timeout=0),
                quantized.predict(payload[None])[0], rtol=1e-5, atol=1e-5)

    def test_time_merged_rnn_futures_get_whole_outputs(self):
        # lstm_lm serves a time-flattened (N*T, V) plan output; each
        # future must resolve to its request's full (T, V) logits, not a
        # single flattened row (the legacy scheduler's latent bug).
        from repro.serve.cli import build_model

        model, sample = build_model("lstm_lm", seed=1)
        rng = np.random.default_rng(55)
        pipeline = Pipeline(PipelineConfig(batch=4), model=model)
        quantized = pipeline.calibrate([sample(rng, 8)])
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("lm", pipeline.deploy())
        payloads = [sample(rng, 1)[0] for _ in range(4)]
        futures = server.submit_many("lm", payloads)
        server.drain()
        eager = quantized.predict(np.stack(payloads))     # (4*12, 40)
        per_request = eager.reshape(4, 12, 40)
        for index, future in enumerate(futures):
            result = future.result(timeout=0)
            assert result.shape == (12, 40)
            assert np.array_equal(result, per_request[index])
        server.close()

    def test_unknown_model_raises_immediately(self):
        server = ModelServer(workers=0)
        with pytest.raises(ServingError, match="unknown model"):
            server.submit("nope", np.zeros(12, dtype=np.float32))
        server.close()

    def test_predict_convenience_drains(self):
        deployment, quantized = make_deployment()
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        payload = payload_stream(1)[0]
        result = server.predict("mlp", payload)
        assert np.array_equal(result, quantized.predict(payload[None])[0])
        server.close()


# ----------------------------------------------------------------------
# Lifecycle: load/unload, aliases, warmup, close
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_load_from_artifact_path_and_unload(self, tmp_path):
        deployment, quantized = make_deployment()
        path = tmp_path / "mlp.npz"
        deployment.save(path)
        server = ModelServer(workers=0, clock=ManualClock())
        server.load("mlp", path, batch=4)
        assert server.models() == ["mlp"]
        payload = payload_stream(1)[0]
        assert np.array_equal(server.predict("mlp", payload),
                              quantized.predict(payload[None])[0])
        server.unload("mlp")
        assert server.models() == []
        with pytest.raises(ServingError):
            server.submit("mlp", payload)
        with pytest.raises(ServingError):
            server.unload("mlp")
        server.close()

    def test_load_rejects_compile_options_for_deployments(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0)
        with pytest.raises(ConfigurationError, match="already compiled"):
            server.load("mlp", deployment, backend="fused")
        server.load("mlp", deployment, batch=2)   # batch override is fine
        assert server.stats()["mlp"].max_batch == 2
        server.close()

    def test_duplicate_name_rejected(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0)
        server.add("mlp", deployment)
        with pytest.raises(ConfigurationError, match="already loaded"):
            server.add("mlp", deployment)
        server.close()

    def test_unload_drains_pending_requests(self):
        deployment, quantized = make_deployment(batch=8)
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        payloads = payload_stream(3, seed=9)
        futures = server.submit_many("mlp", payloads)
        server.unload("mlp")                      # serves the queue first
        assert_batchwise_bit_exact(futures, payloads, quantized)
        server.close()

    def test_unload_without_drain_fails_futures(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        future = server.submit("mlp", payload_stream(1)[0])
        server.unload("mlp", drain=False)
        assert isinstance(future.exception(), ServingError)
        server.close()

    def test_alias_versioned_rollover(self):
        v1, quant_v1 = make_deployment(seed=21)
        v2, quant_v2 = make_deployment(seed=42)   # different weights
        server = ModelServer(workers=0, clock=ManualClock())
        server.load("resnet@v1", v1)
        server.alias("resnet", "resnet@v1")
        payload = payload_stream(1, seed=3)[0]
        before = server.predict("resnet", payload)
        assert np.array_equal(before, quant_v1.predict(payload[None])[0])
        # Rollover: load v2, re-point the public name, retire v1.
        server.load("resnet@v2", v2)
        server.alias("resnet", "resnet@v2")
        server.unload("resnet@v1")
        after = server.predict("resnet", payload)
        assert np.array_equal(after, quant_v2.predict(payload[None])[0])
        assert not np.array_equal(before, after)
        assert server.aliases() == {"resnet": "resnet@v2"}
        server.close()

    def test_alias_cannot_shadow_model_and_must_resolve(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0)
        server.add("mlp", deployment)
        with pytest.raises(ConfigurationError, match="cannot shadow"):
            server.alias("mlp", "elsewhere")
        with pytest.raises(ServingError, match="unknown model"):
            server.alias("front", "missing")
        server.close()

    def test_unloading_model_drops_its_aliases(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp@v1", deployment)
        server.alias("mlp", "mlp@v1")
        server.unload("mlp@v1")
        assert server.aliases() == {}
        server.close()

    def test_warmup_leaves_counters_clean(self):
        deployment, _ = make_deployment(batch=4)
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment, warmup=True)
        stats = server.stats()["mlp"]
        assert stats.requests == 0 and stats.batches == 0
        server.close()

    def test_close_without_drain_fails_every_pending_future(self):
        # More than one batch's worth queued: close(drain=False) must
        # fail them all, not just the first max_batch requests.
        deployment, _ = make_deployment(batch=4)
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        futures = server.submit_many("mlp", payload_stream(11))
        server.close(drain=False)
        assert all(isinstance(f.exception(), ServingError)
                   for f in futures)

    def test_drain_waits_for_in_flight_models(self):
        # With a worker mid-batch on the model, drain() must not return
        # while that model still has queued requests it cannot claim.
        deployment, _ = make_deployment(batch=4)
        with ModelServer(workers=1, max_wait_ms=3600_000.0) as server:
            server.add("mlp", deployment)
            futures = server.submit_many("mlp", payload_stream(11, seed=4))
            server.drain()                      # races a busy worker
            # Nothing is left *queued*; an in-flight batch resolves its
            # own futures, so block on them rather than polling done().
            gather(futures, timeout=60.0)
            assert all(f.exception() is None for f in futures)
            assert server.stats()["mlp"].queue_depth == 0

    def test_closed_server_rejects_submits(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("mlp", deployment)
        future = server.submit("mlp", payload_stream(1)[0])
        server.close()                            # drains the queue
        assert future.exception() is None
        with pytest.raises(ServingError, match="closed"):
            server.submit("mlp", payload_stream(1)[0])


# ----------------------------------------------------------------------
# Threaded mode (real workers; blocks only on future timeouts, no sleeps)
# ----------------------------------------------------------------------
class TestModelServerThreaded:
    def test_two_models_served_concurrently_bit_exact(self):
        dep_a, quant_a = make_deployment(seed=5, batch=4)
        dep_b, quant_b = make_deployment(seed=6, batch=4)
        with ModelServer(workers=2, max_wait_ms=1.0) as server:
            server.add("a", dep_a)
            server.add("b", dep_b)
            payloads = payload_stream(16, seed=7)
            futures_a = server.submit_many("a", payloads)
            futures_b = server.submit_many("b", payloads)
            gather(futures_a + futures_b, timeout=60.0)
            assert_batchwise_bit_exact(futures_a, payloads, quant_a)
            assert_batchwise_bit_exact(futures_b, payloads, quant_b)
            stats = server.stats()
            assert stats["a"].requests == stats["b"].requests == 16

    def test_context_manager_close_serves_stragglers(self):
        deployment, quantized = make_deployment(batch=16)
        # An effectively infinite deadline: only close() can flush.
        with ModelServer(workers=1, max_wait_ms=3600_000.0) as server:
            server.add("mlp", deployment)
            payloads = payload_stream(3, seed=8)
            futures = server.submit_many("mlp", payloads)
        assert_batchwise_bit_exact(futures, payloads, quantized)


# ----------------------------------------------------------------------
# Stats: mixin, percentiles, merge
# ----------------------------------------------------------------------
class TickingClock:
    """Advances 1 ms per read — nonzero latencies without sleeping."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def model_stats(model="m", backend="reference", max_batch=4, requests=0,
                batches=0, errors=0, wall_seconds=0.0, latencies_ms=(),
                fpga_ms_total=0.0, queue_depth=0, in_flight=0):
    """A hand-built ModelStats snapshot (unset counters are zero)."""
    return ModelStats(model=model, backend=backend, max_batch=max_batch,
                      requests=requests, batches=batches, errors=errors,
                      wall_seconds=wall_seconds,
                      latencies_ms=list(latencies_ms),
                      fpga_ms_total=fpga_ms_total,
                      queue_depth=queue_depth, in_flight=in_flight)


class TestStats:
    def drained_stats(self, count=10, batch=4, clock=None):
        deployment, _ = make_deployment(batch=batch)
        server = ModelServer(workers=0, clock=clock or ManualClock())
        server.add("mlp", deployment)
        server.submit_many("mlp", payload_stream(count))
        server.drain()
        stats = server.stats()["mlp"]
        server.close()
        return stats

    def test_model_stats_fields_and_fill(self):
        stats = self.drained_stats(count=10, batch=4)
        assert stats.requests == 10 and stats.batches == 3
        assert stats.mean_batch_size == pytest.approx(10 / 3)
        assert stats.mean_batch_fill == pytest.approx(10 / 12)
        assert stats.queue_depth == 0 and stats.in_flight == 0
        assert len(stats.latencies_ms) == 10
        assert stats.fpga_ms_per_request > 0
        for line_bit in ("p50/p95/p99", "fill", "req/s"):
            assert line_bit in stats.format()

    def test_percentiles_present_and_ordered(self):
        stats = self.drained_stats(count=20, batch=4, clock=TickingClock())
        assert 0 < stats.latency_ms_p50 <= stats.latency_ms_p95 \
            <= stats.latency_ms_p99

    def test_model_stats_p99_and_merge(self):
        first = model_stats(requests=4, batches=2, wall_seconds=0.5,
                            latencies_ms=[1.0, 2.0, 3.0, 4.0],
                            fpga_ms_total=0.4, backend="fused")
        second = model_stats(requests=2, batches=1, wall_seconds=0.5,
                             latencies_ms=[10.0, 20.0],
                             fpga_ms_total=0.2, backend="fused")
        merged = first.merge(second)
        assert merged.requests == 6 and merged.batches == 3
        assert merged.wall_seconds == pytest.approx(1.0)
        assert merged.latencies_ms == [1.0, 2.0, 3.0, 4.0, 10.0, 20.0]
        assert merged.backend == "fused"
        assert merged.latency_ms_p99 == pytest.approx(
            float(np.percentile(merged.latencies_ms, 99)))
        third = model_stats(requests=1, batches=1, wall_seconds=0.1,
                            latencies_ms=[5.0], fpga_ms_total=0.1,
                            backend="reference")
        assert first.merge(second, third).backend == "mixed"

    def test_engine_stats_share_the_mixin(self):
        stats = EngineStats(requests=8, batches=2, wall_seconds=2.0,
                            fpga_ms=1.0)
        assert stats.mean_batch_size == 4.0
        assert stats.requests_per_second == 4.0
        assert stats.latency_ms_p99 == 0.0      # keeps no latency list
        assert stats.fpga_ms_per_request == 0.125
        merged = stats.merge(EngineStats(requests=2, batches=1,
                                         wall_seconds=1.0, fpga_ms=0.5))
        assert merged.requests == 10 and merged.fpga_ms == 1.5

    def test_model_stats_merge_across_models(self):
        dep_a, _ = make_deployment(seed=1, batch=4)
        dep_b, _ = make_deployment(seed=2, batch=8)
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("a", dep_a)
        server.add("b", dep_b)
        server.submit_many("a", payload_stream(4))
        server.submit_many("b", payload_stream(8))
        server.drain()
        stats = server.stats()
        merged = stats["a"].merge(stats["b"])
        assert merged.requests == 12
        assert merged.max_batch == 8              # max, not sum
        assert merged.model == "mixed"
        assert len(merged.latencies_ms) == 12
        server.close()

    def test_stats_window_bounds_latency_detail(self):
        deployment, _ = make_deployment(batch=2)
        server = ModelServer(workers=0, stats_window=6,
                             clock=TickingClock())
        server.add("mlp", deployment)
        server.submit_many("mlp", payload_stream(10))
        server.drain()
        stats = server.stats()["mlp"]
        assert stats.requests == 10               # lifetime counter
        assert len(stats.latencies_ms) == 6       # windowed detail
        assert stats.fpga_ms_total > 0
        server.close()

    def test_merge_rejects_mismatched_types(self):
        stats = model_stats(requests=1, batches=1, wall_seconds=0.1,
                            latencies_ms=[1.0], fpga_ms_total=0.1)
        with pytest.raises(ConfigurationError):
            stats.merge(EngineStats())


class TestStatsMergeEdgeCases:
    """merge() corner cases the cluster stats path leans on: identity
    with empty snapshots, hand-computed aggregates, merge="max" fields,
    string collapse, windowed-list concatenation, wire round-trip."""

    def test_merge_with_empty_stats_is_identity(self):
        # An idle worker's snapshot must not perturb the aggregate.
        busy = model_stats(requests=10, batches=3, wall_seconds=2.0,
                                latencies_ms=[1.0, 2.0, 3.0],
                                fpga_ms_total=0.5)
        idle = model_stats()
        merged = busy.merge(idle)
        assert merged.requests == 10 and merged.batches == 3
        assert merged.wall_seconds == pytest.approx(2.0)
        assert merged.latencies_ms == [1.0, 2.0, 3.0]
        assert merged.backend == "reference" and merged.model == "m"
        assert merged.max_batch == 4

    def test_merge_of_two_empties_stays_zero_and_finite(self):
        merged = model_stats().merge(model_stats())
        assert merged.requests == 0 and merged.batches == 0
        # derived metrics must not divide by zero
        assert merged.mean_batch_size == 0.0
        assert merged.requests_per_second == 0.0
        assert merged.latency_ms_mean == 0.0
        assert merged.latency_ms_p99 == 0.0
        assert merged.fpga_ms_per_request == 0.0
        assert merged.mean_batch_fill == 0.0

    def test_merge_no_arguments_copies(self):
        stats = model_stats(requests=3, batches=1,
                                 latencies_ms=[1.0])
        merged = stats.merge()
        assert merged is not stats
        assert merged.requests == 3
        assert merged.latencies_ms == [1.0]
        merged.latencies_ms.append(9.0)       # no aliasing either
        assert stats.latencies_ms == [1.0]

    def test_hand_computed_aggregates(self):
        # three workers with known numbers; check the merged snapshot
        # field by field against the arithmetic
        workers = [
            model_stats(requests=6, batches=2, errors=1,
                             wall_seconds=1.5,
                             latencies_ms=[1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
                             fpga_ms_total=0.6, queue_depth=1,
                             in_flight=2),
            model_stats(requests=4, batches=1, wall_seconds=0.5,
                             latencies_ms=[10.0, 10.0, 10.0, 10.0],
                             fpga_ms_total=0.4, queue_depth=0,
                             in_flight=1),
            model_stats(requests=2, batches=2, wall_seconds=2.0,
                             latencies_ms=[5.0, 7.0], fpga_ms_total=1.0),
        ]
        merged = workers[0].merge(*workers[1:])
        assert merged.requests == 12 and merged.batches == 5
        assert merged.errors == 1
        assert merged.wall_seconds == pytest.approx(4.0)
        assert merged.queue_depth == 1 and merged.in_flight == 3
        assert merged.mean_batch_size == pytest.approx(12 / 5)
        assert merged.requests_per_second == pytest.approx(12 / 4.0)
        assert merged.fpga_ms_per_request == pytest.approx(2.0 / 12)
        expected = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0,
                    10.0, 10.0, 10.0, 10.0, 5.0, 7.0]
        assert merged.latencies_ms == expected
        assert merged.latency_ms_mean == pytest.approx(
            float(np.mean(expected)))
        assert merged.latency_ms_p50 == pytest.approx(
            float(np.percentile(expected, 50)))

    def test_merge_max_field_takes_maximum_not_sum(self):
        small = model_stats(max_batch=4, requests=1)
        large = model_stats(max_batch=16, requests=1)
        assert small.merge(large).max_batch == 16
        assert large.merge(small).max_batch == 16     # either order

    def test_string_fields_collapse_to_mixed_independently(self):
        a = model_stats(model="m", backend="reference")
        b = model_stats(model="m", backend="fused")
        merged = a.merge(b)
        assert merged.model == "m"              # equal strings survive
        assert merged.backend == "mixed"        # unequal ones collapse
        assert "mixed" in merged.format()

    def test_merge_of_windowed_snapshots_concatenates_windows(self):
        # Each worker's latency detail is window-bounded; the merged
        # list is the concatenation of windows while lifetime counters
        # keep the true totals.
        deployment, _ = make_deployment(batch=2)
        snapshots = []
        for seed in (0, 1):
            server = ModelServer(workers=0, stats_window=4,
                                 clock=TickingClock())
            server.add("mlp", deployment)
            server.submit_many("mlp", payload_stream(10, seed=seed))
            server.drain()
            snapshots.append(server.stats()["mlp"])
            server.close()
        merged = snapshots[0].merge(snapshots[1])
        assert merged.requests == 20            # lifetime totals sum
        assert len(merged.latencies_ms) == 8    # windows concatenate
        assert merged.latency_ms_p99 > 0

    def test_wire_round_trip_preserves_merge_semantics(self):
        # to_wire -> JSON -> from_wire must yield a snapshot that merges
        # identically to the original (the cluster stats path).
        local = model_stats(requests=5, batches=2, wall_seconds=1.0,
                                 latencies_ms=[1.0, 2.0, 3.0, 4.0, 5.0],
                                 fpga_ms_total=0.5, max_batch=8)
        remote = ModelStats.from_wire(
            json.loads(json.dumps(local.to_wire())))
        assert remote == local
        direct = local.merge(local)
        via_wire = local.merge(remote)
        assert via_wire == direct

    def test_stage_field_equal_survives_unequal_collapses(self):
        # Same pipeline stage merges cleanly (replicated stage workers);
        # different stages collapse to "mixed" like any string field.
        a = model_stats(requests=1)
        b = model_stats(requests=2)
        a.stage, b.stage = "1/2", "1/2"
        merged = a.merge(b)
        assert merged.stage == "1/2" and merged.requests == 3
        b.stage = "2/2"
        assert a.merge(b).stage == "mixed"

    def test_stage_default_is_empty_and_absent_from_format(self):
        stats = model_stats(requests=1)
        assert stats.stage == ""
        assert "stage" not in stats.format()
        stats.stage = "2/3"
        assert "stage 2/3" in stats.format()

    def test_stage_field_survives_wire_round_trip(self):
        local = model_stats(requests=5, batches=2,
                                 latencies_ms=[1.0, 2.0])
        local.stage = "1/2"
        remote = ModelStats.from_wire(
            json.loads(json.dumps(local.to_wire())))
        assert remote == local and remote.stage == "1/2"
        # Pre-stage senders (older wire dumps) default to "" harmlessly.
        wire = local.to_wire()
        wire.pop("stage")
        assert ModelStats.from_wire(wire).stage == ""


# ----------------------------------------------------------------------
# Deployment integration + JSON-lines protocol
# ----------------------------------------------------------------------
class TestDeploymentIntegration:
    def test_deploy_carries_max_wait_ms_into_server(self):
        deployment, _ = make_deployment(batch=4, max_wait_ms=7.5)
        assert deployment.max_wait_ms == 7.5
        clock = ManualClock()
        server = ModelServer(workers=0, clock=clock)
        server.add("mlp", deployment)             # inherits 7.5 ms
        server.submit("mlp", payload_stream(1)[0])
        clock.advance(0.0074)
        assert server.poll() == 0
        clock.advance(0.0002)
        assert server.poll() == 1
        server.close()

    def test_deployment_server_helper_round_trips(self):
        deployment, quantized = make_deployment(batch=4)
        with deployment.server("mlp", workers=1, max_wait_ms=1.0) as server:
            payload = payload_stream(1)[0]
            result = server.predict("mlp", payload, timeout=60.0)
        assert np.array_equal(result, quantized.predict(payload[None])[0])

    def test_serve_propagates_batch_execution_failures(self, monkeypatch):
        # The legacy scheduler re-raised engine failures; serve() must
        # too, even though the server records them per model.
        deployment, _ = make_deployment(batch=4)

        def explode(batch):
            raise RuntimeError("kernel died")

        monkeypatch.setattr(deployment.engine, "infer", explode)
        with pytest.raises(RuntimeError, match="kernel died"):
            deployment.serve(payload_stream(4), clock=ManualClock())

    def test_serve_matches_manual_server_drain(self):
        deployment, _ = make_deployment(batch=4)
        payloads = payload_stream(10, seed=13)
        served = deployment.serve(payloads, clock=ManualClock())
        server = ModelServer(workers=0, clock=ManualClock())
        server.add("model", deployment)           # serve()'s host name
        server.submit_many("model", payloads)
        server.drain()
        manual = server.stats()["model"]
        server.close()
        assert served.requests == 10 and served.batches == 3
        assert served == manual                   # the whole snapshot


class TestServeProtocol:
    def run_protocol(self, lines, models=None, max_wait_ms=0.0):
        server = ModelServer(workers=0, max_wait_ms=max_wait_ms,
                             clock=ManualClock())
        deployments = {}
        for name, seed in (models or {"mlp": 7}).items():
            deployment, quantized = make_deployment(seed=seed, batch=4)
            server.add(name, deployment)
            deployments[name] = quantized
        out = io.StringIO()
        served = serve_protocol(server, lines, out)
        server.close()
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        return served, responses, deployments

    def request_line(self, request_id, model, payload):
        return json.dumps({"id": request_id, "model": model,
                           "input": payload.tolist()})

    def test_round_trip_bit_exact_and_ordered(self):
        payloads = payload_stream(5, seed=17)
        lines = [self.request_line(i, "mlp", p)
                 for i, p in enumerate(payloads)]
        served, responses, deployments = self.run_protocol(lines)
        assert served == 5
        answers = [r for r in responses if "output" in r]
        assert [r["id"] for r in answers] == [0, 1, 2, 3, 4]
        # Dynamic batching over the wire: 5 requests, batch 4 -> 4 + 1.
        assert [r["batch_size"] for r in answers] == [4, 4, 4, 4, 1]
        groups = {}
        for response, payload in zip(answers, payloads):
            groups.setdefault(response["batch_id"], []).append(
                (np.asarray(response["output"], dtype=np.float32), payload))
        for pairs in groups.values():
            eager = deployments["mlp"].predict(
                np.stack([p for _, p in pairs]))
            assert np.array_equal(np.stack([r for r, _ in pairs]),
                                  eager.astype(np.float32))

    def test_stats_op_and_error_paths(self):
        payload = payload_stream(1)[0]
        lines = [
            "not json",
            json.dumps({"op": "bogus"}),
            json.dumps({"model": "mlp"}),                 # missing input
            json.dumps({"id": 1, "model": "ghost",
                        "input": payload.tolist()}),      # unknown model
            self.request_line(2, "mlp", payload),
            json.dumps({"op": "stats"}),
        ]
        served, responses, _ = self.run_protocol(lines)
        assert served == 1
        assert "malformed" in responses[0]["error"]
        assert "unknown op" in responses[1]["error"]
        assert "model" in responses[2]["error"]
        assert "unknown model" in responses[3]["error"]
        stats_line = next(r for r in responses if r.get("op") == "stats")
        assert "mlp" in stats_line["models"]
        answer = next(r for r in responses if r.get("id") == 2
                      and "output" in r)
        assert len(answer["output"]) == 3

    def test_wrong_shape_reports_error_response(self):
        lines = [json.dumps({"id": 0, "model": "mlp",
                             "input": [1.0, 2.0]})]
        served, responses, _ = self.run_protocol(lines)
        assert served == 1
        assert "request shape" in responses[0]["error"]

    def test_ragged_input_answers_error_without_killing_server(self):
        payload = payload_stream(1)[0]
        lines = [
            json.dumps({"id": 0, "model": "mlp",
                        "input": [[1.0, 2.0], [3.0]]}),   # ragged
            self.request_line(1, "mlp", payload),          # must still work
        ]
        served, responses, _ = self.run_protocol(lines)
        assert served == 1
        assert "error" in responses[0] and responses[0]["id"] == 0
        assert any(r.get("id") == 1 and "output" in r for r in responses)

    def test_threaded_response_flushes_without_further_input(self):
        # A strict request-then-response client: the protocol loop is
        # blocked reading the next line, so the response must be pushed
        # by the future's done-callback from the worker thread.
        import threading

        deployment, quantized = make_deployment(batch=4)
        server = ModelServer(workers=2, max_wait_ms=0.0)
        server.add("mlp", deployment)
        payload = payload_stream(1)[0]
        responded = threading.Event()

        class SignallingOut(io.StringIO):
            def write(self, text):
                result = super().write(text)
                if "output" in text:
                    responded.set()
                return result

        def client_lines():
            yield self.request_line(0, "mlp", payload)
            # Block like a pipe with no more data until the response for
            # request 0 has been written — then hang up.
            assert responded.wait(timeout=30.0), \
                "response was not pushed before the next read"

        out = SignallingOut()
        served = serve_protocol(server, client_lines(), out)
        server.close()
        assert served == 1
        response = json.loads(out.getvalue().splitlines()[0])
        assert np.allclose(response["output"],
                           quantized.predict(payload[None])[0],
                           rtol=1e-5, atol=1e-5)
