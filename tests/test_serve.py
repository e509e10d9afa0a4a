"""The serving engine: artifact round trips, batch coalescing, CLI."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExportError
from repro.quant.encoding import (
    encode_fixed,
    encode_p2,
    pack_fixed,
    pack_p2,
    unpack_fixed,
    unpack_p2,
)
from repro.quant.partition import (
    partition_from_arrays,
    partition_rows,
    partition_to_arrays,
)
from repro.serve import (
    ExecutionPlan,
    InferenceEngine,
    ServeArtifact,
    build_artifact,
    post_training_quantize,
)
from repro.serve.cli import MODEL_ZOO, build_model
from repro.serve.cli import main as serve_main
from repro.serve.export import eager_forward


def quantized_plan(name, tmp_path, seed=0, n_check=4):
    """PTQ a zoo model, export, reload; returns (model, plan, check batch)."""
    model, sample = build_model(name, seed=seed)
    rng = np.random.default_rng(seed + 100)
    calibration = [sample(rng, 8) for _ in range(2)]
    results = post_training_quantize(model, calibration)
    batch = sample(rng, n_check)
    path = tmp_path / f"{name}.npz"
    build_artifact(model, batch, layer_results=results, name=name, path=path)
    return model, ExecutionPlan.load(path), batch


# ----------------------------------------------------------------------
# Encoding / partition export hooks
# ----------------------------------------------------------------------
class TestPackHooks:
    def test_fixed_pack_round_trip(self):
        levels = np.arange(-7, 8, dtype=np.float64) / 7.0
        codes = encode_fixed(levels, 4)
        words = pack_fixed(codes, 4)
        assert words.dtype == np.uint8
        assert np.array_equal(unpack_fixed(words, 4), codes)

    def test_fixed_pack_rejects_out_of_range(self):
        from repro.errors import QuantizationError

        with pytest.raises(QuantizationError):
            pack_fixed(np.array([8]), 4)

    def test_p2_pack_round_trip(self):
        values = np.array([0.0, 1.0, -0.5, 0.25, -0.125])
        sign, codes = encode_p2(values, 4)
        words = pack_p2(sign, codes, 4)
        sign2, codes2 = unpack_p2(words, 4)
        assert np.array_equal(sign, sign2)
        assert np.array_equal(codes, codes2)

    def test_partition_serialization_round_trip(self, rng):
        partition = partition_rows(rng.normal(size=(32, 16)), 2 / 3)
        restored = partition_from_arrays(partition_to_arrays(partition))
        assert np.array_equal(restored.sp2_mask, partition.sp2_mask)
        assert restored.threshold == partition.threshold
        assert np.array_equal(restored.variances, partition.variances)


# ----------------------------------------------------------------------
# Artifact round trips
# ----------------------------------------------------------------------
class TestArtifactRoundTrip:
    @pytest.mark.parametrize("name", ["resnet_tiny", "mobilenet_v2",
                                      "lstm_lm", "gru_speech",
                                      "lstm_sentiment"])
    def test_bit_identical_to_eager(self, name, tmp_path):
        model, plan, batch = quantized_plan(name, tmp_path)
        served = plan.forward(batch)
        reference = eager_forward(model, batch)
        assert np.array_equal(served, reference)

    def test_qat_trained_model_round_trips(self, qat_result, toy_task,
                                           tmp_path):
        x, _ = toy_task
        batch = x[:16]
        path = tmp_path / "mlp.npz"
        build_artifact(qat_result.model, batch,
                       layer_results=qat_result.layer_results, path=path)
        plan = ExecutionPlan.load(path)
        assert np.array_equal(plan.forward(batch),
                              eager_forward(qat_result.model, batch))

    def test_unquantized_model_exports_raw(self, trained_mlp, toy_task,
                                           tmp_path):
        x, _ = toy_task
        path = tmp_path / "fp.npz"
        build_artifact(trained_mlp, x[:8], path=path)
        plan = ExecutionPlan.load(path)
        assert np.array_equal(plan.forward(x[:8]),
                              eager_forward(trained_mlp, x[:8]))

    def test_pooling_ops_round_trip(self, tmp_path):
        from repro import nn

        gen = np.random.default_rng(4)
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=gen), nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Conv2d(8, 8, 3, padding=1, rng=gen), nn.ReLU(),
            nn.AvgPool2d(2), nn.Flatten(),
            nn.Linear(8 * 4 * 4, 5, rng=gen))
        rng = np.random.default_rng(5)
        calibration = [rng.normal(size=(4, 3, 16, 16)).astype(np.float32)]
        results = post_training_quantize(model, calibration)
        batch = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
        path = tmp_path / "pool.npz"
        build_artifact(model, batch, layer_results=results, path=path)
        plan = ExecutionPlan.load(path)
        assert np.array_equal(plan.forward(batch),
                              eager_forward(model, batch))

    def test_artifact_stores_packed_words(self, tmp_path):
        _, plan, _ = quantized_plan("resnet_tiny", tmp_path)
        artifact = plan.artifact
        word_arrays = [key for key in artifact.arrays
                       if key.endswith(("fixed_words", "sp2_words"))]
        assert word_arrays, "quantized layers must store packed words"
        assert all(artifact.arrays[key].dtype == np.uint8
                   for key in word_arrays)

    def test_load_rejects_non_artifact(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ExportError):
            ServeArtifact.load(path)

    def test_plan_rejects_wrong_shape(self, tmp_path):
        from repro.errors import ShapeError

        _, plan, _ = quantized_plan("resnet_tiny", tmp_path)
        with pytest.raises(ShapeError):
            plan.forward(np.zeros((2, 3, 8, 8), dtype=np.float32))


# ----------------------------------------------------------------------
# FPGA cost model integration
# ----------------------------------------------------------------------
class TestPlanSimulation:
    def test_workloads_cover_quantized_layers(self, tmp_path):
        _, plan, _ = quantized_plan("resnet_tiny", tmp_path)
        workloads = plan.workloads()
        # 7 convs (stem + 3 blocks x 2) + 2 downsamples + fc
        assert len(workloads) == 10
        assert all(w.macs > 0 for w in workloads)

    def test_batching_amortizes_fpga_latency(self, tmp_path):
        _, plan, _ = quantized_plan("resnet_tiny", tmp_path)
        single = plan.simulate(batch=1).latency_ms
        batched = plan.simulate(batch=16).latency_ms
        assert single > 0
        # Far better than linear scaling: lanes fill instead of idling.
        assert batched < 8 * single

    def test_rnn_workloads_are_sequential(self, tmp_path):
        _, plan, _ = quantized_plan("lstm_lm", tmp_path)
        sequential = [w for w in plan.workloads() if w.sequential_columns]
        assert len(sequential) == 2  # one W_hh GEMM per LSTM layer

    def test_merged_time_linear_counts_per_request_columns(self, tmp_path):
        # The decoder after merge_time serves T=12 columns per request, not 1.
        _, plan, _ = quantized_plan("lstm_lm", tmp_path)
        decoder = [w for w in plan.workloads() if "decoder" in w.name]
        assert len(decoder) == 1
        assert decoder[0].columns == 12

    def test_partition_recoverable_from_artifact(self, tmp_path):
        from repro.serve.artifact import partition_of_record

        _, plan, _ = quantized_plan("resnet_tiny", tmp_path)
        records = [op["weight"] for op in plan.artifact.manifest["ops"]
                   if isinstance(op.get("weight"), dict)
                   and op["weight"]["mode"] == "msq"]
        partition = partition_of_record(plan.artifact, records[0])
        assert partition.sp2_mask.size == partition.variances.size
        assert 0.0 < partition.sp2_fraction < 1.0


# ----------------------------------------------------------------------
# Batch forming + execution through a worker-less ModelServer (the async
# surface is covered in tests/test_serve_server.py)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


class TestBatchServing:
    def make(self, tmp_path, max_batch=4):
        from repro.serve import ModelServer

        _, plan, _ = quantized_plan("resnet_tiny", tmp_path)
        engine = InferenceEngine(plan)
        server = ModelServer(workers=0, clock=FakeClock())
        server.add_engine("model", engine, batch=max_batch)
        return engine, server

    def test_coalesces_fifo_into_micro_batches(self, tmp_path):
        engine, server = self.make(tmp_path, max_batch=4)
        rng = np.random.default_rng(0)
        futures = [server.submit(
            "model", rng.normal(size=(3, 16, 16)).astype(np.float32))
            for _ in range(10)]
        assert server.drain() == 10
        stats = server.stats()["model"]
        assert stats.requests == 10
        assert stats.batches == 3
        assert [f.request.batch_size for f in futures] == [4] * 8 + [2] * 2
        assert [f.request.batch_id for f in futures] == \
            [0] * 4 + [1] * 4 + [2] * 2
        assert stats.queue_depth == 0

    def test_batched_results_match_single_request_inference(self, tmp_path):
        engine, server = self.make(tmp_path, max_batch=8)
        rng = np.random.default_rng(1)
        payloads = [rng.normal(size=(3, 16, 16)).astype(np.float32)
                    for _ in range(6)]
        futures = server.submit_many("model", payloads)
        server.drain()
        for future, payload in zip(futures, payloads):
            expected = engine.plan.forward(payload[None])[0]
            np.testing.assert_allclose(future.result(timeout=0), expected,
                                       rtol=1e-5, atol=1e-5)

    def test_submit_validates_shape_and_coerces_dtype(self, tmp_path):
        from repro.serve import ModelServer

        _, plan, _ = quantized_plan("lstm_lm", tmp_path)
        server = ModelServer(workers=0, clock=FakeClock())
        server.add_engine("lm", InferenceEngine(plan), batch=8)
        rng = np.random.default_rng(2)
        for _ in range(3):
            server.submit("lm",
                          rng.integers(0, 40, size=(12,), dtype=np.int64))
        bad = server.submit("lm",
                            rng.integers(0, 40, size=(9,), dtype=np.int64))
        assert isinstance(bad.exception(), ConfigurationError)
        coerced = server.submit(
            "lm", rng.integers(0, 40, size=(12,)).astype(np.int32))
        server.drain()
        assert coerced.request.payload.dtype == plan.input_dtype
        stats = server.stats()["lm"]
        assert stats.batches == 1 and stats.requests == 4

    def test_latency_and_fpga_accounting(self, tmp_path):
        engine, server = self.make(tmp_path, max_batch=4)
        rng = np.random.default_rng(3)
        futures = [server.submit(
            "model", rng.normal(size=(3, 16, 16)).astype(np.float32))
            for _ in range(4)]
        server.drain()
        stats = server.stats()["model"]
        assert all(f.latency_ms > 0 for f in futures)
        assert stats.latency_ms_mean > 0
        assert stats.fpga_ms_total == pytest.approx(
            engine.fpga_latency_ms(4))
        assert "fpga" in stats.format()

    def test_drain_serves_all_and_leaves_nothing_pending(self, tmp_path):
        _, server = self.make(tmp_path, max_batch=2)
        rng = np.random.default_rng(4)
        batch = [rng.normal(size=(3, 16, 16)).astype(np.float32)
                 for _ in range(5)]
        futures = server.submit_many("model", batch)
        assert server.drain() == len(batch)
        assert all(f.done() for f in futures)
        stats = server.stats()["model"]
        assert stats.requests == len(batch)
        assert stats.queue_depth == 0 and stats.in_flight == 0
        assert server.drain() == 0
        assert server.stats()["model"].requests == len(batch)

    def test_rejects_batched_payload(self, tmp_path):
        _, server = self.make(tmp_path)
        future = server.submit(
            "model", np.zeros((2, 3, 16, 16), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            future.result(timeout=0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCli:
    def test_export_info_run_smoke(self, tmp_path, capsys):
        path = str(tmp_path / "artifact.npz")
        assert serve_main(["export", "--model", "resnet_tiny",
                           "--out", path]) == 0
        assert serve_main(["info", path]) == 0
        assert serve_main(["run", path, "--requests", "6",
                           "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "quantized:    10 layers (msq)" in out
        assert "req/s" in out and "fpga" in out

    def test_rnn_model_export_and_run(self, tmp_path, capsys):
        path = str(tmp_path / "lm.npz")
        assert serve_main(["export", "--model", "lstm_lm",
                           "--out", path]) == 0
        assert serve_main(["run", path, "--requests", "4",
                           "--batch", "2"]) == 0
        assert "in 2 batches" in capsys.readouterr().out

    def test_zoo_covers_paper_model_families(self):
        assert {"resnet_tiny", "mobilenet_v2", "lstm_lm",
                "gru_speech"} <= set(MODEL_ZOO)

    def test_build_model_unknown(self):
        with pytest.raises(ConfigurationError):
            build_model("alexnet")
