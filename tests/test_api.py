"""The unified front door: registry, PipelineConfig, Pipeline stages,
deployment handles and the top-level CLI.

Everything here goes through :mod:`repro.api`; the root ``pytest.ini``
turns any DeprecationWarning into a failure.
"""

import numpy as np
import pytest

from repro import nn
from repro.api import (
    Deployment,
    Pipeline,
    PipelineConfig,
    QuantizedModel,
    get_method,
    get_scheme,
    list_methods,
    list_schemes,
)
from repro.api.cli import main as repro_main
from repro.errors import ConfigurationError
from repro.quant.formatting import format_ratio, format_scheme_spec
from repro.quant.msq import MixedSchemeQuantizer
from repro.quant.partition import PartitionRatio
from repro.quant.quantizers import SchemeQuantizer, verify_on_levels
from repro.quant.schemes import Scheme, SchemeSpec
from repro.tensor import Tensor
from tests.conftest import make_mlp, make_toy_task

# Every published method of Tables III-VI must be reachable by config.
TABLE_METHODS = ("dorefa", "pact", "dsq", "qil", "ul2q", "lq-nets", "lsq",
                 "eqm")


def toy_harness(seed_base=50):
    x, y = make_toy_task()

    def make_batches(epoch):
        order = np.random.default_rng(seed_base + epoch).permutation(len(x))
        for start in range(0, len(order), 64):
            idx = order[start:start + 64]
            yield x[idx], y[idx]

    def loss_fn(m, batch):
        xb, yb = batch
        return nn.cross_entropy(m(Tensor(xb)), yb)

    return x, y, make_batches, loss_fn


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_schemes_registered(self):
        assert set(list_schemes()) == {"fixed", "p2", "sp2", "msq"}

    def test_all_table_methods_registered(self):
        assert set(list_methods()) == set(TABLE_METHODS)

    def test_method_aliases_resolve_to_same_entry(self):
        assert get_method("LQ_Nets") is get_method("lq-nets")
        assert get_method("µL2Q") is get_method("ul2q")
        assert get_method("u-l2q") is get_method("ul2q")

    def test_unknown_names_raise(self):
        with pytest.raises(ConfigurationError):
            get_scheme("int8")
        with pytest.raises(ConfigurationError):
            get_method("alexnet")

    def test_method_make_builds_registered_class(self):
        # get_method(name).make(**kw) is the one way to build a baseline.
        entry = get_method("lq_nets")
        method = entry.make(weight_bits=4, act_bits=4)
        assert type(method) is entry.cls
        assert method.weight_bits == 4

    def test_scheme_factories_build_quantizers(self):
        assert isinstance(get_scheme("sp2").make(4), SchemeQuantizer)
        msq = get_scheme("msq").make(4, ratio="2:1")
        assert isinstance(msq, MixedSchemeQuantizer)
        assert msq.sp2_fraction == pytest.approx(2 / 3)

    def test_scheme_levels_match_enum_dispatch(self):
        from repro.quant.schemes import levels_for

        for name, scheme in (("fixed", Scheme.FIXED), ("p2", Scheme.P2),
                             ("sp2", Scheme.SP2)):
            entry = get_scheme(name)
            assert not entry.mixed
            assert np.array_equal(entry.levels(4, None, None),
                                  levels_for(scheme, 4))

    def test_msq_has_no_single_level_set(self):
        entry = get_scheme("msq")
        assert entry.mixed
        with pytest.raises(ConfigurationError):
            entry.levels(4, None, None)

    def test_paper_projections_registered(self):
        assert get_scheme("fixed").paper_projection is not None
        assert get_scheme("p2").paper_projection is not None
        assert get_scheme("sp2").paper_projection is None  # no closed form

    def test_custom_registered_scheme_runs_through_fit(self, trained_mlp):
        # The advertised extension point: a third-party scheme registered
        # at runtime must work end to end, QAT path included.
        from repro.api import register_scheme, register_scheme_factory
        from repro.api import registry as registry_module

        @register_scheme("toy-halves", description="test-only")
        def _toy_levels(bits, m1=None, m2=None):
            return np.arange(-2.0, 2.5, 0.5)

        @register_scheme_factory("toy-halves")
        def _toy_factory(bits, **_):
            return lambda w: np.clip(np.round(w * 2) / 2, -2.0, 2.0)

        try:
            _, _, make_batches, loss_fn = toy_harness()
            model = make_mlp()
            model.load_state_dict(trained_mlp.state_dict())
            config = PipelineConfig(scheme="toy-halves", epochs=1, lr=0.05)
            quantized = Pipeline(config, model=model).fit(make_batches,
                                                          loss_fn)
            weight = next(iter(quantized.layer_results.values())).values
            assert np.allclose(weight * 2, np.round(weight * 2))
        finally:
            registry_module._SCHEMES.pop("toy-halves")


# ----------------------------------------------------------------------
# PipelineConfig
# ----------------------------------------------------------------------
class TestPipelineConfig:
    def test_defaults_are_the_papers(self):
        config = PipelineConfig()
        assert config.scheme == "msq"
        assert config.uses_admm
        assert config.weight_bits == config.act_bits == 4
        assert config.partition_ratio.sp2_fraction == pytest.approx(2 / 3)
        assert config.design == "D2-3"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PipelineConfig().weight_bits = 8

    def test_accepts_scheme_enum(self):
        assert PipelineConfig(scheme=Scheme.SP2).scheme == "sp2"

    def test_scheme_case_normalized(self):
        upper = PipelineConfig(scheme="MSQ")
        assert upper.scheme == "msq"
        assert upper == PipelineConfig(scheme="msq")
        assert "SP2:fixed" in upper.describe()

    def test_method_normalized_through_registry(self):
        assert PipelineConfig(method="LQ_Nets").method == "lq-nets"
        assert not PipelineConfig(method="lsq").uses_admm
        assert PipelineConfig(method="admm").uses_admm

    @pytest.mark.parametrize("method", TABLE_METHODS)
    def test_every_table_baseline_reachable(self, method):
        config = PipelineConfig(method=method)
        assert config.method == get_method(method).name

    @pytest.mark.parametrize("bad", [
        {"scheme": "int8"},
        {"method": "alexnet"},
        {"weight_bits": 1},
        {"act_bits": 0},
        {"ratio": "1.2.3:1"},
        {"ratio": "-1:2"},
        {"ratio": 1.5},
        {"lr_schedule": "exponential"},
        {"batch": 0},
        {"epochs": -1},
    ])
    def test_invalid_configs_fail_at_construction(self, bad):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**bad)

    def test_replace_revalidates(self):
        config = PipelineConfig()
        assert config.replace(weight_bits=8).weight_bits == 8
        with pytest.raises(ConfigurationError):
            config.replace(ratio="bogus")

    def test_layer_bits_config_stays_hashable(self):
        config = PipelineConfig(layer_bits={"fc": 8, "conv": 2})
        assert isinstance(hash(config), int)
        assert config.to_qat_config().layer_bits == {"conv": 2, "fc": 8}

    def test_to_qat_config_round_trip(self):
        qat = PipelineConfig(scheme="sp2", weight_bits=3, epochs=2,
                             lr=0.1).to_qat_config()
        assert qat.scheme == Scheme.SP2
        assert qat.weight_bits == 3
        assert qat.epochs == 2


# ----------------------------------------------------------------------
# Pipeline: QAT / PTQ / baselines through the same config object
# ----------------------------------------------------------------------
class TestPipelineFit:
    def test_admm_fit_quantizes_and_deploys(self, trained_mlp, toy_task):
        x, y = toy_task
        _, _, make_batches, loss_fn = toy_harness()
        model = make_mlp()
        model.load_state_dict(trained_mlp.state_dict())
        config = PipelineConfig(scheme="msq", ratio="2:1", epochs=3, lr=0.05)
        pipeline = Pipeline(config, model=model)
        quantized = pipeline.fit(make_batches, loss_fn)
        assert isinstance(quantized, QuantizedModel)
        assert quantized.layer_results
        for result in quantized.layer_results.values():
            assert result.partition is not None
        assert 0.5 < quantized.sp2_row_fraction() < 0.8
        assert len(quantized.history) == 3

        deployment = pipeline.deploy(batch=8, sample_input=x[:8])
        assert np.array_equal(deployment.predict(x[:8]),
                              quantized.predict(x[:8]))

    def test_fit_matches_bare_run_qat(self, trained_mlp):
        # fit() is run_qat behind a PipelineConfig: the same recipe
        # spelled as a QATConfig trains to the same bits.
        from repro.quant import QATConfig, run_qat

        def trained(fit):
            model = make_mlp()
            model.load_state_dict(trained_mlp.state_dict())
            _, _, make_batches, loss_fn = toy_harness()
            return model, fit(model, make_batches, loss_fn)

        bare_model, bare = trained(lambda model, mb, loss: run_qat(
            model, mb, loss, QATConfig(scheme="msq", weight_bits=4,
                                       act_bits=4, ratio="2:1", epochs=2,
                                       lr=0.05)))
        api_model, api = trained(lambda model, mb, loss: Pipeline(
            PipelineConfig(scheme="msq", ratio="2:1", epochs=2, lr=0.05),
            model=model).fit(mb, loss))
        bare_state = sorted(bare_model.state_dict().items())
        api_state = sorted(api_model.state_dict().items())
        assert [name for name, _ in bare_state] == \
            [name for name, _ in api_state]
        for (name, old), (_, new) in zip(bare_state, api_state):
            assert np.array_equal(old, new), name
        assert sorted(bare.layer_results) == sorted(api.layer_results)

    def test_fit_remembers_first_batch_sample(self, trained_mlp):
        # The README flow: fit() then deploy() with no explicit sample.
        _, _, make_batches, loss_fn = toy_harness()
        model = make_mlp()
        model.load_state_dict(trained_mlp.state_dict())
        pipeline = Pipeline(PipelineConfig(epochs=2, lr=0.05), model=model)
        quantized = pipeline.fit(make_batches, loss_fn)
        deployment = pipeline.deploy()
        assert deployment.plan.input_shape == (12,)
        batch = quantized.sample_input[:4]
        assert np.array_equal(deployment.predict(batch),
                              quantized.predict(batch))

    def test_single_scheme_fit_lands_on_levels(self, trained_mlp):
        _, _, make_batches, loss_fn = toy_harness()
        model = make_mlp()
        model.load_state_dict(trained_mlp.state_dict())
        config = PipelineConfig(scheme="sp2", epochs=2, lr=0.05)
        quantized = Pipeline(config, model=model).fit(make_batches, loss_fn)
        for result in quantized.layer_results.values():
            verify_on_levels(result)

    @pytest.mark.parametrize("method", ["lsq", "pact"])
    def test_baseline_methods_through_same_config(self, method, trained_mlp,
                                                  toy_task):
        from tests.conftest import accuracy_of

        x, y = toy_task
        _, _, make_batches, loss_fn = toy_harness()
        model = make_mlp()
        model.load_state_dict(trained_mlp.state_dict())
        config = PipelineConfig(method=method, epochs=2, lr=0.02)
        pipeline = Pipeline(config, model=model)
        quantized = pipeline.fit(make_batches, loss_fn)
        assert len(quantized.history) == 2
        assert accuracy_of(model, x, y) > 0.5
        if method == "lsq":
            # LSQ detaches its hooks at finalize; the projected weights
            # export raw but still serve bit-exactly.
            deployment = pipeline.deploy(sample_input=x[:4])
            assert np.array_equal(deployment.predict(x[:4]),
                                  quantized.predict(x[:4]))
        else:
            # PACT keeps its own activation hook live at eval time; export
            # must refuse with the actual cause, not a bit-drift error.
            from repro.errors import ExportError

            with pytest.raises(ExportError, match="non-exportable"):
                pipeline.deploy(sample_input=x[:4])

    def test_method_config_rejects_calibrate(self):
        with pytest.raises(ConfigurationError):
            Pipeline(PipelineConfig(method="lsq"),
                     model=make_mlp()).calibrate([np.zeros((2, 12),
                                                           dtype=np.float32)])

    def test_missing_model_and_empty_deploy_fail_clearly(self):
        pipeline = Pipeline(PipelineConfig())
        with pytest.raises(ConfigurationError):
            pipeline.calibrate([np.zeros((2, 12), dtype=np.float32)])
        with pytest.raises(ConfigurationError):
            pipeline.deploy()


class TestPipelineCalibrate:
    @pytest.mark.parametrize("name", ["resnet_tiny", "mobilenet_v2",
                                      "lstm_lm"])
    def test_ptq_round_trip_bit_identical(self, name, tmp_path):
        from repro.serve.cli import build_model

        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(100)
        pipeline = Pipeline(PipelineConfig(), model=model)
        quantized = pipeline.calibrate([sample(rng, 8) for _ in range(2)])
        path = tmp_path / f"{name}.npz"
        deployment = pipeline.deploy(batch=16, name=name, path=path)
        batch = sample(rng, 4)
        assert np.array_equal(deployment.predict(batch),
                              quantized.predict(batch))
        # Single-request path and reloaded-artifact path agree too.
        reloaded = Deployment.load(path, batch=4)
        assert np.array_equal(reloaded.predict(batch[0]),
                              quantized.predict(batch[:1])[0])

    def test_calibrate_remembers_sample_input(self):
        rng = np.random.default_rng(0)
        pipeline = Pipeline(PipelineConfig(), model=make_mlp())
        pipeline.calibrate([rng.normal(size=(4, 12)).astype(np.float32)])
        deployment = pipeline.deploy()   # no explicit sample_input
        assert deployment.plan.input_shape == (12,)

    def test_calibrate_reports_act_quantizers(self):
        from repro.quant.ste import ActivationQuantizer

        rng = np.random.default_rng(0)
        pipeline = Pipeline(PipelineConfig(), model=make_mlp())
        quantized = pipeline.calibrate(
            [rng.normal(size=(4, 12)).astype(np.float32)])
        assert quantized.act_quantizers  # first layer skipped, rest covered
        for quantizer in quantized.act_quantizers.values():
            assert isinstance(quantizer, ActivationQuantizer)
            assert not quantizer.calibrating

    def test_calibrate_honors_weight_only_config(self):
        # quantize_activations=False means exactly that (table5's setup).
        rng = np.random.default_rng(0)
        model = make_mlp()
        config = PipelineConfig(quantize_activations=False)
        quantized = Pipeline(config, model=model).calibrate(
            [rng.normal(size=(4, 12)).astype(np.float32)])
        assert quantized.act_quantizers == {}
        assert all(getattr(module, "act_quant", None) is None
                   for _, module in model.named_modules())
        assert quantized.layer_results   # weights still quantized

    def test_calibrate_honors_skip_modules_and_layer_bits(self):
        rng = np.random.default_rng(0)
        model = make_mlp()
        config = PipelineConfig(scheme="fixed", skip_modules=("4",),
                                layer_bits={"0": 8})
        quantized = Pipeline(config, model=model).calibrate(
            [rng.normal(size=(4, 12)).astype(np.float32)])
        assert not any(name.startswith("4") for name
                       in quantized.layer_results)
        assert quantized.layer_results["0.weight"].spec.bits == 8
        assert quantized.layer_results["2.weight"].spec.bits == 4

    def test_single_scheme_ptq(self):
        rng = np.random.default_rng(0)
        model = make_mlp()
        config = PipelineConfig(scheme="fixed", weight_bits=4)
        quantized = Pipeline(config, model=model).calibrate(
            [rng.normal(size=(4, 12)).astype(np.float32)])
        for result in quantized.layer_results.values():
            verify_on_levels(result)


class TestDeployment:
    def test_serve_drains_scheduler_with_stats(self, tmp_path):
        from repro.serve.cli import build_model

        model, sample = build_model("resnet_tiny", seed=0)
        rng = np.random.default_rng(3)
        pipeline = Pipeline(PipelineConfig(batch=4), model=model)
        pipeline.calibrate([sample(rng, 8)])
        deployment = pipeline.deploy()
        stats = deployment.serve([sample(rng, 1)[0] for _ in range(10)])
        assert stats.requests == 10
        assert stats.batches == 3
        assert deployment.stats.requests == 10

    def test_serve_snapshot_reproducible_under_injected_clock(self):
        # With the clock injected, two drains of the same payloads give
        # the same ModelStats snapshot field for field.
        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                self.now += 0.001
                return self.now

        rng = np.random.default_rng(4)
        pipeline = Pipeline(PipelineConfig(batch=4), model=make_mlp())
        pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
        deployment = pipeline.deploy()
        payloads = [rng.normal(size=(12,)).astype(np.float32)
                    for _ in range(10)]
        first = deployment.serve(payloads, clock=FakeClock())
        second = deployment.serve(payloads, clock=FakeClock())
        assert first == second
        assert first.requests == 10 and first.batches == 3
        assert len(first.latencies_ms) == 10

    def test_build_artifact_save_load_round_trip(self, tmp_path):
        from repro.serve import ServeArtifact, build_artifact

        rng = np.random.default_rng(2)
        model = make_mlp()
        quantized = Pipeline(PipelineConfig(), model=model).calibrate(
            [rng.normal(size=(4, 12)).astype(np.float32)])
        sample = rng.normal(size=(4, 12)).astype(np.float32)
        path = tmp_path / "mlp.npz"
        built = build_artifact(model, sample,
                               layer_results=quantized.layer_results,
                               path=path)
        loaded = ServeArtifact.load(path)
        assert loaded.manifest == built.manifest
        assert sorted(loaded.arrays) == sorted(built.arrays)
        for key in built.arrays:
            assert np.array_equal(loaded.arrays[key], built.arrays[key]), key

    def test_large_batch_predict_chunks(self):
        rng = np.random.default_rng(1)
        pipeline = Pipeline(PipelineConfig(batch=4), model=make_mlp())
        quantized = pipeline.calibrate(
            [rng.normal(size=(4, 12)).astype(np.float32)])
        deployment = pipeline.deploy()
        x = rng.normal(size=(10, 12)).astype(np.float32)
        out = deployment.predict(x)
        assert out.shape[0] == 10
        np.testing.assert_allclose(out, quantized.predict(x), rtol=1e-5,
                                   atol=1e-6)

    def test_simulate_uses_configured_design(self):
        rng = np.random.default_rng(1)
        pipeline = Pipeline(PipelineConfig(design="D1-2"), model=make_mlp())
        pipeline.calibrate([rng.normal(size=(4, 12)).astype(np.float32)])
        deployment = pipeline.deploy()
        assert deployment.engine.design.name == "D1-2"
        assert deployment.simulate(batch=1).latency_ms > 0

    def test_unknown_design_rejected(self):
        rng = np.random.default_rng(1)
        pipeline = Pipeline(PipelineConfig(design="D9-9"), model=make_mlp())
        pipeline.calibrate([rng.normal(size=(4, 12)).astype(np.float32)])
        with pytest.raises(ConfigurationError):
            pipeline.deploy()


# ----------------------------------------------------------------------
# The legacy surface stays removed and tier-1 stays warning-free
# ----------------------------------------------------------------------
class TestLegacySurfaceRemoved:
    def test_removed_names_are_gone(self):
        import importlib

        import repro.quant
        import repro.quant.baselines
        import repro.serve
        import repro.serve.server

        for module, name in ((repro.quant, "quantize_model"),
                             (repro.quant.baselines, "get_baseline"),
                             (repro.serve, "export_model"),
                             (repro.serve, "BatchScheduler"),
                             (repro.serve, "ServeStats"),
                             (repro.serve.server.ModelStats,
                              "to_serve_stats"),
                             (Deployment, "scheduler")):
            assert not hasattr(module, name), name
            assert name not in getattr(module, "__all__", ()), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.scheduler")

    def test_deprecation_warning_fails_the_suite(self):
        # The root pytest.ini turns DeprecationWarning into an error.
        import warnings

        with pytest.raises(DeprecationWarning):
            warnings.warn("legacy path", DeprecationWarning)


# ----------------------------------------------------------------------
# Shared formatting (CLI info output and logs agree)
# ----------------------------------------------------------------------
class TestFormatting:
    def test_spec_describe_goes_through_helper(self):
        spec = SchemeSpec(Scheme.SP2, 4)
        assert spec.describe() == format_scheme_spec("sp2", 4, m1=spec.m1,
                                                     m2=spec.m2)
        assert SchemeSpec(Scheme.FIXED, 4).describe() == "FIXED(m=4)"

    def test_ratio_describe_goes_through_helper(self):
        ratio = PartitionRatio.from_string("2:1")
        assert ratio.describe() == format_ratio(2, 1) == "SP2:fixed = 2:1"

    def test_reprs_embed_the_shared_labels(self):
        quantizer = SchemeQuantizer(Scheme.SP2, 4)
        assert quantizer.spec.describe() in repr(quantizer)
        mixed = MixedSchemeQuantizer(bits=4, ratio="2:1")
        assert mixed.ratio.describe() in repr(mixed)

    def test_config_describe_uses_ratio_label(self):
        assert "SP2:fixed = 2:1" in PipelineConfig(ratio="2:1").describe()


# ----------------------------------------------------------------------
# PartitionRatio.from_string hardening
# ----------------------------------------------------------------------
class TestPartitionRatioParsing:
    @pytest.mark.parametrize("bad", ["1.2.3:1", "-1:2", "2:-1", "abc",
                                     "1:2:3", "2", ":", "nan:1", "inf:1",
                                     "0:0", ""])
    def test_malformed_ratios_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            PartitionRatio.from_string(bad)

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            PartitionRatio.from_string(2.0)

    def test_order_kwarg_is_normalized(self):
        assert PartitionRatio.from_string("1:2", order=" Fixed:SP2 ").sp2 == 2
        assert PartitionRatio.from_string("1:2", order="SP2:FIXED").sp2 == 1
        with pytest.raises(ValueError):
            PartitionRatio.from_string("1:2", order="weird")

    def test_scientific_notation_accepted(self):
        assert PartitionRatio.from_string("1e1:5").sp2 == 10.0


# ----------------------------------------------------------------------
# python -m repro CLI
# ----------------------------------------------------------------------
class TestReproCli:
    def test_help_lists_all_subcommands(self, capsys):
        assert repro_main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("quantize", "export", "serve", "experiment",
                        "registry"):
            assert command in out

    def test_quantize_then_serve_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cli.npz")
        assert repro_main(["quantize", "--model", "resnet_tiny",
                           "--out", path]) == 0
        assert repro_main(["serve", "info", path]) == 0
        assert repro_main(["serve", "run", path, "--requests", "6",
                           "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "quantized:    10 layers (msq)" in out
        assert "fpga" in out and "req/s" in out

    def test_quantize_single_scheme(self, tmp_path, capsys):
        path = str(tmp_path / "fixed.npz")
        assert repro_main(["quantize", "--model", "resnet_tiny",
                           "--scheme", "fixed", "--out", path]) == 0
        assert "quantized:    10 layers (fixed)" in capsys.readouterr().out

    def test_export_alias_is_quantize(self, tmp_path, capsys):
        path = str(tmp_path / "alias.npz")
        assert repro_main(["export", "--model", "resnet_tiny",
                           "--out", path]) == 0
        out = capsys.readouterr().out
        assert "quantized + deployed resnet_tiny" in out
        # The alias accepts the full quantize flag set, e.g. --scheme.
        assert repro_main(["export", "--model", "resnet_tiny",
                           "--scheme", "sp2",
                           "--out", str(tmp_path / "sp2.npz")]) == 0

    def test_experiment_forwarding_lists_registry(self, capsys):
        assert repro_main(["experiment"]) == 0
        assert "table2" in capsys.readouterr().out

    def test_registry_lists_schemes_and_methods(self, capsys):
        assert repro_main(["registry"]) == 0
        out = capsys.readouterr().out
        assert "sp2" in out and "lq-nets" in out

    def test_unknown_command_fails(self, capsys):
        assert repro_main(["bogus"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_cli_error_paths_return_1(self, tmp_path):
        missing = str(tmp_path / "missing.npz")
        assert repro_main(["serve", "info", missing]) == 1
