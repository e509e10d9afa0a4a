"""End-to-end quantization-aware training (Alg. 1/2 orchestration)."""

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.quant import (
    QATConfig,
    Scheme,
    install_activation_quantizers,
    run_qat,
    train_fp,
    verify_on_levels,
)
from repro.quant.msq import MSQResult
from repro.quant.partition import to_gemm_matrix
from repro.quant.quantizers import project_to_levels
from repro.quant.schemes import fixed_point_levels, sp2_levels
from repro.tensor import Tensor
from tests.conftest import accuracy_of, make_mlp


class TestConfig:
    def test_scheme_string_coerced(self):
        assert QATConfig(scheme="sp2").scheme == Scheme.SP2

    def test_invalid_schedule(self):
        with pytest.raises(ConfigurationError):
            QATConfig(lr_schedule="linear")


class TestActivationInstallation:
    def test_skip_first(self):
        model = make_mlp()
        installed = install_activation_quantizers(model, 4, skip_first=True)
        assert "0" not in installed
        assert len(installed) == 2

    def test_rnn_gets_signed(self):
        model = nn.LSTM(4, 6)
        installed = install_activation_quantizers(model, 4, skip_first=False)
        assert all(q.signed for q in installed.values())

    def test_mlp_gets_unsigned(self):
        model = make_mlp()
        installed = install_activation_quantizers(model, 4, skip_first=False)
        assert all(not q.signed for q in installed.values())


class TestQuantizeModel:
    def test_weights_on_level_sets(self, qat_result):
        for result in qat_result.layer_results.values():
            assert isinstance(result, MSQResult)
            matrix = to_gemm_matrix(result.values)
            for row in range(matrix.shape[0]):
                levels = (sp2_levels(4) if result.partition.sp2_mask[row]
                          else fixed_point_levels(4))
                unit = matrix[row] / result.row_alphas[row]
                assert np.allclose(unit, project_to_levels(unit, levels),
                                   atol=1e-9)

    def test_sp2_fraction_close_to_target(self, qat_result):
        assert qat_result.sp2_row_fraction() == pytest.approx(2 / 3, abs=0.08)

    def test_activation_quantizers_frozen(self, qat_result):
        assert qat_result.act_quantizers
        for quantizer in qat_result.act_quantizers.values():
            assert not quantizer.calibrating
            assert quantizer.alpha is not None

    def test_history_recorded(self, qat_result):
        assert len(qat_result.history) == 6
        assert all("loss" in record for record in qat_result.history)

    def test_accuracy_retained(self, qat_result, toy_task, trained_mlp):
        x, y = toy_task
        fp_acc = accuracy_of(trained_mlp, x, y)
        q_acc = accuracy_of(qat_result.model, x, y)
        assert q_acc >= fp_acc - 0.12

    def test_model_in_eval_mode_after(self, qat_result):
        assert not qat_result.model.training


class TestSchemeVariants:
    @pytest.mark.parametrize("scheme", [Scheme.FIXED, Scheme.P2, Scheme.SP2])
    def test_single_scheme_end_to_end(self, scheme, toy_task):
        x, y = toy_task
        model = make_mlp()

        def make_batches(epoch):
            yield x[:128], y[:128]

        def loss_fn(m, batch):
            xb, yb = batch
            return nn.cross_entropy(m(Tensor(xb)), yb)

        config = QATConfig(scheme=scheme, weight_bits=4, act_bits=4,
                           epochs=3, lr=0.05)
        result = run_qat(model, make_batches, loss_fn, config)
        for layer_result in result.layer_results.values():
            verify_on_levels(layer_result)

    def test_weight_only_quantization(self, toy_task):
        x, y = toy_task
        model = make_mlp()

        def make_batches(epoch):
            yield x[:128], y[:128]

        def loss_fn(m, batch):
            xb, yb = batch
            return nn.cross_entropy(m(Tensor(xb)), yb)

        config = QATConfig(scheme=Scheme.FIXED, epochs=2, lr=0.05,
                           quantize_activations=False)
        result = run_qat(model, make_batches, loss_fn, config)
        assert result.act_quantizers == {}


class TestInterLayerMultiPrecision:
    """§I extension: intra-layer MSQ composed with inter-layer precision."""

    def _run(self, config, toy_task):
        x, y = toy_task
        model = make_mlp()

        def make_batches(epoch):
            yield x[:128], y[:128]

        def loss_fn(m, batch):
            xb, yb = batch
            return nn.cross_entropy(m(Tensor(xb)), yb)

        return run_qat(model, make_batches, loss_fn, config)

    def test_layer_bits_override(self, toy_task):
        config = QATConfig(scheme=Scheme.MSQ, weight_bits=4, epochs=2,
                           lr=0.05, layer_bits={"4": 8})
        result = self._run(config, toy_task)
        assert result.layer_results["4.weight"].spec_fixed.bits == 8
        assert result.layer_results["0.weight"].spec_fixed.bits == 4

    def test_override_with_single_scheme(self, toy_task):
        config = QATConfig(scheme=Scheme.FIXED, weight_bits=4, epochs=2,
                           lr=0.05, layer_bits={"0": 6})
        result = self._run(config, toy_task)
        assert result.layer_results["0.weight"].spec.bits == 6
        verify_on_levels(result.layer_results["0.weight"])

    def test_default_when_no_pattern_matches(self, toy_task):
        config = QATConfig(scheme=Scheme.FIXED, weight_bits=4, epochs=2,
                           lr=0.05, layer_bits={"nonexistent": 8})
        result = self._run(config, toy_task)
        assert all(r.spec.bits == 4 for r in result.layer_results.values())


class TestTrainFP:
    def test_reduces_loss(self, toy_task):
        x, y = toy_task
        model = make_mlp()

        def make_batches(epoch):
            yield x, y

        def loss_fn(m, batch):
            xb, yb = batch
            return nn.cross_entropy(m(Tensor(xb)), yb)

        history = train_fp(model, make_batches, loss_fn, epochs=10, lr=0.1)
        assert history[-1]["loss"] < history[0]["loss"] * 0.7
