"""Reproduction of "Mix and Match: A Novel FPGA-Centric Deep Neural Network
Quantization Framework" (HPCA 2021).

The package is organised as a stack:

- :mod:`repro.api` — **the public surface**: one config-driven pipeline
  (``PipelineConfig`` -> ``Pipeline.fit``/``calibrate`` -> ``deploy`` ->
  ``predict``), the pluggable scheme/method registries, and the unified
  ``python -m repro`` CLI.
- :mod:`repro.tensor` / :mod:`repro.nn` — a from-scratch numpy autograd and
  neural-network substrate (the paper used PyTorch; see DESIGN.md §2).
- :mod:`repro.quant` — the paper's contribution: SP2 quantization, the
  mixed-scheme quantizer (MSQ), and the ADMM+STE training algorithms.
- :mod:`repro.models`, :mod:`repro.data`, :mod:`repro.metrics` — the
  evaluation workloads (CNNs, a detector, RNNs) and their metrics.
- :mod:`repro.fpga` — the hardware substrate: device catalog, resource and
  performance models of the heterogeneous GEMM accelerator, and bit-exact
  integer kernels proving SP2 multiplies reduce to shifts and adds.
- :mod:`repro.experiments` — one runnable harness per paper table/figure.
- :mod:`repro.serve` — deployment: frozen artifacts, execution plans,
  batched inference engine and model server (driven via ``repro.api``).
"""

from repro.version import __version__

__all__ = ["__version__"]
