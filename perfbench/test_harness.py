"""Tests for the benchmark's own helpers (no serving runs)."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == (50.0, 100)
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(values, 99)          # 1 sample beyond
    value, count = harness.percentile(range(1, 1101), 99)
    assert (value, count) == (1089.0, 1100)     # 11 beyond, count reported
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(range(1, 1000), 99)  # 9 beyond
    assert harness.percentile_or_zero(range(100), 99) == 0.0


def test_failed_requests_miss_every_limit():
    values = [1.0] * 970 + [math.inf] * 30
    assert harness.percentile(values, 50)[0] == 1.0
    with pytest.raises(ValueError):
        harness.percentile(values, 99)


def test_arrival_schedule_repeats_exactly_for_a_seed():
    first = harness.poisson_offsets(1000, 3.0, np.random.default_rng(7))
    again = harness.poisson_offsets(1000, 3.0, np.random.default_rng(7))
    other = harness.poisson_offsets(1000, 3.0, np.random.default_rng(8))
    assert np.array_equal(first, again)
    assert not np.array_equal(first[:100], other[:100])
    assert np.all(np.diff(first) > 0) and first[-1] < 3.0
    assert abs(len(first) - 3000) < 300


def test_zipf_draws_repeat_exactly_and_skew_to_the_head():
    first = harness.zipf_ranks(5000, 256, 1.1, np.random.default_rng(3))
    again = harness.zipf_ranks(5000, 256, 1.1, np.random.default_rng(3))
    assert np.array_equal(first, again)
    counts = np.bincount(first, minlength=256)
    assert counts[0] == counts.max() and counts[0] > 5 * counts[10]
    assert first.min() >= 0 and first.max() < 256


class _Future:
    def __init__(self):
        self.callbacks = []

    def add_done_callback(self, callback):
        self.callbacks.append(callback)


def test_drive_sends_on_schedule_and_stamps_from_callbacks():
    now = [100.0]
    futures = []

    def send(index):
        futures.append(_Future())
        return futures[-1]

    def sleep(seconds):
        now[0] += seconds

    phase = harness.Phase("nominal", 10, 1.0)
    offsets = np.array([0.1, 0.25, 0.7])
    harness.drive(phase, offsets, send, clock=lambda: now[0], sleep=sleep)
    assert phase.lags_ms() == pytest.approx([0.0, 0.0, 0.0])
    assert phase.end == pytest.approx(phase.start + 1.0)
    now[0] = phase.start + 2.0
    futures[1].callbacks[0](futures[1])
    assert phase.done[1] == now[0] and math.isnan(phase.done[0])

    ticked = harness.Phase("saturating", 10, 1.0)
    harness.drive(ticked, offsets, send, clock=lambda: now[0], sleep=sleep,
                  tick=0.2)
    sent = [t - ticked.start for t in ticked.sent]
    assert sent == pytest.approx([0.2, 0.4, 0.8])


def test_window_refuses_requests_due_while_it_is_full():
    now = [0.0]
    futures = []

    def send(index):
        futures.append(_Future())
        if index == 0:              # answered before the next one is due
            futures[-1].add_done_callback = lambda callback: callback(None)
        return futures[-1]

    def sleep(seconds):
        now[0] += seconds

    refused = harness.Refused(RuntimeError("window full"))
    phase = harness.Phase("saturating", 10, 1.0)
    harness.drive(phase, np.array([0.1, 0.2, 0.3, 0.4, 0.5]), send,
                  clock=lambda: now[0], sleep=sleep, window=2,
                  refused=refused)
    assert len(futures) == 3        # 0 answered; 1 and 2 fill the window
    assert [phase.offered(i) for i in range(5)] == [True] * 3 + [False] * 2
    assert phase.futures[3] is refused
    assert isinstance(phase.outcome(4), RuntimeError)
    assert phase.done[0] == pytest.approx(phase.start + 0.1)
    assert math.isnan(phase.done[1])


def _batches(rng):
    groups = {}
    for key in range(4):
        rows = []
        for order in range(3):
            payload = rng.normal(size=5).astype(np.float32)
            rows.append((order, payload, payload * np.float32(2)))
        groups[key] = rows
    return groups


def test_bit_exact_check_fails_on_a_perturbed_output():
    def reference(batch):
        return batch * np.float32(2)

    groups = _batches(np.random.default_rng(0))
    checked, mismatches = harness.check_batches(
        groups, reference, np.random.default_rng(1))
    assert (checked, mismatches) == (12, [])
    order, payload, answer = groups[2][1]
    groups[2][1] = (order, payload, np.nextafter(answer, np.inf))
    checked, mismatches = harness.check_batches(
        groups, reference, np.random.default_rng(1))
    assert checked == 12 and len(mismatches) == 1


def test_reused_answer_must_match_engine_bits():
    payload = np.arange(4, dtype=np.float32)
    bits = {workloads.payload_digest(payload): [payload * 3]}
    assert workloads.check_reuse([(payload, payload * 3)], bits) == (1, [])
    _, bad = workloads.check_reuse(
        [(payload, np.nextafter(payload * 3, 0))], bits)
    assert len(bad) == 1


def test_names_follow_the_rule():
    names = (list(workloads.WORKLOADS) + list(workloads.END_TO_END)
             + list(workloads.PER_LAYER))
    assert harness.check_names(names) == []
    assert harness.check_names(["ok.name-1", "bad name", "_lead"]) == [
        "bad name", "_lead"]
    units = list(workloads.END_TO_END.values()) + list(
        workloads.PER_LAYER.values())
    assert all(harness.UNIT_RE.match(unit) for unit in units)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [name for name, spec in workloads.WORKLOADS.items()
              if spec.listed]
    assert [w["name"] for w in doc["workloads"]] == listed
    for entry in doc["workloads"]:
        spec = workloads.WORKLOADS[entry["name"]]
        assert entry["why"] == spec.why and len(spec.why) <= 200
        # The fixed offered rates are stated in BENCHMARK.json.
        rates = [int(r) for r in re.findall(r"(\d+) (?:rps|chunks/s)",
                                            spec.why)]
        assert rates == [spec.nominal_rps, spec.saturating_rps]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: workloads.END_TO_END[name] for name in workloads.BOUNDED}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        workloads.PER_LAYER
    for metric in doc["per_layer"]:
        expected = ("higher" if metric["name"] in workloads.HIGHER_IS_BETTER
                    else "lower")
        assert metric["better"] == expected
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_result_line_has_exactly_the_contract_keys():
    line = json.loads(harness.result_line(
        True, 10, 0, {"setup_s": (1.5, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
