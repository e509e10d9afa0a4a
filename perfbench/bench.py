"""One benchmark run: set-up, timed phases, checks, metrics, output."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import time
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    InsufficientSamples,
    Phase,
    Refused,
    Tracer,
    drive,
    median,
    peak_rss_mb,
    percentile,
    percentile_or_zero,
    poisson_offsets,
    result_line,
    wait_all,
)
from repro.errors import AdmissionError
from workloads import (
    BOUNDED,
    END_TO_END,
    PER_LAYER,
    RUNNERS,
    WORKLOADS,
    Runner,
    is_shed,
    kernel_pass,
)

SETTLE_S = 90.0     # longest wait for a phase's answers
#: After the run stops the server, how long requests it had queued get to
#: fail. Some never resolve (a pipeline closed without draining strands
#: the batch in flight between stages); they count as cancelled.
CLOSE_WAIT_S = 5.0
#: Share of ``--seconds`` given to the nominal phase; the saturating
#: phase gets the rest, as its throughput is the bounded number.
NOMINAL_SHARE = 0.3
#: A generator this late (p99, nominal phase) no longer offers the
#: nominal rate, so its latencies would not describe the server: the
#: run is void.
LAG_LIMIT_MS = 100.0
#: Above capacity the generator wakes once per tick and sends everything
#: due, rather than waking for every request: a thread waking thousands of
#: times a second steals the interpreter lock from the serving threads at
#: every native call they make, and what the phase measures then is that
#: contention, from run to run a different amount.
SATURATING_TICK_S = 0.01
THROUGHPUT_WINDOW_S = 0.5
REFUSED = Refused(AdmissionError("client window full"))


def timed_phase(runner: Runner, name: str, rate: float, duration: float,
                tracer: Tracer = None) -> Phase:
    phase = Phase(name, rate, duration)
    saturating = name.startswith("saturating")
    tick = SATURATING_TICK_S if saturating else 0.0
    window = runner.spec.window if saturating else 0
    offsets = poisson_offsets(rate, duration, runner.rng)
    send = runner.sender(phase, len(offsets))
    # The run keeps every future of a phase for the bit-exact check, where
    # a real client would drop each one once answered. With the collector
    # on, its full passes over that growing heap land inside the window as
    # multi-millisecond stalls that move p50 and p99 from run to run. So
    # collection runs between phases and is paused inside them.
    gc.collect()
    runner.begin_phase(phase)
    gc.disable()
    try:
        drive(phase, offsets, send, tracer=tracer, tick=tick,
              window=window, refused=REFUSED)
    finally:
        gc.enable()
        runner.end_phase(phase)
    return phase


def settle(phase: Phase) -> None:
    pending = wait_all(phase.futures, SETTLE_S)
    if pending:
        raise RuntimeError(f"{pending} requests of phase {phase.name} still "
                           f"unanswered {SETTLE_S:.0f} s after it ended")


def tally(phase: Phase, closed_at: float = math.inf) -> Dict[str, int]:
    """Sent / succeeded / failed, with requests the client's window
    refused, refusals of a saturating phase (load shedding by design) and
    requests cancelled when the run stopped the server kept apart from
    failures."""
    counts = {"sent": 0, "succeeded": 0, "failed": 0,
              "refused": 0, "shed": 0, "cancelled": 0}
    saturating = phase.name.startswith("saturating")
    for index in range(phase.count):
        error = phase.outcome(index)
        if not phase.offered(index):
            counts["refused"] += 1
        elif error is None:
            counts["succeeded"] += 1
        elif saturating and is_shed(error):
            counts["shed"] += 1
        elif phase.done[index] >= closed_at or not phase.futures[
                index].done():
            counts["cancelled"] += 1
        else:
            counts["failed"] += 1
    counts["sent"] = phase.count - counts["refused"]
    return counts


def throughput(phase: Phase) -> float:
    """Median answers per second over the phase's half-second windows:
    robust to the odd window in which the serving thread stalls."""
    return median(phase.window_rates(THROUGHPUT_WINDOW_S))


def run(args, work: Path, out_dir: Path) -> int:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    if spec.one_core:
        # Before any thread starts; threads and compiler runs inherit it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = RUNNERS[spec.name](spec, work, args.seed)
    lines: List[str] = []
    setups = []
    phases: List[Phase] = []
    tracer = Tracer() if args.trace else None
    try:
        for repeat in range(spec.setup_repeats):
            runner.codegen_dir = work / f"codegen-{repeat}"
            os.environ["REPRO_CODEGEN_CACHE"] = str(runner.codegen_dir)
            setups.append(runner.setup(repeat))
        if not args.trace:
            nominal = timed_phase(runner, "nominal", spec.nominal_rps,
                                  args.seconds * NOMINAL_SHARE)
            settle(nominal)
            # The saturating phase keeps every answer it gets for the
            # check, so the process peaks there in proportion to its
            # throughput; the peak through set-up and the nominal phase
            # is the footprint of the server at a fixed load.
            own_rss = peak_rss_mb()
            saturating = timed_phase(runner, "saturating",
                                     spec.saturating_rps,
                                     args.seconds * (1 - NOMINAL_SHARE))
            phases = [nominal, saturating]
        else:
            quarter = args.seconds / 4
            plain = timed_phase(runner, "nominal", spec.nominal_rps, quarter)
            settle(plain)
            runner.wrap(tracer)
            nominal = timed_phase(runner, "nominal_traced",
                                  spec.nominal_rps, quarter, tracer)
            settle(nominal)
            tracer.unwrap()
            plain_sat = timed_phase(runner, "saturating",
                                    spec.saturating_rps, quarter)
            settle(plain_sat)
            runner.wrap(tracer)
            saturating = timed_phase(runner, "saturating_traced",
                                     spec.saturating_rps, quarter, tracer)
            phases = [plain, nominal, plain_sat, saturating]
    finally:
        closed_at = time.perf_counter()
        runner.close()
        if tracer is not None:
            tracer.unwrap()
    stranded = wait_all(phases[-1].futures, CLOSE_WAIT_S)

    lag = percentile_or_zero(phases[0].lags_ms(), 99)
    if lag > LAG_LIMIT_MS:
        raise SystemExit(f"void run: the generator sent the nominal phase "
                         f"{lag:.1f} ms late at p99 (limit {LAG_LIMIT_MS})")
    checked, mismatches = runner.check(phases)
    counts = {phase.name: tally(phase, closed_at) for phase in phases}
    for phase in phases:
        c = counts[phase.name]
        in_window = phase.succeeded_by(phase.end) / phase.duration
        lines.append(
            f"phase {phase.name}: {phase.rate:g}/s for {phase.duration:g} s:"
            f" sent {c['sent']}, succeeded {c['succeeded']}, failed "
            f"{c['failed']}, refused {c['refused']}, shed {c['shed']}, "
            f"cancelled {c['cancelled']}, "
            f"answered in window {in_window:.1f}/s (median of "
            f"{THROUGHPUT_WINDOW_S:g} s windows {throughput(phase):.1f}/s), "
            f"generator lag p99 {_p(phase.lags_ms(), 99)}")
    if stranded:
        lines.append(f"{stranded} requests never resolved after the server "
                     "was closed without draining")
    lines.append(f"bit-exact check: {checked} answers compared, "
                 f"{len(mismatches)} mismatches")
    lines += [f"MISMATCH {text}" for text in mismatches[:20]]

    setup_total = [sum(stages.values()) for stages in setups]
    if not args.trace:
        rss = own_rss + (peak_rss_mb(resource.RUSAGE_CHILDREN)
                         if runner.children else 0.0)
        metrics, counts_by_metric = end_to_end(setup_total, phases, rss)
    else:
        metrics, counts_by_metric, spans_mismatch = per_layer(
            runner, tracer, setups, phases)
        mismatches += spans_mismatch
        lines += [f"MISMATCH {text}" for text in spans_mismatch]
        tracer.dump(_trace_path(out_dir, args), phases[0].start)
        lines.append(f"spans: {len(tracer.spans)} written to "
                     f"{_trace_path(out_dir, args)}")
    for name, (value, unit) in metrics.items():
        count = counts_by_metric.get(name)
        lines.append(f"{name} = {value:.6g} {unit}"
                     + (f" (n={count})" if count is not None else ""))

    correct = not mismatches
    attempted = sum(c["sent"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    record = {"workload": spec.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "phases": counts, "checked": checked,
              "mismatches": mismatches, "setups": setups,
              "metrics": {name: {"value": value, "unit": unit,
                                 "count": counts_by_metric.get(name)}
                          for name, (value, unit) in metrics.items()}}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for line in lines:
        print(line)
    if not args.trace:
        metrics = {name: metrics[name] for name in BOUNDED}
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def _p(values, q) -> str:
    try:
        value, count = percentile(values, q)
    except InsufficientSamples as error:
        return f"n/a ({error})"
    return f"{value:.3f} ms (n={count})"


def _trace_path(out_dir: Path, args) -> Path:
    traces = out_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{args.workload}-seed{args.seed}.jsonl"


def end_to_end(setup_total, phases, rss) -> Tuple[dict, dict]:
    nominal, saturating = phases
    latencies = nominal.latencies_ms()
    p50, count = percentile(latencies, 50)
    p99, _ = percentile(latencies, 99)
    metrics = {
        "setup_s": (median(setup_total), END_TO_END["setup_s"]),
        "latency_p50_ms": (p50, END_TO_END["latency_p50_ms"]),
        "latency_p99_ms": (p99, END_TO_END["latency_p99_ms"]),
        "throughput_rps": (throughput(saturating),
                           END_TO_END["throughput_rps"]),
        "peak_rss_mb": (rss, END_TO_END["peak_rss_mb"]),
    }
    counts = {"setup_s": len(setup_total), "latency_p50_ms": count,
              "latency_p99_ms": count,
              "throughput_rps": len(saturating.window_rates(
                  THROUGHPUT_WINDOW_S)),
              "peak_rss_mb": 1}
    return metrics, counts


def per_layer(runner: Runner, tracer: Tracer, setups,
              phases) -> Tuple[dict, dict, List[str]]:
    plain, nominal, plain_sat, saturating = phases
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    counts: Dict[str, int] = {}
    for stage in ("quantize", "load", "warmup"):
        values[f"setup.{stage}_s"] = median([s[stage] for s in setups])
        counts[f"setup.{stage}_s"] = len(setups)
    values["codegen.libraries"] = runner.codegen_libraries()
    values.update(runner.layers(tracer, nominal, saturating))
    mismatches = []
    for plan, batch in runner.kernel_plans():
        kernels, bad = kernel_pass(plan, batch, tracer)
        values.update(kernels)
        mismatches += bad
    lags = nominal.lags_ms()
    values["loadgen.lag_p99_ms"] = percentile_or_zero(lags, 99)
    counts["loadgen.lag_p99_ms"] = len(lags)
    values["trace.latency_p50_overhead_ms"] = (
        percentile_or_zero(nominal.latencies_ms(), 50)
        - percentile_or_zero(plain.latencies_ms(), 50))
    base = throughput(plain_sat)
    values["trace.throughput_overhead_share"] = (
        1.0 - throughput(saturating) / base if base else 0.0)
    values["trace.spans"] = float(len(tracer.spans))
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"per-layer metrics not declared: {unknown}")
    metrics = {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}
    return metrics, counts, mismatches
