"""Command-line entry point: ``python -m repro.serve <command>``.

Four subcommands cover the export → inspect → serve loop end to end with
synthetic data, so the whole serving path can be exercised without training:

- ``export`` — build a model from the small zoo, post-training-quantize it
  (MSQ weights + calibrated activation ranges), and write a verified
  artifact;
- ``backends`` — list kernel backends with availability (compiler probe
  result for ``compiled``) plus the codegen build cache;
  ``--clear-cache`` empties it;
- ``info`` — print an artifact's manifest summary and GEMM workloads;
- ``run`` — load an artifact, push synthetic requests through the dynamic
  batcher (:class:`~repro.serve.server.ModelServer`, synchronous mode),
  and report wall-clock and simulated-FPGA serving statistics;
- ``up`` — start a live multi-model server (``--model name=path``,
  repeatable) speaking a JSON-lines protocol on stdin/stdout:
  ``{"model": "resnet", "input": [...], "id": 7}`` in,
  ``{"id": 7, "model": "resnet", "output": [...], "latency_ms": ...}``
  out; ``{"op": "stats"}`` emits a per-model statistics line. Responses
  preserve per-model submission order; batches form dynamically from
  whatever arrives within ``--max-wait-ms``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

import numpy as np

from repro.errors import (
    ConfigurationError,
    FrameError,
    ReproError,
    ServingError,
)
from repro.serve.transport import (
    MAX_MESSAGE_BYTES,
    array_from_wire,
    array_to_wire,
)


def _resnet_tiny(rng):
    from repro.models import resnet_tiny

    return resnet_tiny(num_classes=10, rng=rng), _image_sampler(3, 16)


def _resnet18(rng):
    from repro.models import resnet18_cifar

    return resnet18_cifar(num_classes=10, rng=rng), _image_sampler(3, 16)


def _mobilenet(rng):
    from repro.models import mobilenet_v2_tiny

    return mobilenet_v2_tiny(num_classes=10, rng=rng), _image_sampler(3, 16)


def _lstm_lm(rng):
    from repro.models import LSTMLanguageModel

    model = LSTMLanguageModel(vocab_size=40, embed_dim=16, hidden_size=24,
                              num_layers=2, rng=rng)
    return model, _token_sampler(vocab=40, timesteps=12)


def _gru_speech(rng):
    from repro.models import GRUSpeechModel

    model = GRUSpeechModel(input_dim=13, hidden_size=24, num_layers=2,
                           rng=rng)
    return model, _frame_sampler(timesteps=12, features=13)


def _lstm_sentiment(rng):
    from repro.models import LSTMSentimentClassifier

    model = LSTMSentimentClassifier(vocab_size=40, embed_dim=16,
                                    hidden_size=24, num_layers=2, rng=rng)
    return model, _token_sampler(vocab=40, timesteps=12)


def _yolo_lite(rng):
    from repro.models import YoloLite

    # Serves the raw detection grid; decode/NMS stay host-side.
    return YoloLite(num_classes=3, rng=rng), _image_sampler(3, 32)


def _image_sampler(channels, size):
    def sample(rng, n):
        return rng.normal(size=(n, channels, size, size)).astype(np.float32)

    return sample


def _token_sampler(vocab, timesteps):
    def sample(rng, n):
        return rng.integers(0, vocab, size=(n, timesteps), dtype=np.int64)

    return sample


def _frame_sampler(timesteps, features):
    def sample(rng, n):
        return rng.normal(size=(n, timesteps, features)).astype(np.float32)

    return sample


MODEL_ZOO: Dict[str, Callable] = {
    "resnet_tiny": _resnet_tiny,
    "resnet18_cifar": _resnet18,
    "mobilenet_v2": _mobilenet,
    "lstm_lm": _lstm_lm,
    "gru_speech": _gru_speech,
    "lstm_sentiment": _lstm_sentiment,
    "yolo_lite": _yolo_lite,
}


def build_model(name: str, seed: int = 0):
    """Instantiate a zoo model and its synthetic input sampler."""
    if name not in MODEL_ZOO:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}")
    return MODEL_ZOO[name](np.random.default_rng(seed))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_export(args) -> int:
    # One quantize-and-export implementation for every CLI spelling.
    from repro.api.cli import run_quantize

    return run_quantize(args.model, args.out, bits=args.bits,
                        ratio=args.ratio,
                        calibration_batches=args.calibration_batches,
                        seed=args.seed)


def cmd_backends(args) -> int:
    from repro.serve.backends import backend_availability, get_backend
    from repro.serve.codegen import (cache_dir, cached_libraries,
                                     clear_cache)

    if args.clear_cache:
        removed = clear_cache()
        print(f"cleared {removed} cached kernel librar"
              f"{'y' if removed == 1 else 'ies'} from {cache_dir()}")
        return 0
    rows = []
    for name, (usable, note) in backend_availability().items():
        backend = get_backend(name)
        status = "available" if usable else "unavailable"
        if not usable and backend.fallback:
            status += f" (falls back to {backend.fallback})"
        rows.append((name, status, note))
    width = max(len(name) for name, _, _ in rows)
    swidth = max(len(status) for _, status, _ in rows)
    for name, status, note in rows:
        print(f"{name:<{width}}  {status:<{swidth}}  {note}")
    libraries = cached_libraries()
    print(f"codegen cache: {cache_dir()} "
          f"({len(libraries)} compiled kernel librar"
          f"{'y' if len(libraries) == 1 else 'ies'})")
    return 0


def cmd_info(args) -> int:
    from repro.serve.plan import ExecutionPlan

    plan = ExecutionPlan.load(args.artifact, backend=args.backend)
    print(plan.describe())
    performance = plan.simulate(batch=1)
    print(f"FPGA (D2-3):  {performance.latency_ms:.3f} ms/request, "
          f"{performance.throughput_gops:.1f} GOPS")
    return 0


def synthetic_payloads(plan, count: int, seed: int = 0):
    """``count`` random single-request payloads matching a plan's input."""
    rng = np.random.default_rng(seed)
    shape, dtype = plan.input_shape, plan.input_dtype
    if np.issubdtype(dtype, np.floating):
        return [rng.normal(size=shape).astype(dtype) for _ in range(count)]
    token_bound = plan.graph.token_bound()
    return [rng.integers(0, token_bound, size=shape).astype(dtype)
            for _ in range(count)]


def cmd_run(args) -> int:
    from repro.serve.server import ModelServer

    server = ModelServer(workers=0, max_batch=args.batch)
    server.load("model", args.artifact, backend=args.backend,
                batch=args.batch)
    payloads = synthetic_payloads(server.plan("model"), args.requests,
                                  seed=args.seed)
    futures = server.submit_many("model", payloads)
    server.drain()
    for future in futures:
        future.result(timeout=0)
    stats = server.stats()["model"]
    server.close()
    print(f"served {args.requests} synthetic requests "
          f"(max_batch={args.batch})")
    print(stats.format())
    return 0


def cmd_pipeline(args) -> int:
    """Partition an artifact, serve synthetic requests through the stage
    pipeline, and verify the outputs are bit-identical to the
    single-device plan (micro-batched the same way)."""
    import os
    import tempfile

    from repro.serve.artifact import ServeArtifact
    from repro.serve.partition import (PipelineEngine, auto_cuts,
                                       process_pipeline_cluster,
                                       split_artifact)
    from repro.serve.plan import ExecutionPlan

    artifact = ServeArtifact.load(args.artifact)
    cuts = ([int(c) for c in args.cuts.split(",")] if args.cuts
            else list(auto_cuts(artifact, stages=args.stages)))
    name = str(artifact.manifest.get("model", "model")) or "model"

    # Single-device reference, micro-batched exactly like the pipeline
    # will batch (bit-exactness is per identical batch composition).
    reference = ExecutionPlan(artifact, backend=args.backend)
    payloads = synthetic_payloads(reference, args.requests, seed=args.seed)
    expected = []
    for start in range(0, len(payloads), args.batch):
        chunk = np.stack(payloads[start:start + args.batch])
        expected.extend(reference.per_request_outputs(
            reference.forward(chunk), chunk.shape[0]))

    if args.process:
        partition = split_artifact(artifact, cuts)
        print(partition.describe())
        with tempfile.TemporaryDirectory() as tmp:
            paths = partition.save(os.path.join(tmp, "pipeline"))
            # Bit-exactness is per identical batch composition, so drive
            # the cluster in synchronized waves of exactly ``batch``
            # requests (deadline long enough that a wave always fills).
            cluster = process_pipeline_cluster(paths, name=name,
                                               backend=args.backend,
                                               max_batch=args.batch,
                                               max_wait_ms=2000.0)
            try:
                futures = []
                for start in range(0, len(payloads), args.batch):
                    futures.extend(cluster.submit_many(
                        name, payloads[start:start + args.batch]))
                    left = cluster.drain()
                    if left:
                        raise ServingError(
                            f"{left} request(s) never completed")
                outputs = np.stack([future.result(timeout=60.0)
                                    for future in futures])
                stats_text = cluster.format_stats()
                stages = cluster.num_stages
            finally:
                cluster.close(drain=False)
        mode = f"{stages}-stage subprocess pipeline"
    else:
        engine = PipelineEngine.from_artifact(
            artifact, cuts=cuts, name=name, backend=args.backend,
            max_batch=args.batch, workers=0)
        try:
            print(engine.partition.describe())
            futures = engine.submit_many(name, payloads)
            engine.drain()
            outputs = np.stack([future.result(timeout=0)
                                for future in futures])
            stats_text = engine.format_stats()
            mode = f"{engine.num_stages}-stage in-process pipeline"
        finally:
            engine.close(drain=False)

    match = np.array_equal(outputs, np.stack(expected))
    print(f"served {len(payloads)} synthetic requests through a {mode} "
          f"(max_batch={args.batch})")
    print("outputs vs single-device plan: "
          + ("IDENTICAL (np.array_equal)" if match else "MISMATCH"))
    print(stats_text)
    return 0 if match else 1


def _error_fields(error) -> Dict:
    """The typed error vocabulary every error response line carries."""
    return {"error": str(error),
            "code": getattr(error, "code", "bad-request"),
            "retryable": bool(getattr(error, "retryable", False))}


def serve_protocol(server, lines, out,
                   max_line_bytes: int = MAX_MESSAGE_BYTES) -> int:
    """Drive a :class:`ModelServer` over the JSON-lines wire protocol.

    ``lines`` is any iterable of protocol lines: text (sys.stdin, a pipe,
    a list in tests), raw ``bytes`` (a framed transport), or
    :class:`FrameError` instances (a transport that already detected a
    malformed frame — :func:`repro.serve.transport.frame_lines` yields
    them). Responses are written to ``out`` as one JSON object per line.

    Every malformed line is *answered*, never fatal, with a typed
    ``"code"`` shared with the cluster transport: ``oversized`` /
    ``bad-utf8`` / ``truncated`` (frame level), ``bad-json`` /
    ``not-object`` / ``bad-request`` / ``unknown-op`` (message level),
    plus whatever code the server's own errors carry (``unknown-model``,
    ``shed``, ...). Payloads arrive as ``"input"`` (JSON list) or
    ``"input_b64"`` (base64 + dtype + shape, answered in kind).

    Inference responses preserve submission order (FIFO is a serving
    guarantee, so head-of-line blocking here is by design) and are
    flushed as soon as their future resolves — a done-callback fires the
    flush from the worker thread, so a strict request-then-response
    client works even while this loop is blocked reading the next line.
    A ``{"op": "stats"}`` line emits a statistics object immediately
    (``"detail": true`` for full mergeable per-model dumps; an ``"id"``
    is echoed back). Returns the number of inference requests answered.
    """
    import threading

    # (request id, model, future, binary?) in submission order
    outstanding = []
    # Guards `outstanding` and response writes. Reentrant because a
    # cluster router's stats() *drives* its workers: futures resolve
    # (and their flush callbacks fire) on this thread, under this lock.
    wire = threading.RLock()

    def emit(payload) -> None:
        out.write(json.dumps(payload) + "\n")
        try:
            out.flush()
        except (AttributeError, ValueError):
            pass

    def response(request_id, model, future, binary):
        error = future.exception(timeout=None)
        if error is not None:
            return {"id": request_id, "model": model,
                    **_error_fields(error)}
        request = future.request
        payload = {"id": request_id, "model": model}
        if request is not None:
            payload.update(latency_ms=round(request.latency_ms, 3),
                           batch_id=request.batch_id,
                           batch_size=request.batch_size)
            # Cache provenance rides along so clients (and the cluster
            # router) can tell a cached/coalesced answer from a computed
            # one. Stream-chunk futures carry no request record: they
            # are stateful, so by construction never cached/coalesced.
            if getattr(request, "cached", False):
                payload["cached"] = True
            if getattr(request, "coalesced", False):
                payload["coalesced"] = True
        result = np.asarray(future.result())
        if binary:
            payload.update(array_to_wire(result, key="output"))
        else:
            payload["output"] = result.tolist()
        return payload

    def flush_completed() -> None:
        with wire:
            while outstanding and outstanding[0][2].done():
                request_id, model, future, binary = outstanding.pop(0)
                emit(response(request_id, model, future, binary))

    served = 0
    for line in lines:
        if isinstance(line, FrameError):
            # The transport already classified this frame as malformed.
            with wire:
                emit(_error_fields(line))
            continue
        if isinstance(line, (bytes, bytearray)):
            raw = bytes(line)
            if len(raw) > max_line_bytes:
                with wire:
                    emit({"error": f"request line is {len(raw)} bytes; "
                                   f"cap is {max_line_bytes}",
                          "code": "oversized", "retryable": False})
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                with wire:
                    emit({"error": f"request line is not UTF-8: {error}",
                          "code": "bad-utf8", "retryable": False})
                continue
        elif len(line) > max_line_bytes:
            with wire:
                emit({"error": f"request line is {len(line)} chars; "
                               f"cap is {max_line_bytes}",
                      "code": "oversized", "retryable": False})
            continue
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except ValueError as error:
            with wire:
                emit({"error": f"malformed request: {error}",
                      "code": "bad-json", "retryable": False})
            continue
        if not isinstance(message, dict):
            with wire:
                emit({"error": "request must be a JSON object, got "
                               f"{type(message).__name__}",
                      "code": "not-object", "retryable": False})
            continue
        op = message.get("op", "infer")
        if op == "stats":
            with wire:
                emit_stats(server, emit,
                           detail=bool(message.get("detail")),
                           request_id=message.get("id"))
            continue
        if op in ("stream_open", "stream_close", "session_export",
                  "session_import"):
            # Session control is synchronous on the server, so it is
            # answered immediately — out of band of the inference FIFO
            # (clients and the router correlate by "id").
            model = message.get("model")
            if model is None:
                with wire:
                    emit({"id": message.get("id"),
                          "error": f"{op} request needs 'model'",
                          "code": "bad-request", "retryable": False})
                continue
            try:
                if op == "stream_open":
                    sid = server.open_session(
                        model, session_id=message.get("session"))
                    reply = {"op": op, "model": model, "session": sid}
                elif op == "stream_close":
                    chunks = server.close_session(
                        model, str(message.get("session")))
                    reply = {"op": op, "model": model,
                             "session": message.get("session"),
                             "chunks": chunks}
                elif op == "session_export":
                    reply = {"op": op, "model": model,
                             "sessions": server.export_sessions(model)}
                else:
                    server.import_session(
                        model, str(message.get("session")),
                        message.get("state") or {},
                        chunks=int(message.get("chunks", 0)))
                    reply = {"op": op, "model": model,
                             "session": message.get("session")}
            except (ServingError, ValueError, TypeError) as error:
                with wire:
                    emit({"id": message.get("id"), "model": model,
                          **_error_fields(error)})
                continue
            if message.get("id") is not None:
                reply["id"] = message["id"]
            with wire:
                emit(reply)
            continue
        if op == "stream_submit":
            model = message.get("model")
            session = message.get("session")
            binary = "input_b64" in message
            if model is None or session is None \
                    or (not binary and "input" not in message):
                with wire:
                    emit({"id": message.get("id"),
                          "error": "stream_submit needs 'model', "
                                   "'session' and 'input' (or "
                                   "'input_b64' + dtype + shape)",
                          "code": "bad-request", "retryable": False})
                continue
            try:
                payload = (array_from_wire(message, "input") if binary
                           else np.asarray(message["input"]))
                future = server.submit_stream(model, str(session), payload)
            except (ServingError, ValueError, TypeError) as error:
                with wire:
                    emit({"id": message.get("id"), "model": model,
                          **_error_fields(error)})
                continue
            with wire:
                outstanding.append((message.get("id"), model, future,
                                    binary))
            served += 1
            future.add_done_callback(lambda _: flush_completed())
            flush_completed()
            continue
        if op != "infer":
            with wire:
                emit({"id": message.get("id"),
                      "error": f"unknown op {op!r}",
                      "code": "unknown-op", "retryable": False})
            continue
        model = message.get("model")
        binary = "input_b64" in message
        if model is None or (not binary and "input" not in message):
            with wire:
                emit({"id": message.get("id"),
                      "error": "infer request needs 'model' and 'input' "
                               "(or 'input_b64' + dtype + shape)",
                      "code": "bad-request", "retryable": False})
            continue
        try:
            # Decode/np.asarray can reject bad payloads (ragged lists,
            # byte-count mismatches); a bad request must answer an error
            # line, never kill the server.
            payload = (array_from_wire(message, "input") if binary
                       else np.asarray(message["input"]))
            future = server.submit(model, payload)
        except (ServingError, ValueError, TypeError) as error:
            with wire:
                emit({"id": message.get("id"), "model": model,
                      **_error_fields(error)})
            continue
        with wire:
            outstanding.append((message.get("id"), model, future, binary))
        served += 1
        # Resolution (possibly on a worker thread) flushes the head of
        # the line; calling it here too covers already-failed submits.
        future.add_done_callback(lambda _: flush_completed())
        flush_completed()
    # EOF: force-serve what never filled a batch, answer everything left.
    # drain() returns once the queues are empty, but a worker may still
    # be resolving its last batch — and its done-callbacks flush through
    # `wire`. Never block on a future while holding `wire`, or that
    # worker deadlocks against us mid-batch.
    server.drain()
    while True:
        with wire:
            if not outstanding:
                break
            head = outstanding[0][2]
            if head.done():
                request_id, model, future, binary = outstanding.pop(0)
                emit(response(request_id, model, future, binary))
                continue
        head.exception()        # wait with `wire` released
    return served


def emit_stats(server, emit, detail: bool = False,
               request_id=None) -> None:
    """Write one ``{"op": "stats"}`` response line for every model.

    ``detail=True`` dumps full mergeable per-model statistics
    (``ModelStats.to_wire``) plus the server's alias map — what the
    cluster router aggregates; the default is a human-oriented summary.
    """
    if detail:
        payload = {"op": "stats",
                   "models": {name: stats.to_wire()
                              for name, stats in server.stats().items()},
                   "aliases": (server.aliases()
                               if hasattr(server, "aliases") else {})}
    else:
        payload = {"op": "stats",
                   "models": {name: {
                       "requests": stats.requests,
                       "batches": stats.batches,
                       "requests_per_second":
                           round(stats.requests_per_second, 1),
                       "latency_ms_p50": round(stats.latency_ms_p50, 3),
                       "latency_ms_p95": round(stats.latency_ms_p95, 3),
                       "latency_ms_p99": round(stats.latency_ms_p99, 3),
                       "mean_batch_fill": round(stats.mean_batch_fill, 3),
                       "queue_depth": stats.queue_depth,
                       "cache_hits": stats.cache_hits,
                       "dedup_coalesced": stats.dedup_coalesced,
                       "cache_hit_rate": round(stats.cache_hit_rate, 3),
                   } for name, stats in server.stats().items()}}
    if request_id is not None:
        payload["id"] = request_id
    emit(payload)


def _add_cache_flags(parser) -> None:
    """The shared response-cache knobs of ``up`` and ``cluster``."""
    parser.add_argument("--cache-mb", type=float, default=64,
                        help="response-cache byte budget in MB "
                             "(per worker for clusters; 0 disables)")
    parser.add_argument("--cache-ttl-s", type=float, default=None,
                        help="response-cache entry TTL in seconds "
                             "(default: no expiry)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the response cache and in-flight "
                             "request dedup entirely")


def parse_model_specs(specs) -> list:
    """``--model NAME=PATH`` (repeatable) -> ``[(name, path), ...]``."""
    hosted = []
    for spec in specs:
        name, equals, path = spec.partition("=")
        if not equals or not name or not path:
            raise ConfigurationError(
                f"--model expects name=path, got {spec!r}")
        hosted.append((name, path))
    return hosted


def _cache_args(args):
    """``(cache_mb, cache_ttl_s)`` from the shared CLI cache flags."""
    if getattr(args, "no_cache", False):
        return None, None
    return args.cache_mb or None, args.cache_ttl_s


def cmd_up(args) -> int:
    from repro.serve.server import ModelServer

    hosted = parse_model_specs(args.model)
    cache_mb, cache_ttl_s = _cache_args(args)
    server = ModelServer(workers=args.workers, max_batch=args.batch,
                         max_wait_ms=args.max_wait_ms,
                         cache_mb=cache_mb, cache_ttl_s=cache_ttl_s)
    try:
        for name, path in hosted:
            server.load(name, path, backend=args.backend,
                        warmup=args.warmup)
        print(f"serving {len(hosted)} model(s) "
              f"[{', '.join(name for name, _ in hosted)}] "
              f"(backend={args.backend}, batch={args.batch}, "
              f"max_wait_ms={args.max_wait_ms}, workers={args.workers}, "
              f"cache={f'{cache_mb} MB' if cache_mb else 'off'}); "
              "JSON-lines on stdin", file=sys.stderr)
        served = serve_protocol(server, sys.stdin, sys.stdout)
    finally:
        server.close()
    print(f"served {served} request(s)", file=sys.stderr)
    for line in server.format_stats().splitlines():
        print(line, file=sys.stderr)
    return 0


def cmd_cluster(args) -> int:
    from repro.serve.cluster import ClusterRouter

    models = dict(parse_model_specs(args.model))
    cache_mb, cache_ttl_s = _cache_args(args)
    router = ClusterRouter.spawn(
        models, workers=args.workers, placement=args.placement,
        max_batch=args.batch, max_wait_ms=args.max_wait_ms,
        backend=args.backend, capacity=args.capacity,
        worker_threads=args.worker_threads,
        cache_mb=cache_mb, cache_ttl_s=cache_ttl_s)
    try:
        print(f"cluster up: {args.workers} worker process(es) hosting "
              f"[{', '.join(sorted(models))}] "
              f"(placement={args.placement}, backend={args.backend}, "
              f"batch={args.batch}, capacity={args.capacity}/worker, "
              f"cache={f'{cache_mb} MB/worker' if cache_mb else 'off'}); "
              "JSON-lines on stdin", file=sys.stderr)
        # The router duck-types the ModelServer surface, so the wire
        # protocol in front of a whole cluster is the PR 4 loop verbatim.
        served = serve_protocol(router, sys.stdin, sys.stdout)
        print(f"routed {served} request(s)", file=sys.stderr)
        for line in router.format_stats().splitlines():
            print(line, file=sys.stderr)
    finally:
        router.close()
    return 0


def cmd_cluster_worker(args) -> int:
    """Internal: one cluster worker (spawned by :class:`ClusterRouter`).

    Binds an ephemeral localhost port, announces ``PORT <n>`` on stdout,
    accepts exactly one connection (its router), and serves the framed
    protocol until the router hangs up.
    """
    import socket

    from repro.serve.server import ModelServer
    from repro.serve.transport import (FrameWriter, SocketTransport,
                                       frame_lines)

    hosted = parse_model_specs(args.model)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    print(f"PORT {listener.getsockname()[1]}", flush=True)
    conn, _peer = listener.accept()
    listener.close()
    transport = SocketTransport(conn, send_direction="to_router")
    server = ModelServer(workers=args.workers, max_batch=args.batch,
                         max_wait_ms=args.max_wait_ms,
                         cache_mb=args.cache_mb or None,
                         cache_ttl_s=args.cache_ttl_s,
                         session_mb=args.session_mb,
                         session_ttl_s=args.session_ttl_s)
    try:
        for name, path in hosted:
            versioned = f"{name}@v{args.generation}"
            server.load(versioned, path, backend=args.backend,
                        batch=args.batch)
            server.alias(name, versioned)
        served = serve_protocol(server, frame_lines(transport),
                                FrameWriter(transport))
        print(f"worker served {served} request(s)", file=sys.stderr)
    finally:
        server.close()
        transport.close()
    return 0


def cmd_cache(args) -> int:
    """Exercise the response cache with Zipf-ish repeated synthetic
    traffic and print per-model hit rate plus the byte budget."""
    from repro.serve.server import ModelServer

    hosted = parse_model_specs(args.model)
    server = ModelServer(workers=0, max_batch=args.batch,
                         max_wait_ms=0.0, cache_mb=args.cache_mb,
                         cache_ttl_s=args.cache_ttl_s)
    try:
        for name, path in hosted:
            server.load(name, path, backend=args.backend,
                        batch=args.batch)
        rng = np.random.default_rng(args.seed)
        for name, _ in hosted:
            distinct = synthetic_payloads(server.plan(name),
                                          args.distinct, seed=args.seed)
            sent = 0
            while sent < args.requests:
                wave = min(args.batch, args.requests - sent)
                for _ in range(wave):
                    payload = distinct[int(rng.integers(len(distinct)))]
                    server.submit(name, payload)
                server.drain()      # repeats in later waves hit the cache
                sent += wave
        snapshot = server.cache_stats()
        store = snapshot["cache"]
        print(f"cache budget: {store['bytes']}/{store['max_bytes']} bytes "
              f"({store['entries']} entries, {store['evictions']} evicted)")
        width = max(len(name) for name in snapshot["models"])
        for name, detail in snapshot["models"].items():
            print(f"{name:<{width}}  hit rate {detail['hit_rate']:.2f}  "
                  f"({detail['hits']} hits + {detail['coalesced']} "
                  f"coalesced, {detail['bytes']} bytes cached)")
    finally:
        server.close()
    return 0


def cmd_stream(args) -> int:
    """Stream concurrent sessions in mismatched chunk sizes and verify
    every one is bit-identical to its offline full-sequence run."""
    from repro.serve.server import ModelServer

    server = ModelServer(workers=0, max_batch=args.batch, max_wait_ms=0.0)
    try:
        server.load("model", args.artifact, backend=args.backend)
        plan = server.plan("model")
        if not plan.streamable:
            print("error: artifact has no recurrent layers; streaming "
                  "sessions need an RNN plan", file=sys.stderr)
            return 1
        timesteps = plan.input_shape[0]
        sequences = synthetic_payloads(plan, args.sessions, seed=args.seed)
        offline = [plan.stream_outputs(plan.forward(seq[None]), 1)[0]
                   for seq in sequences]
        sids = [server.open_session("model")
                for _ in range(args.sessions)]
        # Session i streams in chunks of i+1 timesteps (ragged tail), so
        # every chunking from 1..sessions is exercised, interleaved.
        futures = [[] for _ in sids]
        cursors = [0] * len(sids)
        sizes = [(index % timesteps) + 1 for index in range(len(sids))]
        while any(cursor < timesteps for cursor in cursors):
            for index, sid in enumerate(sids):
                if cursors[index] >= timesteps:
                    continue
                size = min(sizes[index], timesteps - cursors[index])
                chunk = sequences[index][
                    cursors[index]:cursors[index] + size]
                futures[index].append(
                    server.submit_stream("model", sid, chunk))
                cursors[index] += size
        server.drain()
        matches = 0
        for index, sid in enumerate(sids):
            results = [future.result(timeout=30.0)
                       for future in futures[index]]
            # Per-step decoders reassemble the full output from the
            # chunks; running-output heads (take-last classifiers) emit
            # the prediction-so-far per chunk, so only the final chunk
            # matches the offline run.
            streamed = (np.concatenate(results, axis=0)
                        if plan.per_step_output else results[-1])
            ok = np.array_equal(streamed, offline[index])
            matches += ok
            chunks = server.close_session("model", sid)
            print(f"session {sid} (chunk size {sizes[index]}, "
                  f"{chunks} chunks): "
                  + ("IDENTICAL (np.array_equal)" if ok else "MISMATCH"))
        stats = server.stats()["model"]
        print(f"streamed {args.sessions} session(s) x {timesteps} "
              f"timesteps through backend {args.backend!r} "
              f"({stats.stream_chunks} chunks served)")
        return 0 if matches == args.sessions else 1
    finally:
        server.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Export, inspect and serve quantized-model artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser("export",
                            help="quantize a zoo model and write an artifact")
    export.add_argument("--model", default="resnet_tiny",
                        choices=sorted(MODEL_ZOO))
    export.add_argument("--out", required=True, help="output .npz path")
    export.add_argument("--bits", type=int, default=4)
    export.add_argument("--ratio", default="2:1",
                        help="SP2:fixed row ratio (FPGA characterization)")
    export.add_argument("--calibration-batches", type=int, default=2)
    export.add_argument("--seed", type=int, default=0)
    export.set_defaults(func=cmd_export)

    from repro.serve.backends import DEFAULT_BACKEND, list_backends

    backends = sub.add_parser(
        "backends",
        help="list kernel backends with availability and the codegen "
             "kernel cache")
    backends.add_argument("--clear-cache", action="store_true",
                          help="delete all compiled kernel libraries from "
                               "the codegen cache")
    backends.set_defaults(func=cmd_backends)

    info = sub.add_parser("info", help="describe an artifact")
    info.add_argument("artifact")
    info.add_argument("--backend", default=DEFAULT_BACKEND,
                      choices=list_backends(),
                      help="kernel backend to compile with")
    info.set_defaults(func=cmd_info)

    run = sub.add_parser("run",
                         help="serve synthetic requests from an artifact")
    run.add_argument("artifact")
    run.add_argument("--requests", type=int, default=64)
    run.add_argument("--batch", type=int, default=16)
    run.add_argument("--backend", default=DEFAULT_BACKEND,
                     choices=list_backends(),
                     help="kernel backend (optimized backends are verified "
                          "bit-identical at compile time)")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(func=cmd_run)

    pipeline = sub.add_parser(
        "pipeline",
        help="partition an artifact across pipeline stages and serve "
             "synthetic requests, verifying bit-exactness against the "
             "single-device plan")
    pipeline.add_argument("artifact")
    pipeline.add_argument("--stages", type=int, default=2,
                          help="pipeline stages to MAC-balance "
                               "(ignored when --cuts is given)")
    pipeline.add_argument("--cuts", default=None,
                          help="comma-separated IR op indices to cut "
                               "after (e.g. 3,7); default: balanced")
    pipeline.add_argument("--requests", type=int, default=64)
    pipeline.add_argument("--batch", type=int, default=16,
                          help="micro-batch size through the stages")
    pipeline.add_argument("--backend", default=DEFAULT_BACKEND,
                          choices=list_backends())
    pipeline.add_argument("--process", action="store_true",
                          help="one worker subprocess per stage, "
                               "activations over the framed transport "
                               "(default: in-process engine)")
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.set_defaults(func=cmd_pipeline)

    up = sub.add_parser(
        "up", help="start a live multi-model server "
                   "(JSON-lines requests on stdin)")
    up.add_argument("--model", action="append", required=True,
                    metavar="NAME=PATH",
                    help="host an artifact under NAME (repeatable)")
    up.add_argument("--batch", type=int, default=16,
                    help="max dynamic batch size per model")
    up.add_argument("--max-wait-ms", type=float, default=2.0,
                    help="deadline a partial batch waits for co-riders")
    up.add_argument("--backend", default=DEFAULT_BACKEND,
                    choices=list_backends())
    up.add_argument("--workers", type=int, default=2,
                    help="background worker threads (0 = serve at EOF)")
    up.add_argument("--warmup", action="store_true",
                    help="bind scratch + verify batch sizes before serving")
    _add_cache_flags(up)
    up.set_defaults(func=cmd_up)

    from repro.serve.placement import list_placements

    cluster = sub.add_parser(
        "cluster", help="route over N worker subprocesses "
                        "(JSON-lines requests on stdin)")
    cluster.add_argument("--model", action="append", required=True,
                         metavar="NAME=PATH",
                         help="host an artifact on every worker "
                              "(repeatable)")
    cluster.add_argument("--workers", type=int, default=2,
                         help="worker processes")
    cluster.add_argument("--placement", default="least_loaded",
                         choices=sorted(list_placements()),
                         help="request placement policy")
    cluster.add_argument("--batch", type=int, default=16)
    cluster.add_argument("--max-wait-ms", type=float, default=2.0)
    cluster.add_argument("--backend", default=DEFAULT_BACKEND,
                         choices=list_backends())
    cluster.add_argument("--capacity", type=int, default=64,
                         help="per-worker in-flight cap; beyond it "
                              "requests are shed with a retryable error")
    cluster.add_argument("--worker-threads", type=int, default=2,
                         help="serving threads inside each worker process")
    _add_cache_flags(cluster)
    cluster.set_defaults(func=cmd_cluster)

    worker = sub.add_parser(
        "cluster-worker",
        help="internal: one cluster worker process (spawned by "
             "'cluster'; announces PORT <n> on stdout)")
    worker.add_argument("--model", action="append", required=True,
                        metavar="NAME=PATH")
    worker.add_argument("--batch", type=int, default=16)
    worker.add_argument("--max-wait-ms", type=float, default=2.0)
    worker.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=list_backends())
    worker.add_argument("--workers", type=int, default=2,
                        help="serving threads in this worker")
    worker.add_argument("--generation", type=int, default=1,
                        help="rollover generation (models load as "
                             "name@v<generation> + alias)")
    worker.add_argument("--cache-mb", type=float, default=0,
                        help="response-cache byte budget in MB "
                             "(0 = caching off)")
    worker.add_argument("--cache-ttl-s", type=float, default=None,
                        help="response-cache entry TTL in seconds")
    worker.add_argument("--session-mb", type=float, default=None,
                        help="streaming-session state byte budget in MB")
    worker.add_argument("--session-ttl-s", type=float, default=None,
                        help="idle-session TTL in seconds")
    worker.set_defaults(func=cmd_cluster_worker)

    stream = sub.add_parser(
        "stream",
        help="stream sessions through an RNN artifact in mismatched "
             "chunk sizes and verify bit-exactness against the offline "
             "full-sequence run")
    stream.add_argument("artifact")
    stream.add_argument("--sessions", type=int, default=4,
                        help="concurrent streaming sessions")
    stream.add_argument("--batch", type=int, default=16,
                        help="max cross-session stream micro-batch")
    stream.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=list_backends())
    stream.add_argument("--seed", type=int, default=0)
    stream.set_defaults(func=cmd_stream)

    cache = sub.add_parser(
        "cache",
        help="drive repeated synthetic traffic through the response "
             "cache; print per-model hit rate and the byte budget")
    cache.add_argument("--model", action="append", required=True,
                       metavar="NAME=PATH",
                       help="host an artifact under NAME (repeatable)")
    cache.add_argument("--requests", type=int, default=256,
                       help="synthetic requests per model")
    cache.add_argument("--distinct", type=int, default=16,
                       help="distinct payloads the requests draw from")
    cache.add_argument("--batch", type=int, default=16)
    cache.add_argument("--backend", default=DEFAULT_BACKEND,
                       choices=list_backends())
    cache.add_argument("--cache-mb", type=float, default=64,
                       help="response-cache byte budget in MB")
    cache.add_argument("--cache-ttl-s", type=float, default=None,
                       help="response-cache entry TTL in seconds")
    cache.add_argument("--seed", type=int, default=0)
    cache.set_defaults(func=cmd_cache)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
