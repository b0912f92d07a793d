"""In-memory span recorder that wraps oblix's public functions.

Only the traced run installs the wrappers: `patched()` replaces the
attributes on the modules and classes where each function is looked up and
puts the originals back on exit. A span is (id, parent id, name, op id,
start ns, end ns, FLOPs, bytes, count); the op id names the session or
check it belongs to, so server-side spans recorded on the daemon's
handler thread join the client session that caused them.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from contextlib import contextmanager

import oblix.accel
import oblix.denoiser
import oblix.protocol
import oblix.security
from oblix.protocol import GenerateRequest
from oblix.tensor import active_counter

_perf_ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
        return local

    @contextmanager
    def op(self, op_id: str):
        """Attribute every span opened on this thread to ``op_id``."""
        local = self._state()
        prev, local.op = local.op, op_id
        try:
            yield
        finally:
            local.op = prev

    def wrap(self, fn, after, before=None, op_of=None):
        """Return ``fn`` recording one span per call.

        ``before(args, kwargs)`` runs first and its value reaches
        ``after(args, kwargs, out, pre)``, which returns (name, FLOPs,
        bytes, count) and optionally an op id that holds on this thread
        until the enclosing ``op_of`` span ends. ``op_of(args)`` sets the
        op id for the call and restores the previous one afterwards.
        """
        ids, spans, state = self._ids, self.spans, self._state

        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            if op_of is not None:
                prev_op, local.op = local.op, op_of(args)
            pre = before(args, kwargs) if before is not None else None
            stack.append(sid)
            t0 = _perf_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _perf_ns()
                stack.pop()
                if op_of is not None:
                    op, local.op = local.op, prev_op
            label, flops, nbytes, count, *found = after(args, kwargs, out, pre)
            if found:
                local.op = found[0]
            if op_of is None:
                op = local.op
            spans.append((sid, parent, label, op, t0, t1, flops, nbytes, count))
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        fields = ("id", "parent", "name", "op", "start_ns", "end_ns", "flops",
                  "bytes", "count")
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(fields, span))) + "\n")


# -- what each wrapped function reports -------------------------------------


def _named(name):
    return lambda args, kwargs, out, pre: (name, 0, 0, 0)


def _matmul(args, kwargs, out, pre):
    (m, n), (_, p) = args[0].shape, args[1].shape
    return "tensor.matmul", 2 * m * n * p, 4 * (m * n + n * p + m * p), 1


def _expand(args, kwargs, out, pre):
    return "oblivious.expand_candidates", 0, 0, out.size


def _encode(args, kwargs, out, pre):
    side = "request" if isinstance(args[0], GenerateRequest) else "response"
    return f"protocol.encode_{side}", 0, len(out), 1


def _decode(args, kwargs, out, pre):
    # a decoded request names the session for the rest of its server frame
    if isinstance(out, GenerateRequest):
        return "protocol.decode_request", 0, len(args[0]), 1, f"s{out.seed}"
    return "protocol.decode_response", 0, len(args[0]), 1


def _counter_before(args, kwargs):
    c = active_counter()
    return c.total if c is not None else 0


def _denoise(args, kwargs, out, pre):
    # run_denoise_steps(latents, texts, sched, w, first, last, accel, trace)
    accel = args[6] if len(args) > 6 else kwargs.get("accel")
    side = "device" if accel is None else "server"
    c = active_counter()
    flops = (c.total if c is not None else 0) - pre
    row_steps = args[0].shape[0] * (args[5] - args[4] + 1)
    return f"denoiser.{side}_steps", flops, 0, row_steps


def _handle(args, kwargs, out, pre):
    return "protocol.handle_request", out.flops_total, 0, len(args[1].candidates)


def _check(args, kwargs, out, pre):
    return "security.check_indistinguishability", 0, 0, out.class_size


def _server_view(args, kwargs, out, pre):
    return "security.server_view", 0, len(out.sent_bytes()), 1


# (owner, attribute, span name, before, after, op_of)
_TARGETS = (
    (oblix.protocol, "detect_attributes", "oblivious.detect_attributes",
     None, None, None),
    (oblix.protocol, "expand_candidates", None, None, _expand, None),
    (oblix.protocol, "build_request", "protocol.build_request", None, None, None),
    (oblix.protocol, "encode_frame", None, None, _encode, None),
    (oblix.protocol, "decode_frame", None, None, _decode, None),
    (oblix.protocol, "embed_prompt", "denoiser.embed_prompt", None, None, None),
    (oblix.protocol, "decode_latent", "denoiser.decode_latent", None, None, None),
    (oblix.protocol, "run_denoise_steps", None, _counter_before, _denoise, None),
    (oblix.protocol, "fp16_roundtrip", "tensor.fp16_roundtrip", None, None, None),
    (oblix.protocol.Server, "handle_frame", "protocol.handle_frame",
     None, None, lambda args: None),
    (oblix.protocol.Server, "handle_request", None, None, _handle,
     lambda args: f"s{args[1].seed}"),
    (oblix.protocol.SocketTransport, "roundtrip", "protocol.roundtrip",
     None, None, None),
    (oblix.denoiser.ModelWeights, "fingerprint", "denoiser.fingerprint",
     None, None, None),
    (oblix.denoiser, "unet_forward", "denoiser.unet_forward", None, None, None),
    (oblix.denoiser, "matmul", None, None, _matmul, None),
    (oblix.denoiser, "ddim_step", "schedule.ddim_step", None, None, None),
    (oblix.accel, "matmul", None, None, _matmul, None),
    (oblix.protocol, "client_run_session", "protocol.client_run_session",
     None, None, None),
    (oblix.security, "check_indistinguishability", None, None, _check, None),
    (oblix.security, "detect_attributes", "oblivious.detect_attributes",
     None, None, None),
    (oblix.security, "expand_candidates", None, None, _expand, None),
    (oblix.security, "build_request", "protocol.build_request", None, None, None),
    (oblix.security, "encode_frame", None, None, _encode, None),
    (oblix.security, "server_view", None, None, _server_view, None),
)


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    originals = []
    try:
        for owner, attr, name, before, after, op_of in _TARGETS:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(
                fn, after or _named(name), before=before, op_of=op_of))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# -- aggregation -------------------------------------------------------------


def aggregate(spans: list[tuple], ops: set[str]) -> dict[str, dict]:
    """Per span name: calls, busy and self time (s), FLOPs, bytes, count.

    Self time is a span's duration minus the union of its children's
    intervals. Only spans attributed to one of ``ops`` count.
    """
    kept = [s for s in spans if s[3] in ops]
    children: dict[int, list[tuple[int, int]]] = {}
    for s in kept:
        children.setdefault(s[1], []).append((s[4], s[5]))
    agg: dict[str, dict] = {}
    for sid, _, name, _, t0, t1, flops, nbytes, count in kept:
        covered, cursor = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        row = agg.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "flops": 0, "bytes": 0, "count": 0})
        row["calls"] += 1
        row["busy_s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - covered) / 1e9
        row["flops"] += flops
        row["bytes"] += nbytes
        row["count"] += count
    return agg


def layer_table(agg: dict[str, dict], op_seconds: float) -> list[str]:
    """Human-readable per-layer table; share is busy time over op time."""
    lines = [f"{'span':<34}{'calls':>9}{'busy_s':>11}{'self_s':>11}"
             f"{'share':>8}{'GFLOP/s':>9}"]
    for name in sorted(agg, key=lambda n: -agg[n]["busy_s"]):
        row = agg[name]
        share = row["busy_s"] / op_seconds if op_seconds else 0.0
        gflops = row["flops"] / row["busy_s"] / 1e9 \
            if row["flops"] and row["busy_s"] else 0.0
        lines.append(f"{name:<34}{row['calls']:>9}{row['busy_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}{share:>8.3f}"
                     f"{gflops:>9.3f}")
    return lines
