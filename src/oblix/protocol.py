"""Wire format, transports, and the split-generation client/server.

Frame layout (all integers little-endian):

    magic "OBL1" | type u8 | version u8 | payload length u32 | payload

Request payload, fields in declared order:

    u32 candidate count (at most MAX_CANDIDATES), then per candidate
        u32 byte length + UTF-8
    u64 shared seed for the initial latent
    gate fields, the AccelConfig: u32 cloud step count (switch point) |
        u32 cache point | u32 skip point | u8 reuse (0 or 1) | u32 refresh |
        u32 pivot
    the NoiseSchedule: u32 steps (at most MAX_SCHEDULE_STEPS) |
        f32 beta start | f32 beta end | u8 spacing
    u32 model id length + UTF-8

Response payload:

    u32 step reached (schedule index of the returned latents)
    u32 batch | u32 channels | u32 res (none of them 0)
    batch*channels*res*res values as binary16
    u64 server FLOPs total
    u32 step count, then per step u32 index | u64 flops | u8 gate flags
        (bit 0 recompute, bit 1 skip, bit 2 reuse; no other bit set)

A request that cannot be served cannot be made: `GenerateRequest` checks
every fact that depends on the request alone.  Decode checks only what
guards reading and reports a refused build as ProtocolError; the server
refuses only an unknown model id and latents that leave binary16.

The request never carries anything derived from the real candidate index;
that is the content of the transcript-equality checks in `oblix.security`.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import denoiser as denoiser_mod
from .accel import AccelConfig, check_run, run_plan
from .denoiser import ModelWeights, decode_latent, embed_prompt, run_denoise_steps
from .errors import ConfigError, InputError, ProtocolError, RangeError
from .oblivious import (
    AttributeLexicon,
    CandidateSet,
    detect_attributes,
    expand_candidates,
    extract_latent,
)
from .schedule import MAX_SCHEDULE_STEPS, SPACINGS, NoiseSchedule, \
    StepIndexMap, map_timestep
from .tensor import (
    FlopsCounter,
    Rng,
    StepCost,
    decode_f16,
    encode_f16,
    fp16_roundtrip,
    use_flops_counter,
)

log = logging.getLogger("oblix.protocol")

MAGIC = b"OBL1"
PROTOCOL_VERSION = 1
TYPE_REQUEST = 1
TYPE_RESPONSE = 2
_HEADER = struct.Struct("<4sBBI")
_GATES = struct.Struct("<IIIBII")
# the u32 gate fields; AccelConfig already refuses a negative one
_U32_GATES = ("switch_point", "cache_point", "skip_point", "refresh_period",
              "pivot_index")
_REUSE_OFFSET = struct.calcsize("<III")  # of the reuse byte in the gates
# payload bytes a frame may carry; far above any real frame (an N=30
# response of the default toy model is about 61 KB), far below the 4 GiB
# a u32 length field could make a reader allocate
MAX_FRAME_BYTES = 16 * 2**20
# once a frame's first byte reaches the daemon, the rest of the frame must
# follow within this many seconds, so a peer that stops mid-frame cannot
# hold a handler thread; the wait for a first byte is unbounded, since a
# client keeps its connection open between sessions
FRAME_READ_TIMEOUT_S = 30.0
# the peer chooses the u32 candidate count and the server allocates per
# candidate, so no request holds more, and decode refuses a larger count
# before reading per candidate: 8.5x the largest candidate class of 30 (an
# N=256 response of the default model is 0.5 MB)
MAX_CANDIDATES = 256
# row-steps (candidates x cloud steps) one request may ask the server for:
# bulk traffic runs 30 x 25 = 750, interactive at most 30 x 10 = 300, and
# N=30 over a 50-step schedule 1,500; the cap is 8 forwards of the largest
# class, about 3.4 s at 0.42 s per N=256 forward, not 256 x 1000 (7 min)
MAX_ROW_STEPS = 2048
# a run of at least this many candidates splits into two row shards, the
# second on the idle core when there is one: one BLAS thread, default
# model, two shards ran 1.29x (k=10 gated) and 1.69x (ungated) as fast as
# one at N=16, 1.46x and 1.53x at N=30, and only 0.94-1.05x gated at N=6-8
SHARD_ROWS = 16


@dataclass(frozen=True)
class GenerateRequest:
    """A request that any server holding ``model_id`` can serve."""

    candidates: tuple[str, ...]
    seed: int
    accel: AccelConfig         # accel.switch_point is the cloud step count
    schedule: NoiseSchedule
    model_id: str

    def __post_init__(self):
        n = len(self.candidates)
        if not 1 <= n <= MAX_CANDIDATES:
            raise ConfigError(f"{n} candidates, need 1 to {MAX_CANDIDATES}")
        if any(not p.strip() for p in self.candidates):
            raise InputError("a candidate prompt is blank")
        check_run(self.accel, self.schedule.steps, n)
        if n * self.accel.switch_point > MAX_ROW_STEPS:
            raise ConfigError(f"{n} candidates x {self.accel.switch_point} "
                              f"cloud steps exceed {MAX_ROW_STEPS} row-steps")
        # integer compares, not a trial pack: attest makes many requests
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed {self.seed} does not fit the wire's "
                              "64 bits")
        for name in _U32_GATES:
            if getattr(self.accel, name) >= 1 << 32:
                raise ConfigError(f"{name} {getattr(self.accel, name)} does "
                                  "not fit the wire's 32 bits")


@dataclass(frozen=True)
class GenerateResponse:
    step_reached: int
    latents: np.ndarray        # already binary16-quantized values
    flops_total: int
    step_costs: tuple[StepCost, ...]


@dataclass(frozen=True)
class ChannelModel:
    bandwidth_bps: float = 18.88e6
    rtt_s: float = 0.0

    def __post_init__(self):
        # written so that NaN fails both comparisons
        if not 0 < self.bandwidth_bps < math.inf:
            raise ConfigError(f"bandwidth_bps must be finite and positive, "
                              f"got {self.bandwidth_bps}")
        if not 0 <= self.rtt_s < math.inf:
            raise ConfigError(f"rtt_s must be finite and >= 0, got {self.rtt_s}")


def simulate_transfer(bytes_count: int, ch: ChannelModel) -> float:
    """Modeled seconds to move ``bytes_count`` over the channel."""
    if bytes_count < 0:
        raise ConfigError("byte count must be >= 0")
    return ch.rtt_s + bytes_count * 8.0 / ch.bandwidth_bps


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def encode_frame(msg: GenerateRequest | GenerateResponse) -> bytes:
    if isinstance(msg, GenerateRequest):
        body = bytearray()
        body += struct.pack("<I", len(msg.candidates))
        for prompt in msg.candidates:
            body += _pack_str(prompt)
        a = msg.accel
        body += struct.pack("<Q", msg.seed) + _GATES.pack(
            a.switch_point, a.cache_point, a.skip_point, 1 if a.reuse else 0,
            a.refresh_period, a.pivot_index)
        body += struct.pack("<IffB", msg.schedule.steps,
                            msg.schedule.beta_start, msg.schedule.beta_end,
                            SPACINGS.index(msg.schedule.spacing))
        body += _pack_str(msg.model_id)
        frame_type = TYPE_REQUEST
    elif isinstance(msg, GenerateResponse):
        shape = msg.latents.shape
        if len(shape) != 4 or shape[2] != shape[3]:  # a frame has one res
            raise ProtocolError(f"latent batch {shape} is not (N, C, res, res)")
        if 0 in shape:
            raise ProtocolError(f"latent batch {shape} has a zero extent")
        body = bytearray()
        body += struct.pack("<IIII", msg.step_reached, shape[0], shape[1], shape[2])
        body += encode_f16(msg.latents)
        body += struct.pack("<Q", msg.flops_total)
        body += struct.pack("<I", len(msg.step_costs))
        for sc in msg.step_costs:
            flags = (1 if sc.recompute else 0) | (2 if sc.skip else 0) \
                | (4 if sc.reuse else 0)
            body += struct.pack("<IQB", sc.index, sc.flops, flags)
        frame_type = TYPE_RESPONSE
    else:
        raise ProtocolError(f"cannot frame object of type {type(msg).__name__}")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"payload of {len(body)} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte cap")
    return _HEADER.pack(MAGIC, frame_type, PROTOCOL_VERSION, len(body)) \
        + bytes(body)


class _Reader:
    def __init__(self, raw: bytes, offset: int):
        self.raw = raw
        self.off = offset

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.off + size > len(self.raw):
            raise ProtocolError(
                f"truncated payload: need {size} bytes at offset {self.off}, "
                f"have {len(self.raw) - self.off}", offset=self.off)
        vals = struct.unpack_from(fmt, self.raw, self.off)
        self.off += size
        return vals

    def take_str(self) -> str:
        (n,) = self.take("<I")
        if self.off + n > len(self.raw):
            raise ProtocolError(
                f"truncated string: need {n} bytes at offset {self.off}, "
                f"have {len(self.raw) - self.off}", offset=self.off)
        try:
            s = self.raw[self.off:self.off + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}",
                                offset=self.off) from None
        self.off += n
        return s


def decode_frame(raw: bytes) -> GenerateRequest | GenerateResponse:
    if len(raw) < _HEADER.size:
        raise ProtocolError(
            f"frame of {len(raw)} bytes is shorter than the {_HEADER.size}-byte "
            "header", offset=0)
    magic, frame_type, version, length = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}", offset=0)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}", offset=5)
    if len(raw) != _HEADER.size + length:
        raise ProtocolError(
            f"frame length mismatch: header says {length} payload bytes, "
            f"got {len(raw) - _HEADER.size}", offset=6)
    r = _Reader(raw, _HEADER.size)

    if frame_type == TYPE_REQUEST:
        (count,) = r.take("<I")
        if count > MAX_CANDIDATES:
            raise ProtocolError(f"{count} candidates exceed the cap of "
                                f"{MAX_CANDIDATES}", offset=r.off - 4)
        candidates = tuple(r.take_str() for _ in range(count))
        (seed,) = r.take("<Q")
        gates_at = r.off
        k, cache_point, skip_point, reuse, refresh, pivot = r.take(
            _GATES.format)
        if reuse > 1:  # one encoding per request: only 0 and 1 are booleans
            raise ProtocolError(f"reuse byte is {reuse}, not 0 or 1",
                                offset=gates_at + _REUSE_OFFSET)
        steps, beta_start, beta_end, spacing_idx = r.take("<IffB")
        if steps > MAX_SCHEDULE_STEPS:
            raise ProtocolError(f"{steps} schedule steps exceed the cap of "
                                f"{MAX_SCHEDULE_STEPS}", offset=r.off - 13)
        if spacing_idx >= len(SPACINGS):
            raise ProtocolError(f"unknown spacing code {spacing_idx}",
                                offset=r.off - 1)
        try:  # a refusal the gate fields take part in is reported at them
            accel = AccelConfig(k, cache_point, skip_point, bool(reuse),
                                refresh, pivot)
            check_run(accel, steps, count)
        except ConfigError as exc:
            raise ProtocolError(f"invalid gate fields: {exc}",
                                offset=gates_at) from None
        model_id = r.take_str()
        _expect_end(r)
        try:
            return GenerateRequest(candidates, seed, accel, NoiseSchedule(
                steps, beta_start, beta_end, SPACINGS[spacing_idx]), model_id)
        except (ConfigError, InputError) as exc:
            raise ProtocolError(f"invalid request: {exc}",
                                offset=_HEADER.size) from None
    if frame_type == TYPE_RESPONSE:
        step_reached, *extents = r.take("<IIII")
        # with one extent 0 the block is empty whatever the others say, so
        # the length check below could not bound them
        for i, name in enumerate(("batch", "channels", "res")):
            if extents[i] == 0:
                raise ProtocolError(f"response latent {name} is 0",
                                    offset=r.off - 12 + 4 * i)
        batch, channels, res = extents
        n_vals = batch * channels * res * res
        if r.off + 2 * n_vals > len(raw):
            raise ProtocolError(
                f"truncated latent block: need {2 * n_vals} bytes at offset "
                f"{r.off}, have {len(raw) - r.off}", offset=r.off)
        try:
            latents = decode_f16(raw[r.off:r.off + 2 * n_vals],
                                 (batch, channels, res, res))
        except RangeError:
            raise ProtocolError("latent payload holds non-finite values",
                                offset=r.off) from None
        r.off += 2 * n_vals
        (flops_total,) = r.take("<Q")
        (n_steps,) = r.take("<I")
        costs = []
        for _ in range(n_steps):
            index, flops, flags = r.take("<IQB")
            if flags > 0b111:
                raise ProtocolError(f"step flags {flags:#04x} set unknown bits",
                                    offset=r.off - 1)
            costs.append(StepCost(index, flops, bool(flags & 1),
                                  bool(flags & 2), bool(flags & 4)))
        _expect_end(r)
        return GenerateResponse(step_reached, latents, flops_total,
                                tuple(costs))
    raise ProtocolError(f"unknown frame type {frame_type}", offset=4)


def _expect_end(r: _Reader) -> None:
    if r.off != len(r.raw):
        raise ProtocolError(
            f"{len(r.raw) - r.off} trailing bytes after payload", offset=r.off)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class Server:
    """Stateless request handler; all per-request state lives on the stack."""

    def __init__(self, weights: dict[str, ModelWeights]):
        self.weights = dict(weights)

    def handle_request(self, req: GenerateRequest) -> GenerateResponse:
        """Denoise the first ``accel.switch_point`` steps of each candidate.

        Every request can run, so only what needs the server is refused: an
        unknown model id before compute, latents beyond binary16 at hand-off.
        A run of ``SHARD_ROWS`` candidates or more runs as two row shards
        (`oblix.denoiser.run_denoise_steps`), with the bits and the counts
        of one.
        """
        if req.model_id not in self.weights:
            raise ProtocolError(f"unknown model id {req.model_id!r}")
        w = self.weights[req.model_id]
        cfg = w.cfg
        k = req.accel.switch_point
        texts = [embed_prompt(p, cfg) for p in req.candidates]

        base = Rng(req.seed).gaussian((cfg.channels, cfg.res, cfg.res))
        latents = np.stack([base] * len(req.candidates))

        counter = FlopsCounter()
        if k > 0:
            shards = 2 if len(texts) >= SHARD_ROWS else 1
            with use_flops_counter(counter):
                latents = run_denoise_steps(latents, texts, req.schedule,
                                            w, 1, k, req.accel, shards=shards)
        try:
            latents = fp16_roundtrip(latents)
        except RangeError as exc:
            raise ProtocolError(f"latents cannot be handed off: {exc}") from None
        return GenerateResponse(
            step_reached=req.schedule.steps - k,
            latents=latents,
            flops_total=counter.total,
            step_costs=tuple(counter.steps),
        )

    def handle_frame(self, raw: bytes) -> bytes:
        """The response frame to a request frame.  Decode, `handle_request`
        and encode run as one task on one thread of the process's compute
        pool (`oblix.denoiser.HELPERS`), and the caller waits for its result
        or its exception, so every transport computes on the same threads.
        """
        return denoiser_mod.HELPERS.run(self._serve_frame, raw)

    def _serve_frame(self, raw: bytes) -> bytes:
        msg = decode_frame(raw)
        if not isinstance(msg, GenerateRequest):
            raise ProtocolError("server accepts request frames only", offset=4)
        return encode_frame(self.handle_request(msg))


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class SimulatedTransport:
    """In-process request/response against a Server instance."""

    def __init__(self, server: Server):
        self.server = server

    def roundtrip(self, request: bytes) -> bytes:
        return self.server.handle_frame(request)

    def close(self) -> None:
        pass


class SocketTransport:
    """One frame per request over a stream socket, connection reused."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        return self._sock

    def roundtrip(self, request: bytes) -> bytes:
        """One request frame out, one frame back.

        Any failure leaves the connection in an unknown state (the daemon
        closes it on every refusal), so it is dropped and the next call
        reconnects.
        """
        try:
            sock = self._connect()
            sock.sendall(request)
            return read_frame(sock)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def read_frame(sock: socket.socket, prefix: bytes = b"",
               deadline: float | None = None) -> bytes:
    """One frame whose first bytes ``prefix`` were read already.

    With a ``deadline`` (a `time.monotonic` value) a frame that is not
    complete by then raises TimeoutError.
    """
    header = prefix + _recv_exact(sock, _HEADER.size - len(prefix), deadline)
    magic, _, _, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}", offset=0)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame announces {length} payload bytes, above the "
            f"{MAX_FRAME_BYTES}-byte cap", offset=6)
    return header + _recv_exact(sock, length, deadline)


def _recv_exact(sock: socket.socket, n: int,
                deadline: float | None = None) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"timed out after {got} of {n} bytes")
            sock.settimeout(left)
        k = sock.recv_into(view[got:])
        if not k:
            raise ProtocolError(f"connection closed after {got} of {n} bytes")
        got += k
    return bytes(buf)


class _DaemonHandler(socketserver.BaseRequestHandler):
    """One connection's thread, which only reads frames and sends replies:
    each reply is made on the compute pool (`Server.handle_frame`)."""

    def handle(self):
        while True:
            try:
                first = self.request.recv(1)
            except OSError:
                return
            if not first:
                return  # client closed the connection between frames
            try:
                frame = read_frame(self.request, prefix=first,
                                   deadline=time.monotonic()
                                   + FRAME_READ_TIMEOUT_S)
            except ProtocolError as exc:
                log.warning("dropping connection: %s", exc)
                return
            except TimeoutError:
                log.warning("dropping connection: frame not complete within "
                            "%s s of its first byte", FRAME_READ_TIMEOUT_S)
                return
            except OSError:
                return
            self.request.settimeout(None)  # the reply and the idle wait
            try:
                reply = self.server.oblix_server.handle_frame(frame)
            except ProtocolError as exc:
                log.warning("malformed frame: %s", exc)
                return
            except Exception as exc:  # one log line, never a thread traceback
                log.error("request failed, dropping connection: %s: %s",
                          type(exc).__name__, exc)
                return
            try:
                self.request.sendall(reply)
            except OSError as exc:  # the peer left before its reply
                log.warning("reply not sent: %s", exc)
                return


class Daemon(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], server: Server):
        super().__init__(address, _DaemonHandler)
        self.oblix_server = server

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    model_id: str = "toy"
    seed: int = 0
    accel: AccelConfig = field(default_factory=AccelConfig)
    cloud_schedule: NoiseSchedule = field(default_factory=NoiseSchedule)
    device_steps: int | None = None          # defaults to the cloud step count
    dt_shift: int = 0
    channel: ChannelModel = field(default_factory=ChannelModel)
    _device: NoiseSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cs, steps = self.cloud_schedule, self.device_steps
        check_run(self.accel, cs.steps)
        if steps is not None and steps < 1:
            raise ConfigError(f"device_steps must be >= 1, got {steps}")
        object.__setattr__(self, "_device", cs if steps in (None, cs.steps)
                           else replace(cs, steps=steps))

    def device_schedule(self) -> NoiseSchedule:
        return self._device


@dataclass
class SessionResult:
    """One client session: its output, its wire bytes, both FLOPs ledgers."""

    image: np.ndarray
    candidates: CandidateSet
    final_latent: np.ndarray
    boundary_latent: np.ndarray | None
    request: GenerateRequest | None
    response: GenerateResponse | None
    device_counter: FlopsCounter
    transcript: list[tuple[str, bytes]]
    notes: list[str]
    modeled_transfer_s: float

    @property
    def bytes_sent(self) -> int:
        return sum(len(b) for d, b in self.transcript if d == "sent")

    @property
    def bytes_received(self) -> int:
        return sum(len(b) for d, b in self.transcript if d == "received")

    @property
    def server_flops(self) -> int:
        return self.response.flops_total if self.response else 0

    @property
    def server_steps(self) -> tuple[StepCost, ...]:
        return self.response.step_costs if self.response else ()

    def _series(self):
        return (("server", self.server_steps),
                ("device", self.device_counter.steps))

    def report_lines(self) -> list[str]:
        """The JSON-lines cost report: a summary, then one line per step."""
        head = {
            "server_flops": self.server_flops,
            "device_flops": self.device_counter.total,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "modeled_transfer_s": round(self.modeled_transfer_s, 6),
            "notes": self.notes,
        }
        lines = [json.dumps({"record": "summary", **head}, sort_keys=True)]
        for side, series in self._series():
            for sc in series:
                lines.append(json.dumps({
                    "record": "step", "side": side, "step": sc.index,
                    "flops": sc.flops, "recompute": sc.recompute,
                    "skip": sc.skip, "reuse": sc.reuse,
                }, sort_keys=True))
        return lines

    def summary_table(self) -> str:
        """Per-step FLOPs and gate flags (C cached, S skipped, R reused)."""
        rows = [f"{'side':<8}{'step':>6}{'flops':>14}  gates"]
        for side, series in self._series():
            for sc in series:
                gates = "".join([
                    "C" if not sc.recompute else "-",
                    "S" if sc.skip else "-",
                    "R" if sc.reuse else "-",
                ])
                rows.append(f"{side:<8}{sc.index:>6}{sc.flops:>14}  {gates}")
        rows.append(f"{'total':<8}{'':>6}"
                    f"{self.server_flops + self.device_counter.total:>14}")
        return "\n".join(rows)


def build_request(prompt: str, cfg: SessionConfig, lex: AttributeLexicon,
                  order_real_first: bool = False) -> tuple[GenerateRequest, CandidateSet]:
    """Oblivious transform plus request assembly.

    ``order_real_first`` is a deliberately broken debug mode that leaks the
    real index through the candidate order; the security suite uses it as
    its negative control.
    """
    detections = detect_attributes(prompt, lex)
    cset = expand_candidates(prompt, detections, lex)
    if order_real_first:
        reordered = (cset.real_prompt,) + tuple(
            p for i, p in enumerate(cset.prompts) if i != cset.real_index)
        cset = CandidateSet(reordered, 0)
    req = GenerateRequest(cset.prompts, cfg.seed, cfg.accel,
                          cfg.cloud_schedule, cfg.model_id)
    return req, cset


def run_device_steps(latent: np.ndarray, prompt: str, sched: NoiseSchedule,
                     w: ModelWeights, first_iter: int,
                     counter: FlopsCounter) -> np.ndarray:
    """Finish denoising one latent on the device, no accelerations."""
    if first_iter > sched.steps:
        return latent
    text = embed_prompt(prompt, w.cfg)
    batch = latent.reshape((1,) + latent.shape)
    with use_flops_counter(counter):
        out = run_denoise_steps(batch, [text], sched, w, first_iter,
                                sched.steps, accel=None)
    return out[0]


def client_run_session(prompt: str, cfg: SessionConfig, transport,
                       device_weights: ModelWeights,
                       lex: AttributeLexicon) -> SessionResult:
    """Full oblivious hybrid generation from the client's point of view.

    With a zero switch point there is nothing to hand off, so the device
    starts from the seed's noise and the transport is never touched.
    """
    notes: list[str] = []
    transcript: list[tuple[str, bytes]] = []
    dev_sched = cfg.device_schedule()
    k = cfg.accel.switch_point
    dcfg = device_weights.cfg
    req = resp = boundary = None
    modeled = 0.0

    if k == 0:
        cset = expand_candidates(prompt, detect_attributes(prompt, lex), lex)
        notes.append("device-only: switch point 0, no cloud hand-off")
        start = Rng(cfg.seed).gaussian((dcfg.channels, dcfg.res, dcfg.res))
        resume_after = 0
    else:
        req, cset = build_request(prompt, cfg, lex)
        req_bytes = encode_frame(req)
        transcript.append(("sent", req_bytes))
        try:
            resp_bytes = transport.roundtrip(req_bytes)
        except OSError as exc:
            # the server is stateless, so the caller may simply retry
            raise ProtocolError(f"transport failure: {exc}") from exc
        transcript.append(("received", resp_bytes))
        modeled = simulate_transfer(len(req_bytes) + len(resp_bytes),
                                    cfg.channel)
        resp = decode_frame(resp_bytes)
        if not isinstance(resp, GenerateResponse):
            raise ProtocolError("expected a response frame")
        if resp.latents.shape[0] != cset.size:
            raise ProtocolError(
                f"response carries {resp.latents.shape[0]} rows for "
                f"{cset.size} candidates")
        if resp.latents.shape[1:] != (dcfg.channels, dcfg.res, dcfg.res):
            raise ProtocolError(
                f"response latent geometry {resp.latents.shape[1:]} does not "
                f"match the device model")
        expected_step = cfg.cloud_schedule.steps - k
        if resp.step_reached != expected_step:
            raise ProtocolError(
                f"server stopped at schedule index {resp.step_reached}, "
                f"expected {expected_step}")
        step_sum = sum(sc.flops for sc in resp.step_costs)
        if resp.flops_total != step_sum:
            raise ProtocolError(
                f"server FLOPs total {resp.flops_total} differs from the "
                f"sum of its steps {step_sum}")
        steps = [(sc.index, sc.recompute, sc.skip, sc.reuse)
                 for sc in resp.step_costs]
        plan = run_plan(cfg.accel, 1, k, cset.size)
        if steps != [(t, *p.gates) for t, p in plan.items()]:
            raise ProtocolError(f"response steps and gates differ from the "
                                f"request's run of steps 1 to {k}")

        start = boundary = extract_latent(resp.latents, cset)
        index_map = StepIndexMap(cfg.cloud_schedule.steps, dev_sched.steps,
                                 cfg.dt_shift)
        resume_after, clamped = map_timestep(k, index_map)
        if clamped:
            notes.append(
                f"timestep shift clamped: cloud step {k} mapped to device "
                f"step {resume_after}")

    device_counter = FlopsCounter()
    final = run_device_steps(start, cset.real_prompt, dev_sched,
                             device_weights, resume_after + 1, device_counter)
    image = decode_latent(final, device_weights)
    return SessionResult(image, cset, final, boundary, req, resp,
                         device_counter, transcript, notes, modeled)
