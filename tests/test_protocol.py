import dataclasses
import math
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oblix.protocol
from oblix.accel import MAP_CHUNK_BYTES, AccelConfig, never
from oblix.denoiser import (
    ModelConfig,
    ModelWeights,
    ShardHelpers,
    embed_prompt,
    run_denoise_steps,
)
from oblix.errors import (
    ConfigError,
    InputError,
    InternalError,
    ProtocolError,
    ShapeError,
)
from oblix.oblivious import default_lexicon, detect_attributes, expand_candidates
from oblix.protocol import (
    ChannelModel,
    Daemon,
    GenerateRequest,
    GenerateResponse,
    MAGIC,
    MAX_CANDIDATES,
    MAX_FRAME_BYTES,
    MAX_ROW_STEPS,
    MAX_SCHEDULE_STEPS,
    Server,
    SessionConfig,
    SimulatedTransport,
    SocketTransport,
    build_request,
    client_run_session,
    decode_frame,
    encode_frame,
    read_frame,
    simulate_transfer,
)
from oblix.schedule import (
    DEFAULT_BETA_END,
    DEFAULT_BETA_START,
    DEFAULT_SPACING,
    SPACINGS,
    NoiseSchedule,
)
from oblix.security import check_indistinguishability
from oblix.tensor import (
    FlopsCounter,
    Rng,
    StepCost,
    fp16_roundtrip,
    use_flops_counter,
)

from bitwise import same_bits, spy_states

CFG = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
W = ModelWeights.build(CFG, 7)
# the default model, whose shapes the bulk benchmark runs at N=30
TOY_W = ModelWeights.build(ModelConfig(), 1001)
LEX = default_lexicon()


def _session(k=4, steps=8, seed=11, **accel_kw) -> SessionConfig:
    accel = AccelConfig(switch_point=k,
                        cache_point=accel_kw.pop("cache_point", never(steps)),
                        skip_point=accel_kw.pop("skip_point", never(steps)),
                        **accel_kw)
    return SessionConfig(model_id="toy", seed=seed, accel=accel,
                         cloud_schedule=NoiseSchedule(steps))


_GATE_DEFAULTS = dict(switch_point=3, cache_point=9, skip_point=9,
                      reuse=False, refresh_period=5, pivot_index=0)
_SCHEDULE_DEFAULTS = dict(steps=8, beta_start=DEFAULT_BETA_START,
                          beta_end=DEFAULT_BETA_END, spacing=DEFAULT_SPACING)
_OTHER_DEFAULTS = dict(candidates=("a prompt", "another prompt"), seed=7,
                       model_id="toy")


def _request(**kw) -> GenerateRequest:
    """A request; AccelConfig and NoiseSchedule field names set its gate
    and schedule fields, unless ``schedule`` is given whole."""
    gates = {f: kw.pop(f, v) for f, v in _GATE_DEFAULTS.items()}
    sched = {f: kw.pop(f, v) for f, v in _SCHEDULE_DEFAULTS.items()}
    base = dict(_OTHER_DEFAULTS, accel=AccelConfig(**gates))
    base.update(kw)
    base.setdefault("schedule", NoiseSchedule(**sched))
    return GenerateRequest(**base)


def _gates_at(req: GenerateRequest) -> int:
    """Offset of the gate fields (u32 switch point first) in req's frame:
    header, candidate count, length-prefixed candidates, u64 seed."""
    return 10 + 4 + sum(4 + len(c.encode()) for c in req.candidates) + 8


def _raw_frame(**fields) -> bytes:
    """The frame of `_request(**fields)`, packed field by field, so it may
    hold a request no GenerateRequest can."""
    f = {**_OTHER_DEFAULTS, **_GATE_DEFAULTS, **_SCHEDULE_DEFAULTS, **fields}
    body = struct.pack("<I", len(f["candidates"]))
    body += b"".join(_packed_str(c) for c in f["candidates"])
    body += struct.pack("<QIIIBII", f["seed"], f["switch_point"],
                        f["cache_point"], f["skip_point"], f["reuse"],
                        f["refresh_period"], f["pivot_index"])
    body += struct.pack("<IffB", f["steps"], f["beta_start"], f["beta_end"],
                        SPACINGS.index(f["spacing"]))
    body += _packed_str(f["model_id"])
    return struct.pack("<4sBBI", MAGIC, 1, 1, len(body)) + body


def _packed_str(text: str) -> bytes:
    raw = text.encode()
    return struct.pack("<I", len(raw)) + raw


# --- codec ------------------------------------------------------------------

def test_request_roundtrip():
    req = _request()
    assert decode_frame(encode_frame(req)) == req


def test_response_roundtrip():
    latents = fp16_roundtrip(Rng(5).gaussian((2, 4, 8, 8)))
    resp = GenerateResponse(step_reached=5, latents=latents, flops_total=123,
                            step_costs=(StepCost(1, 60, True, False, True),
                                        StepCost(2, 63, False, True, False)))
    back = decode_frame(encode_frame(resp))
    assert isinstance(back, GenerateResponse)
    assert back.step_reached == 5
    assert back.flops_total == 123
    assert back.step_costs == resp.step_costs
    assert same_bits(back.latents, latents)
    with pytest.raises(ValueError):
        back.latents[0, 0, 0, 0] = 1.0


@settings(max_examples=60)
@given(st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=5),
       st.integers(0, 2**64 - 1), st.integers(0, 30), st.integers(1, 31),
       st.integers(2, 31), st.booleans(), st.integers(1, 10),
       st.integers(0, 40))
def test_request_roundtrip_property(cands, seed, k, cache, skip, reuse,
                                    refresh, pivot):
    fields = dict(candidates=tuple(cands), seed=seed, switch_point=k,
                  cache_point=cache, skip_point=skip, reuse=reuse,
                  refresh_period=refresh, pivot_index=pivot)
    # of 8 schedule steps; reuse fires at iteration 1 on two or more rows
    live_pivot = k > 0 and reuse and len(cands) > 1
    if k > 8 or (live_pivot and pivot >= len(cands)) \
            or any(not c.strip() for c in cands):
        with pytest.raises((ConfigError, InputError)):
            _request(**fields)
        with pytest.raises(ProtocolError):
            decode_frame(_raw_frame(**fields))
        return
    req = _request(**fields)
    assert encode_frame(req) == _raw_frame(**fields)
    assert decode_frame(encode_frame(req)) == req


def test_empty_candidates_cannot_be_framed():
    with pytest.raises(ConfigError, match="0 candidates"):
        _request(candidates=())


def test_decode_rejects_bad_magic():
    raw = bytearray(encode_frame(_request()))
    raw[0] ^= 0xFF
    with pytest.raises(ProtocolError) as err:
        decode_frame(bytes(raw))
    assert err.value.offset == 0


def test_decode_rejects_unknown_version():
    raw = bytearray(encode_frame(_request()))
    raw[5] = 99
    with pytest.raises(ProtocolError) as err:
        decode_frame(bytes(raw))
    assert "version" in str(err.value)


def test_decode_rejects_unknown_type():
    raw = bytearray(encode_frame(_request()))
    raw[4] = 42
    with pytest.raises(ProtocolError) as err:
        decode_frame(bytes(raw))
    assert "type" in str(err.value)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 255), st.booleans())
def test_single_byte_corruption_never_escapes_protocol_error(pos, value, resp):
    if resp:
        latents = fp16_roundtrip(Rng(5).gaussian((2, 4, 8, 8)))
        raw = bytearray(encode_frame(GenerateResponse(
            5, latents, 9, (StepCost(1, 4, True, False, False),))))
    else:
        raw = bytearray(encode_frame(_request(candidates=("héllo", "wörld"))))
    raw[pos % len(raw)] = value
    try:
        decode_frame(bytes(raw))
    except ProtocolError:
        pass  # rejected cleanly; silent success means the bytes still parse


REUSE_BYTE = 12  # offset of the u8 reuse flag within the 21 gate bytes


@settings(max_examples=200)
@given(st.integers(0, 20), st.integers(0, 255))
def test_gate_byte_corruption_is_refused_only_as_protocol_error(pos, value):
    # the 21 gate bytes hold no length, so a mutation there either still
    # decodes to a valid AccelConfig, re-encoding to the same bytes, or is
    # refused: at the reuse byte when that is neither 0 nor 1, else at the
    # gates' offset
    req = _request()
    at = _gates_at(req)
    raw = bytearray(encode_frame(req))
    raw[at + pos] = value
    try:
        got = decode_frame(bytes(raw))
    except ProtocolError as exc:
        bad_reuse = pos == REUSE_BYTE and value > 1
        assert exc.offset == (at + REUSE_BYTE if bad_reuse else at)
    else:
        assert isinstance(got.accel, AccelConfig)
        assert encode_frame(got) == bytes(raw)


def test_decode_refuses_reuse_byte_other_than_0_or_1():
    at = _gates_at(_request())
    assert decode_frame(_raw_frame(reuse=1)).accel.reuse
    for value in (2, 255):
        with pytest.raises(ProtocolError) as err:
            decode_frame(_raw_frame(reuse=value))
        assert err.value.offset == at + REUSE_BYTE, value
        assert "reuse" in str(err.value)


def test_decode_refuses_step_flags_with_unknown_bits():
    latents = fp16_roundtrip(Rng(5).gaussian((1, 4, 8, 8)))
    resp = GenerateResponse(5, latents, 9, (StepCost(1, 4, True, True, True),))
    raw = bytearray(encode_frame(resp))
    flags_at = len(raw) - 1
    assert raw[flags_at] == 0b111
    assert decode_frame(bytes(raw)).step_costs == resp.step_costs
    for value in (0b1000, 0b1111, 0xFF):
        raw[flags_at] = value
        with pytest.raises(ProtocolError) as err:
            decode_frame(bytes(raw))
        assert err.value.offset == flags_at, value


def test_decode_rejects_invalid_utf8_candidate():
    raw = bytearray(encode_frame(_request(candidates=("abcd",))))
    payload_start = 10 + 4 + 4  # header, count, first length prefix
    raw[payload_start] = 0xFF   # lone continuation byte, invalid UTF-8
    with pytest.raises(ProtocolError) as err:
        decode_frame(bytes(raw))
    assert "UTF-8" in str(err.value)


def test_decode_rejects_non_finite_latent_payload():
    latents = fp16_roundtrip(Rng(5).gaussian((1, 4, 8, 8)))
    raw = bytearray(encode_frame(GenerateResponse(5, latents, 0, ())))
    struct.pack_into("<H", raw, 10 + 16, 0x7C00)  # binary16 +inf
    with pytest.raises(ProtocolError) as err:
        decode_frame(bytes(raw))
    assert "non-finite" in str(err.value)


U32_MAX = 2**32 - 1
# (batch, channels, res) of a response header, and the offset of the first
# zero among them: the header is 10 bytes, then step reached and batch
ZERO_EXTENTS = {(0, 4, U32_MAX): 14, (0, U32_MAX, U32_MAX): 14, (1, 1, 0): 22}


def _response_frame(batch: int, channels: int, res: int) -> bytes:
    """A response frame whose latent block is empty: no values, a zero
    FLOPs total and no steps."""
    payload = struct.pack("<IIIIQI", 5, batch, channels, res, 0, 0)
    return struct.pack("<4sBBI", MAGIC, 2, 1, len(payload)) + payload


@pytest.mark.parametrize("extents,offset", ZERO_EXTENTS.items())
def test_decode_refuses_a_response_with_a_zero_extent(extents, offset):
    with pytest.raises(ProtocolError) as err:
        decode_frame(_response_frame(*extents))
    assert err.value.offset == offset


@pytest.mark.parametrize("shape", [(0, 4, 8, 8), (1, 1, 0, 0)])
def test_encode_refuses_a_response_with_a_zero_extent(shape):
    with pytest.raises(ProtocolError):
        encode_frame(GenerateResponse(5, np.zeros(shape, np.float32), 0, ()))


@pytest.mark.parametrize("shape", [(1, 4, 8, 4), (2, 4, 4, 8)])
def test_encode_refuses_a_non_square_latent_batch(shape):
    # a response frame carries one res for both spatial axes
    with pytest.raises(ProtocolError, match=r"is not \(N, C, res, res\)"):
        encode_frame(GenerateResponse(5, np.zeros(shape, np.float32), 0, ()))


def test_daemon_refuses_a_zero_extent_response_with_one_warning(monkeypatch,
                                                                caplog):
    frame = _response_frame(0, 4, U32_MAX)
    with caplog.at_level("WARNING", logger="oblix.protocol"):
        _session_after(lambda addr: _refused(addr, frame),
                       _session(k=3, seed=5), monkeypatch)
    logged = [(r.levelname, r.getMessage()) for r in caplog.records
              if r.name == "oblix.protocol"]
    assert len(logged) == 1 and logged[0][0] == "WARNING", logged
    assert "response latent batch is 0" in logged[0][1]


def test_decode_truncation_cites_lengths():
    raw = encode_frame(_request())
    with pytest.raises(ProtocolError) as err:
        decode_frame(raw[:-3])
    assert "length mismatch" in str(err.value)
    # consistent header, truncated interior string
    body = bytearray(raw)
    struct.pack_into("<I", body, 10 + 4, 10_000)  # first candidate length
    with pytest.raises(ProtocolError) as err:
        decode_frame(bytes(body))
    assert "truncated" in str(err.value)
    assert err.value.offset is not None


def test_equivalence_class_members_produce_identical_request_bytes():
    cfg = _session()
    req, cset = build_request("photo of a young man", cfg, LEX)
    reference = encode_frame(req)
    for member in cset.prompts:
        other, _ = build_request(member, cfg, LEX)
        assert encode_frame(other) == reference
    # the request schema carries nothing that could encode the real index
    fields = [*GenerateRequest.__dataclass_fields__,
              *AccelConfig.__dataclass_fields__]
    assert not any("index" in f or "real" in f
                   for f in fields if f != "pivot_index")


def test_transport_failure_surfaces_as_protocol_error():
    class BrokenTransport:
        def roundtrip(self, data):
            raise ConnectionResetError("peer vanished")

    with pytest.raises(ProtocolError):
        client_run_session("portrait of a man", _session(k=1),
                           BrokenTransport(), W, LEX)


# --- channel model ------------------------------------------------------------

def test_transfer_zero_bytes_zero_rtt():
    assert simulate_transfer(0, ChannelModel(rtt_s=0.0)) == 0.0


def test_transfer_single_row_at_default_bandwidth():
    got = simulate_transfer(32768, ChannelModel())
    assert math.isclose(got, 0.013884, abs_tol=5e-6)
    assert abs(got - 0.013) / 0.013 < 0.10


def test_transfer_thirty_rows_matches_published_estimate():
    got = simulate_transfer(30 * 32768, ChannelModel())
    assert math.isclose(got, 0.41654, abs_tol=5e-5)
    assert abs(got - 0.39) / 0.39 < 0.10


def test_transfer_rtt_is_added():
    ch = ChannelModel(rtt_s=0.05)
    assert math.isclose(simulate_transfer(0, ch), 0.05)


# --- server ---------------------------------------------------------------------

def _server():
    return Server({"toy": W})


def test_server_k0_returns_quantized_replicated_prior():
    req = _request(switch_point=0, candidates=("one", "two", "three"))
    resp = _server().handle_request(req)
    base = Rng(req.seed).gaussian((CFG.channels, CFG.res, CFG.res))
    want = fp16_roundtrip(np.stack([base, base, base]))
    assert same_bits(resp.latents, want)
    assert resp.step_reached == 8
    assert resp.flops_total == 0


def test_server_full_denoise_matches_direct_pipeline():
    req = _request(switch_point=8, candidates=("a calm forest",))
    resp = _server().handle_request(req)
    sched = req.schedule
    base = Rng(req.seed).gaussian((CFG.channels, CFG.res, CFG.res))
    want = run_denoise_steps(np.stack([base]),
                             [embed_prompt("a calm forest", CFG)],
                             sched, W, 1, 8)
    assert resp.step_reached == 0
    assert same_bits(resp.latents, fp16_roundtrip(want))


def test_server_is_stateless_and_deterministic():
    raw = encode_frame(_request(switch_point=5))
    server = _server()
    assert server.handle_frame(raw) == server.handle_frame(raw)


def test_server_row_order_follows_candidate_order():
    # oracle: each row must equal the single-candidate run of that prompt.
    # The batch runs as one row-stacked matrix, so N up to MAX_CANDIDATES
    # at the default model's shapes checks that every row of a tall
    # product keeps the bits of that row's own product.
    # odd N and N around a chunk's row count (64 for this W's self sites and
    # the default model's cross sites, 4 for its self sites) give ragged
    # last chunks
    gated = dict(cache_point=2, skip_point=3, refresh_period=4, reuse=False)
    chunk = _rows_per_cross_chunk(TOY_W)
    assert chunk == MAP_CHUNK_BYTES // (4 * W.cfg.tokens ** 2) == 64
    cases = [(W, 2, {}), (W, 5, {}), (W, 6, {}), (W, 7, {}), (W, 30, {}),
             (TOY_W, 30, {}), (TOY_W, 30, gated)]
    cases += [(w, chunk + d, {}) for w in (W, TOY_W) for d in (-1, 0, 1)]
    cases += [(W, chunk + d, gated) for d in (-1, 0, 1)]
    # from N = 31 (7,936 stacked rows) OpenBLAS gives the default model's
    # output projection other bits than its row blocks' own products
    cases += [(TOY_W, 31, {})]
    checks = [(w, n, gates, 4, _chunk_edges(n, chunk) if n >= chunk - 1
               else range(n)) for w, n, gates in cases]
    checks += [(TOY_W, MAX_CANDIDATES, {}, 1,
                (0, MAX_CANDIDATES // 2, MAX_CANDIDATES - 1))]
    for w, n, gates, steps, rows in checks:
        cfg = w.cfg
        candidates = tuple(f"candidate {i} of a calm forest" for i in range(n))
        req = _request(switch_point=steps, candidates=candidates, **gates)
        resp = Server({"toy": w}).handle_request(req)
        sched = req.schedule
        base = Rng(req.seed).gaussian((cfg.channels, cfg.res, cfg.res))
        for i in rows:
            solo = run_denoise_steps(np.stack([base]),
                                     [embed_prompt(candidates[i], cfg)], sched,
                                     w, 1, steps, req.accel if gates else None)
            assert same_bits(resp.latents[i], fp16_roundtrip(solo)[0]), \
                (n, gates, i)


def _rows_per_cross_chunk(w):
    return MAP_CHUNK_BYTES // (4 * w.cfg.tokens * w.cfg.token_capacity)


def _chunk_edges(n, chunk):
    """The first and last row of each chunk of n rows, the ragged tail's too."""
    return sorted({r for r0 in range(0, n, chunk)
                   for r in (r0, min(n, r0 + chunk) - 1)})


def test_server_rows_under_pivot_reuse_follow_pair_runs():
    # with reuse on, row r's output depends only on its own prompt and the
    # pivot's: it equals row 1 of the two-row run [pivot, r], and the pivot
    # row equals its one-row run, whatever N and the chunking
    gates = dict(cache_point=2, skip_point=3, refresh_period=4, reuse=True,
                 pivot_index=2)
    chunk = _rows_per_cross_chunk(TOY_W)
    for w, n in [(W, 5), (W, 7), (W, chunk - 1), (W, chunk), (W, chunk + 1),
                 (TOY_W, chunk + 1)]:
        cfg = w.cfg
        candidates = tuple(f"candidate {i} of a calm forest" for i in range(n))
        req = _request(switch_point=4, candidates=candidates, **gates)
        resp = Server({"toy": w}).handle_request(req)
        sched = req.schedule
        base = Rng(req.seed).gaussian((cfg.channels, cfg.res, cfg.res))
        texts = [embed_prompt(p, cfg) for p in candidates]
        pivot = req.accel.pivot_index
        pair_accel = dataclasses.replace(req.accel, pivot_index=0)
        for i in range(n):
            rows = [pivot] if i == pivot else [pivot, i]
            run = run_denoise_steps(np.stack([base] * len(rows)),
                                    [texts[r] for r in rows], sched, w, 1, 4,
                                    pair_accel)
            assert same_bits(resp.latents[i], fp16_roundtrip(run)[-1]), (n, i)


def test_server_rejects_k_beyond_schedule():
    with pytest.raises(ConfigError, match="exceeds schedule of 8 steps"):
        _request(switch_point=9)
    with pytest.raises(ProtocolError, match="exceeds schedule of 8 steps"):
        _server().handle_frame(_raw_frame(switch_point=9))


def test_server_rejects_unknown_model():
    with pytest.raises(ProtocolError):
        _server().handle_request(_request(model_id="giant"))


# requests no server can run: each is refused when its GenerateRequest or
# NoiseSchedule is made, so these frames are packed raw
INVALID_REQUESTS = {
    "pivot outside batch": dict(reuse=True, pivot_index=5),
    "whitespace candidate": dict(candidates=("a prompt", "   ")),
    "zero schedule steps": dict(switch_point=0, steps=0),
    # alpha_bar_T is exactly 0.0, so ddim_step would divide by zero
    "alpha_bar_T underflows": dict(switch_point=1, steps=1000, beta_start=0.5,
                                   beta_end=0.999, spacing="linear"),
    "switch point beyond schedule": dict(switch_point=9),
    "no candidates": dict(candidates=()),
}
# gate fields no AccelConfig can hold, written into the frame; decode
# refuses them even when no cloud step would run
INVALID_GATES = {
    "zero refresh period": dict(refresh_period=0),
    "zero refresh period, no cloud step": dict(refresh_period=0,
                                               switch_point=0),
    "skip point 1": dict(skip_point=1),
    "skip point 1, no cloud step": dict(skip_point=1, switch_point=0),
    "zero cache point": dict(cache_point=0),
}
INVALID_FRAMES = {name: _raw_frame(**fields) for name, fields in
                  {**INVALID_REQUESTS, **INVALID_GATES}.items()}
# decodes and runs, but drives the latents to 3.3e8, past binary16
HANDOFF_OVERFLOW = dict(switch_point=100, steps=200, beta_start=0.3,
                        beta_end=0.3, spacing="linear")


def test_raw_frame_packs_the_bytes_encode_frame_writes():
    assert _raw_frame() == encode_frame(_request())
    valid = dict(switch_point=5, cache_point=2, skip_point=4, reuse=True,
                 refresh_period=3, pivot_index=1)
    assert decode_frame(_raw_frame(**valid)) == _request(**valid)
    assert _raw_frame(**HANDOFF_OVERFLOW) == \
        encode_frame(_request(**HANDOFF_OVERFLOW))


@pytest.mark.parametrize("name", INVALID_REQUESTS)
def test_invalid_request_cannot_be_made(name):
    fields = INVALID_REQUESTS[name]
    with pytest.raises((ConfigError, InputError)):
        _request(**fields)
    with pytest.raises(ProtocolError) as err:
        decode_frame(_raw_frame(**fields))
    # a refusal the gate fields take part in is reported at their offset,
    # any other at the payload's start
    at_gates = name in ("pivot outside batch", "switch point beyond schedule")
    assert err.value.offset == (_gates_at(_request()) if at_gates else 10)


# one past what each field's wire width holds: u64 seed, u32 gate fields
TOO_WIDE = {"seed": [-1, 2**64], "switch_point": [2**32],
            "cache_point": [2**32], "skip_point": [2**32],
            "refresh_period": [2**32], "pivot_index": [2**32]}


@pytest.mark.parametrize("field,value", [(f, v) for f, vs in TOO_WIDE.items()
                                         for v in vs])
def test_a_field_wider_than_the_wire_cannot_be_made(field, value):
    with pytest.raises(ConfigError, match=f"^{field} {value} "):
        _request(**{field: value})


def test_the_widest_fields_the_wire_holds_still_frame():
    widest = dict(seed=2**64 - 1, cache_point=2**32 - 1,
                  skip_point=2**32 - 1, refresh_period=2**32 - 1,
                  pivot_index=2**32 - 1)
    for fields in (widest, dict(seed=0), dict(cache_point=10**9,
                                              skip_point=10**9)):
        req = _request(**fields)
        assert decode_frame(encode_frame(req)) == req


@pytest.mark.parametrize("fields", INVALID_GATES.values(),
                         ids=INVALID_GATES.keys())
def test_decode_refuses_invalid_gate_fields_at_their_offset(fields):
    with pytest.raises(ProtocolError) as err:
        decode_frame(_raw_frame(**fields))
    assert err.value.offset == _gates_at(_request())
    assert "gate" in str(err.value)


@pytest.mark.parametrize("raw", INVALID_FRAMES.values(),
                         ids=INVALID_FRAMES.keys())
def test_server_refuses_invalid_request_before_compute(raw, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("denoiser ran for an invalid request")

    monkeypatch.setattr(oblix.protocol, "run_denoise_steps", no_compute)
    with pytest.raises(ProtocolError):
        _server().handle_frame(raw)


@pytest.mark.parametrize("fields", [
    dict(reuse=True, pivot_index=5, switch_point=0),   # no step runs
    dict(reuse=False, pivot_index=5),                 # pivot never read
    dict(reuse=True, pivot_index=5, candidates=("solo prompt",)),
])
def test_server_accepts_gate_fields_that_never_take_effect(fields):
    _server().handle_request(_request(**fields))


def _spy_on_run_accel(monkeypatch):
    """Record the accel argument the server hands to each run."""
    seen = []
    real = oblix.protocol.run_denoise_steps

    def spy(latents, texts, sched, w, first, last, accel=None, **kw):
        seen.append(accel)
        return real(latents, texts, sched, w, first, last, accel, **kw)

    monkeypatch.setattr(oblix.protocol, "run_denoise_steps", spy)
    return seen


# k=6 of 8 steps; each leaves every gate idle in iterations 1..6
GATE_NEUTRAL = {
    "defaults": dict(),
    "cache point at k": dict(cache_point=6),
    "refresh every step": dict(cache_point=1, refresh_period=1),
    "skip point after k": dict(skip_point=7),
    "reuse on one row": dict(reuse=True, candidates=("solo prompt",)),
}


@pytest.mark.parametrize("fields", GATE_NEUTRAL.values(),
                         ids=GATE_NEUTRAL.keys())
def test_gate_neutral_request_runs_without_accel_state(fields, monkeypatch):
    req = _request(**{"switch_point": 6,
                      "candidates": ("one prompt", "two prompt", "three"),
                      **fields})
    seen = _spy_on_run_accel(monkeypatch)
    made = spy_states(monkeypatch)
    got = encode_frame(_server().handle_request(req))
    assert seen == [req.accel] and made == []

    # the same bytes and step flags as a direct run with no gate config
    sched = req.schedule
    base = Rng(req.seed).gaussian((CFG.channels, CFG.res, CFG.res))
    counter = FlopsCounter()
    with use_flops_counter(counter):
        latents = run_denoise_steps(
            np.stack([base] * len(req.candidates)),
            [embed_prompt(p, CFG) for p in req.candidates], sched, W, 1, 6)
    assert made == []
    want = GenerateResponse(sched.steps - 6, fp16_roundtrip(latents),
                            counter.total, tuple(counter.steps))
    assert got == encode_frame(want)


@pytest.mark.parametrize("fields", [
    dict(cache_point=5),          # iteration 6 serves the cache
    dict(skip_point=6),           # iteration 6 skips
    # even iterations refresh, odd ones serve; rows share maps at 1
    dict(cache_point=1, refresh_period=2, reuse=True),
])
def test_request_whose_gates_fire_gets_accel_state(fields, monkeypatch):
    req = _request(switch_point=6, candidates=("one prompt", "two", "three"),
                   **fields)
    seen = _spy_on_run_accel(monkeypatch)
    made = spy_states(monkeypatch)
    _server().handle_request(req)
    assert seen == [req.accel]
    assert len(made) == 1


def test_reuse_alone_shares_maps_without_a_state(monkeypatch):
    # reuse shapes how a site recomputes and caches nothing, so a request
    # whose only gate is reuse keeps no state
    req = _request(switch_point=6, candidates=("one prompt", "two", "three"),
                   reuse=True)
    made = spy_states(monkeypatch)
    resp = _server().handle_request(req)
    assert made == [] and all(step.reuse for step in resp.step_costs)


def test_server_refuses_latents_beyond_binary16_at_hand_off():
    with pytest.raises(ProtocolError) as err:
        _server().handle_request(_request(**HANDOFF_OVERFLOW))
    assert "binary16" in str(err.value)


def test_server_rejects_response_frames():
    latents = fp16_roundtrip(Rng(1).gaussian((1, 4, 8, 8)))
    resp = GenerateResponse(0, latents, 0, ())
    with pytest.raises(ProtocolError):
        _server().handle_frame(encode_frame(resp))


# --- client sessions -------------------------------------------------------------

def test_session_without_detections_runs_single_candidate():
    cfg = _session(k=3)
    result = client_run_session("a quiet forest path", cfg,
                                SimulatedTransport(_server()), W, LEX)
    assert result.candidates.size == 1
    assert result.request is not None
    assert len(result.request.candidates) == 1
    assert result.image.shape == (3, 32, 32)


def test_session_transcript_contains_both_directions():
    cfg = _session(k=2)
    result = client_run_session("portrait of a man", cfg,
                                SimulatedTransport(_server()), W, LEX)
    directions = [d for d, _ in result.transcript]
    assert directions == ["sent", "received"]
    assert result.bytes_sent == len(result.transcript[0][1])
    assert result.bytes_received == len(result.transcript[1][1])


def test_session_k0_bypasses_transport():
    class ExplodingTransport:
        def roundtrip(self, data):
            raise AssertionError("transport must not be used at k=0")

    cfg = _session(k=0)
    result = client_run_session("portrait of a man", cfg,
                                ExplodingTransport(), W, LEX)
    assert result.transcript == []
    assert any("device-only" in n for n in result.notes)


def test_client_rejects_row_count_mismatch():
    class DoctoredServer(Server):
        def handle_request(self, req):
            resp = super().handle_request(req)
            return GenerateResponse(resp.step_reached,
                                    resp.latents[0].reshape(
                                        (1,) + resp.latents.shape[1:]),
                                    resp.flops_total, resp.step_costs)

    cfg = _session(k=1)
    with pytest.raises(ProtocolError):
        client_run_session("portrait of a man", cfg,
                           SimulatedTransport(DoctoredServer({"toy": W})),
                           W, LEX)


# doctored step lists that keep every step's FLOPs, so the sum still holds
STEP_LIST_FORGERIES = {
    "renumbered": lambda steps: [dataclasses.replace(sc, index=99 - i)
                                 for i, sc in enumerate(steps)],
    "one gate flag flipped": lambda steps: [
        dataclasses.replace(sc, skip=not sc.skip) if sc.index == 3 else sc
        for sc in steps],
}


@pytest.mark.parametrize("forge", STEP_LIST_FORGERIES.values(),
                         ids=STEP_LIST_FORGERIES.keys())
def test_client_rejects_steps_other_than_the_requests_run(forge):
    class ForgingTransport(SimulatedTransport):
        def roundtrip(self, request):
            resp = decode_frame(super().roundtrip(request))
            return encode_frame(dataclasses.replace(
                resp, step_costs=tuple(forge(resp.step_costs))))

    cfg = _session(k=4, cache_point=2, reuse=True)
    result = client_run_session("portrait of a man", cfg,
                                SimulatedTransport(_server()), W, LEX)
    assert [(sc.index, sc.recompute, sc.reuse)
            for sc in result.response.step_costs] == [
        (1, True, True), (2, True, True), (3, False, False), (4, False, False)]
    with pytest.raises(ProtocolError, match="run of steps 1 to 4"):
        client_run_session("portrait of a man", cfg,
                           ForgingTransport(_server()), W, LEX)


def test_fp16_boundary_is_the_only_lossy_point():
    cfg = _session(k=3)
    result = client_run_session("portrait of a man", cfg,
                                SimulatedTransport(_server()), W, LEX)
    boundary = result.boundary_latent
    assert same_bits(boundary, fp16_roundtrip(boundary))


def test_timestep_shift_resumes_later_on_device():
    # 4 cloud steps of an 8-step scheduler, device on 16 steps, shift 8:
    # the device resumes at iteration 13 and runs 4 steps
    accel = AccelConfig(switch_point=4, cache_point=never(8),
                        skip_point=never(8))
    cfg = SessionConfig(model_id="toy", seed=3, accel=accel,
                        cloud_schedule=NoiseSchedule(8), device_steps=16,
                        dt_shift=8)
    result = client_run_session("portrait of a man", cfg,
                                SimulatedTransport(_server()), W, LEX)
    assert [s.index for s in result.device_counter.steps] == [13, 14, 15, 16]


# --- sockets -----------------------------------------------------------------------

def _with_daemon(fn):
    daemon = Daemon(("127.0.0.1", 0), _server())
    daemon.serve_in_background()
    try:
        return fn(daemon.server_address)
    finally:
        daemon.shutdown()
        daemon.server_close()


def test_socket_transport_matches_simulated_bitwise():
    cfg = _session(k=4, seed=21)

    def run(addr):
        transport = SocketTransport(addr[0], addr[1])
        try:
            return client_run_session("portrait of a young man", cfg,
                                      transport, W, LEX)
        finally:
            transport.close()

    over_socket = _with_daemon(run)
    in_process = client_run_session("portrait of a young man", cfg,
                                    SimulatedTransport(_server()), W, LEX)
    assert same_bits(over_socket.image, in_process.image)
    assert over_socket.transcript == in_process.transcript


def test_daemon_survives_malformed_magic():
    def run(addr):
        bad = socket.create_connection(addr)
        bad.sendall(b"JUNKJUNKJUNKJUNK")
        # server drops the connection
        assert bad.recv(1) == b""
        bad.close()
        # and still answers a well-formed session afterwards
        transport = SocketTransport(addr[0], addr[1])
        try:
            result = client_run_session("portrait of a man", _session(k=1),
                                        transport, W, LEX)
        finally:
            transport.close()
        return result

    result = _with_daemon(run)
    assert result.image.shape == (3, 32, 32)


def _refused(addr, frame: bytes) -> None:
    conn = socket.create_connection(addr, timeout=30)
    try:
        conn.sendall(frame)
        assert conn.recv(1) == b""  # refused: closed without a reply
    finally:
        conn.close()


def _session_after(before, cfg, monkeypatch):
    """Call ``before(addr)`` on a loopback daemon, then run one session over
    it; require no handler-thread error and the bits and transcript of the
    same session in process."""
    handler_errors = []
    monkeypatch.setattr(Daemon, "handle_error",
                        lambda self, request, address: handler_errors.append(address))

    def run(addr):
        before(addr)
        transport = SocketTransport(addr[0], addr[1])
        try:
            return client_run_session("portrait of a man", cfg, transport, W, LEX)
        finally:
            transport.close()

    over_socket = _with_daemon(run)
    in_process = client_run_session("portrait of a man", cfg,
                                    SimulatedTransport(_server()), W, LEX)
    assert handler_errors == []
    assert same_bits(over_socket.image, in_process.image)
    assert over_socket.transcript == in_process.transcript


def test_daemon_refuses_invalid_requests_without_handler_errors(monkeypatch):
    frames = [*INVALID_FRAMES.values(), encode_frame(_request(**HANDOFF_OVERFLOW))]
    frames += [raw for raw, _ in _over_cap_frames().values()]

    def refuse_all(addr):
        for frame in frames:
            _refused(addr, frame)

    _session_after(refuse_all, _session(k=3, seed=5, cache_point=2, reuse=True),
                   monkeypatch)


@pytest.mark.parametrize("error", [InternalError, ShapeError])
def test_daemon_logs_unexpected_errors_and_keeps_serving(error, monkeypatch,
                                                         caplog):
    planted = [error("planted fault")]
    real = Server.handle_request

    def faulty(self, req):
        if planted:
            raise planted.pop()
        return real(self, req)

    monkeypatch.setattr(Server, "handle_request", faulty)
    with caplog.at_level("ERROR", logger="oblix.protocol"):
        _session_after(lambda addr: _refused(addr, encode_frame(_request())),
                       _session(k=3, seed=5), monkeypatch)
    assert planted == []
    logged = [r for r in caplog.records if r.name == "oblix.protocol"]
    assert len(logged) == 1 and logged[0].exc_info is None
    assert error.__name__ in logged[0].getMessage()
    assert "\n" not in logged[0].getMessage()


def test_daemon_survives_a_peer_that_resets_before_its_reply(monkeypatch):
    def reset_after_sending(addr):
        conn = socket.create_connection(addr, timeout=30)
        # linger 0: close() resets the connection instead of a clean FIN
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        conn.sendall(encode_frame(_request(switch_point=8)))
        conn.close()

    _session_after(reset_after_sending, _session(k=3, seed=5), monkeypatch)


def test_daemon_drops_a_peer_that_stalls_inside_a_frame(monkeypatch, caplog):
    monkeypatch.setattr(oblix.protocol, "FRAME_READ_TIMEOUT_S", 0.2)

    def stall_in_header(addr):
        conn = socket.create_connection(addr, timeout=30)
        try:
            conn.sendall(encode_frame(_request())[:9])  # of 10 header bytes
            start = time.monotonic()
            assert conn.recv(1) == b""
            assert time.monotonic() - start < 10
        finally:
            conn.close()

    with caplog.at_level("WARNING", logger="oblix.protocol"):
        _session_after(stall_in_header, _session(k=3, seed=5), monkeypatch)
    logged = [r.getMessage() for r in caplog.records
              if r.name == "oblix.protocol"]
    assert len(logged) == 1 and "0.2 s" in logged[0], logged


def test_daemon_waits_unbounded_between_frames(monkeypatch):
    # a reused connection may idle past the in-frame limit between sessions
    monkeypatch.setattr(oblix.protocol, "FRAME_READ_TIMEOUT_S", 0.2)
    cfg = _session(k=3, seed=5)

    def two_sessions(addr):
        transport = SocketTransport(addr[0], addr[1])
        try:
            first = client_run_session("portrait of a man", cfg, transport,
                                       W, LEX)
            time.sleep(0.5)
            return first, client_run_session("portrait of a man", cfg,
                                             transport, W, LEX)
        finally:
            transport.close()

    in_process = client_run_session("portrait of a man", cfg,
                                    SimulatedTransport(_server()), W, LEX)
    for result in _with_daemon(two_sessions):
        assert same_bits(result.image, in_process.image)
        assert result.transcript == in_process.transcript


def test_unservable_session_is_refused_before_the_daemon_sees_it(monkeypatch,
                                                                 caplog):
    # reuse fires at iteration 1 with the pivot outside a class of 2: the
    # client refuses to make the request, so no byte reaches the daemon
    cfg = _session(k=3, seed=5, cache_point=4, reuse=True, pivot_index=5)
    frames = []
    real = Server.handle_frame
    monkeypatch.setattr(Server, "handle_frame",
                        lambda self, raw: frames.append(raw) or real(self, raw))

    def run(addr):
        transport = SocketTransport(addr[0], addr[1])
        try:
            with pytest.raises(ConfigError, match="pivot_index 5 outside 2"):
                client_run_session("portrait of a man in a garden", cfg,
                                   transport, W, LEX)
        finally:
            transport.close()

    with caplog.at_level("DEBUG", logger="oblix.protocol"):
        _with_daemon(run)
    assert frames == []
    assert [r for r in caplog.records if r.name == "oblix.protocol"] == []


def test_socket_transport_reconnects_after_a_refused_session():
    # the daemon closes the connection on a refusal, so the next session on
    # the same transport must run over a new one
    cfg = _session(k=3, seed=5)

    def refused_then_valid(addr):
        transport = SocketTransport(addr[0], addr[1])
        try:
            with pytest.raises(ProtocolError):
                client_run_session("portrait of a man",
                                   dataclasses.replace(cfg, model_id="nope"),
                                   transport, W, LEX)
            return client_run_session("portrait of a man", cfg, transport,
                                      W, LEX)
        finally:
            transport.close()

    over_socket = _with_daemon(refused_then_valid)
    in_process = client_run_session("portrait of a man", cfg,
                                    SimulatedTransport(_server()), W, LEX)
    assert same_bits(over_socket.image, in_process.image)
    assert over_socket.transcript == in_process.transcript


def test_two_concurrent_clients_complete_independently():
    # three clients on two cores with wide candidate sets and a short
    # switch interval, so the handler threads interleave inside the denoiser
    jobs = {
        1: ("portrait of a young man", _session(k=3, seed=1)),
        2: ("portrait of a young african man",
            _session(k=3, seed=2, cache_point=2, skip_point=3)),
        3: ("portrait of an old woman",
            _session(k=3, seed=3, cache_point=2, reuse=True)),
    }

    def run(addr):
        results = {}

        def one(seed):
            prompt, cfg = jobs[seed]
            transport = SocketTransport(addr[0], addr[1])
            try:
                results[seed] = client_run_session(prompt, cfg, transport,
                                                   W, LEX)
            finally:
                transport.close()

        threads = [threading.Thread(target=one, args=(s,), daemon=True)
                   for s in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results

    results = _with_daemon(run)
    assert set(results) == set(jobs)
    # independence: each matches its own single-client run
    for seed, (prompt, cfg) in jobs.items():
        assert results[seed].candidates.size >= 6
        solo = client_run_session(prompt, cfg, SimulatedTransport(_server()),
                                  W, LEX)
        assert same_bits(results[seed].image, solo.image)
        assert results[seed].transcript == solo.transcript


def test_read_frame_rejects_bad_magic_from_raw_socket():
    server_sock, client_sock = socket.socketpair()
    try:
        server_sock.sendall(b"XXXX" + bytes(6))
        with pytest.raises(ProtocolError):
            read_frame(client_sock)
    finally:
        server_sock.close()
        client_sock.close()


def test_read_frame_refuses_length_above_cap_before_reading_payload():
    server_sock, client_sock = socket.socketpair()
    # a reader that waited for the payload would time out instead
    client_sock.settimeout(5)
    try:
        server_sock.sendall(struct.pack("<4sBBI", MAGIC, 1, 1,
                                        MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError) as err:
            read_frame(client_sock)
        assert "cap" in str(err.value)
        # a length at the cap is read: here the peer closes after the header
        server_sock.sendall(struct.pack("<4sBBI", MAGIC, 1, 1, MAX_FRAME_BYTES))
        server_sock.close()
        with pytest.raises(ProtocolError) as err:
            read_frame(client_sock)
        assert f"after 0 of {MAX_FRAME_BYTES} bytes" in str(err.value)
    finally:
        server_sock.close()
        client_sock.close()


def test_encode_refuses_payload_above_cap():
    with pytest.raises(ProtocolError):
        encode_frame(_request(candidates=("x" * MAX_FRAME_BYTES,)))


def _over_cap_frames() -> dict[str, tuple[bytes, int]]:
    """A valid request frame with one peer-chosen u32 raised past its cap,
    and the offset of that field."""
    raw = encode_frame(_request())
    # u32 steps | f32 | f32 | u8, then the model id "toy" with its prefix
    steps_at = len(raw) - (4 + 4 + 4 + 1) - (4 + 3)
    assert struct.unpack_from("<I", raw, steps_at) == (8,)
    frames = {}
    for name, at, value in (("candidates", 10, MAX_CANDIDATES + 1),
                            ("schedule steps", steps_at,
                             MAX_SCHEDULE_STEPS + 1)):
        body = bytearray(raw)
        struct.pack_into("<I", body, at, value)
        frames[name] = (bytes(body), at)
    return frames


def test_decode_refuses_counts_above_caps_before_reading_them():
    # the count frame still holds only two candidates: the cap, not a
    # truncation, must refuse it, so nothing was read or built per candidate
    for name, (raw, at) in _over_cap_frames().items():
        with pytest.raises(ProtocolError) as err:
            decode_frame(raw)
        assert "cap" in str(err.value) and err.value.offset == at, name
    # a value at its cap is carried
    at_caps = _request(candidates=("x",) * MAX_CANDIDATES,
                       schedule=NoiseSchedule(MAX_SCHEDULE_STEPS))
    assert decode_frame(encode_frame(at_caps)) == at_caps


def test_a_request_holds_at_most_max_row_steps():
    # at the cap a request is built and decoded; one row-step over it, it
    # is refused both ways, as every other invalid request is
    for n, k in ((MAX_CANDIDATES, 8), (4, 512)):
        assert n * k == MAX_ROW_STEPS
        fields = dict(candidates=("x",) * n, switch_point=k, steps=k)
        assert decode_frame(_raw_frame(**fields)) == _request(**fields)
    over = dict(candidates=("x",) * 3, switch_point=683, steps=683)
    assert 3 * 683 == MAX_ROW_STEPS + 1
    with pytest.raises(ConfigError, match=f"exceed {MAX_ROW_STEPS} row-steps"):
        _request(**over)
    with pytest.raises(ProtocolError, match="row-steps") as err:
        decode_frame(_raw_frame(**over))
    assert err.value.offset == 10


def test_client_refuses_a_request_over_the_row_step_cap_before_sending():
    class UnusedTransport:
        def roundtrip(self, data):
            raise AssertionError("a refused request must not be sent")

    # a class of 30 over 69 cloud steps: 2,070 row-steps
    with pytest.raises(ConfigError, match="30 candidates x 69 cloud steps"):
        client_run_session("portrait of a young african man",
                           _session(k=69, steps=69), UnusedTransport(), W, LEX)


def test_encode_refuses_counts_above_caps():
    # no request holds them, so none can be framed
    with pytest.raises(ConfigError, match="candidates"):
        _request(candidates=("x",) * (MAX_CANDIDATES + 1))
    with pytest.raises(ConfigError, match="schedule steps exceed the cap"):
        _request(schedule=NoiseSchedule(MAX_SCHEDULE_STEPS + 1))


# --- row shards -------------------------------------------------------------------

PAPER_GATES = dict(switch_point=10, cache_point=4, skip_point=6, reuse=True,
                   refresh_period=5, steps=25)
SHARD_PROMPTS = tuple(f"candidate {i} of a calm forest" for i in range(30))


@pytest.fixture
def pool(monkeypatch):
    """Make a fresh compute pool of so many threads the process's own for
    the test; its threads end with the test."""
    made = []

    def install(threads: int) -> ShardHelpers:
        made.append(ShardHelpers(threads))
        monkeypatch.setattr(oblix.denoiser, "HELPERS", made[-1])
        return made[-1]

    yield install
    for helpers in made:
        if helpers._pool is not None:
            helpers._pool.shutdown(wait=False, cancel_futures=True)


def _spy_grants(helpers: ShardHelpers) -> list:
    """Log (runs under way, granted) of each helper request to ``helpers``,
    the runs as its lock saw them."""
    grants, seen, lock = [], threading.local(), helpers._lock

    class Seen:
        def __enter__(self):
            lock.acquire()
            seen.runs = helpers.runs

        def __exit__(self, *exc):
            lock.release()

    start = helpers.start

    def spy(fn, *args):
        future = start(fn, *args)
        grants.append((seen.runs, future is not None))
        return future

    helpers._lock, helpers.start = Seen(), spy
    return grants


def _spiked_prompts(row):
    """SHARD_PROMPTS with a token added to ``row`` whose embedding's first
    entry is far the largest of any prompt's, and a ``down.cross.wv`` that
    overflows that entry's values only."""
    others = max(float(np.abs(embed_prompt(p, CFG)[:, 0]).max())
                 for p in SHARD_PROMPTS)
    spike = next(f"spike{k}" for k in range(100_000)
                 if abs(embed_prompt(f"spike{k}", CFG)[0, 0]) > 1.5 * others)
    prompts = list(SHARD_PROMPTS)
    prompts[row] += " " + spike
    peak = float(abs(embed_prompt(spike, CFG)[0, 0]))
    wv = np.zeros_like(W["down.cross.wv"])
    wv[0, 0] = 2 * float(np.finfo(np.float32).max) / (others + peak)
    return tuple(prompts), W.replace(**{"down.cross.wv": wv})


@pytest.mark.parametrize("where", ["pivot shard", "helper shard"])
def test_a_shard_that_fails_fails_the_request_and_frees_the_helper(where,
                                                                   pool):
    # the weights are finite, as ModelWeights requires, but a value they
    # make is not: in the pivot's map at reuse step 1, which only the shard
    # holding the pivot makes, or in the values of one row of the other
    # shard; either way the request raises what an unsharded run raises,
    # and the shard waiting for a map the pivot's shard never made is freed
    if where == "pivot shard":
        prompts = SHARD_PROMPTS
        bad = W.replace(**{"down.self.wq": np.full_like(W["down.self.wq"],
                                                        3e38)})
    else:
        prompts, bad = _spiked_prompts(20)
    server = Server({"toy": W, "bad": bad})
    req = _request(candidates=prompts, model_id="bad", pivot_index=3,
                   **PAPER_GATES)
    helpers = pool(2)
    grants = _spy_grants(helpers)
    base = Rng(req.seed).gaussian((CFG.channels, CFG.res, CFG.res))
    raised = []

    def serve(shards):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if shards == 2:
                    server.handle_frame(encode_frame(req))
                else:
                    run_denoise_steps(np.stack([base] * 30),
                                      [embed_prompt(p, CFG) for p in prompts],
                                      req.schedule, bad, 1, 10, req.accel)
        except Exception as exc:
            raised.append(type(exc))

    for shards in (1, 2):
        thread = threading.Thread(target=serve, args=(shards,), daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert raised == [InternalError, InternalError]
    assert grants == [(1, True)]
    assert (helpers.runs, helpers.busy) == (0, 0)
    # the next request on the same server keeps every row's bits: those of
    # its run beside the pivot alone (row 0 here)
    good = _request(candidates=SHARD_PROMPTS, **PAPER_GATES)
    resp = decode_frame(server.handle_frame(encode_frame(good)))
    assert grants[1:] == [(1, True)] * 10
    for i in (0, 14, 15, 29):
        rows = sorted({0, i})
        solo = run_denoise_steps(
            np.stack([base] * len(rows)),
            [embed_prompt(SHARD_PROMPTS[r], CFG) for r in rows],
            good.schedule, W, 1, 10, good.accel)
        assert same_bits(resp.latents[i], fp16_roundtrip(solo)[-1]), i


def test_two_wide_requests_on_two_cores_get_no_helper(pool, monkeypatch):
    # two N=30 requests at one daemon on two cores: while both run, each
    # runs its shards one after the other, since a helper would take the
    # other's core; each keeps its solo bits, and the row partition depends
    # on N alone, so it shows the server nothing the candidate order hides
    grants = _spy_grants(pool(2))
    together, handle = [threading.Barrier(2, timeout=30)], Server.handle_request

    def both_running(self, req):
        if together:
            together[0].wait()  # each run starts once both are on the pool
        return handle(self, req)

    cuts, advance = set(), oblix.denoiser._advance

    def spy(x, texts, shards, *args):
        cuts.add(tuple((sh.lo, sh.hi) for sh in shards))
        return advance(x, texts, shards, *args)

    monkeypatch.setattr(Server, "handle_request", both_running)
    monkeypatch.setattr(oblix.denoiser, "_advance", spy)
    cfg = _session(k=10, steps=25, cache_point=4, skip_point=6, reuse=True)
    prompt = "portrait of a young african man"
    frames = [encode_frame(_request(candidates=SHARD_PROMPTS, seed=5,
                                    **PAPER_GATES)),
              encode_frame(build_request(prompt, cfg, LEX,
                                         order_real_first=True)[0])]
    replies = _concurrent_replies(frames)
    together.clear()
    assert any(runs == 2 for runs, _ in grants)
    assert [g for g in grants if g[0] == 2] == [(2, False)] * len(
        [g for g in grants if g[0] == 2])
    assert cuts == {((0, 15), (15, 30))}
    for i, frame in enumerate(frames):
        assert replies[i] == _server().handle_frame(frame), i
    assert not check_indistinguishability(prompt, LEX, 5, cfg,
                                          order_real_first=True).passed


def _concurrent_replies(frames) -> list:
    """The replies of a loopback daemon to ``frames``, each sent at once on
    a connection of its own."""
    replies = [None] * len(frames)

    def run(addr):
        def one(i):
            transport = SocketTransport(addr[0], addr[1])
            try:
                replies[i] = transport.roundtrip(frames[i])
            finally:
                transport.close()

        threads = [threading.Thread(target=one, args=(i,), daemon=True)
                   for i in range(len(frames))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    _with_daemon(run)
    return replies


def test_three_wide_requests_compute_on_two_pool_threads(pool, monkeypatch):
    # three N=30 requests at once at one daemon whose pool has two threads:
    # every forward runs on one of those two, none on a connection's
    # handler thread, and each reply keeps the bits of its request alone
    pool(2)
    computing, forward = set(), oblix.denoiser.unet_forward

    def noted(*args):
        computing.add(threading.get_ident())
        return forward(*args)

    handlers, handle = set(), oblix.protocol._DaemonHandler.handle

    def connection(self):
        handlers.add(threading.get_ident())
        return handle(self)

    monkeypatch.setattr(oblix.denoiser, "unet_forward", noted)
    monkeypatch.setattr(oblix.protocol._DaemonHandler, "handle", connection)
    frames = [encode_frame(_request(candidates=SHARD_PROMPTS, seed=seed,
                                    **PAPER_GATES)) for seed in (5, 6, 7)]
    replies = _concurrent_replies(frames)
    assert len(handlers) == 3
    assert 1 <= len(computing) <= 2 and not computing & handlers
    for reply, frame in zip(replies, frames):
        assert reply == _server().handle_frame(frame)


def test_a_request_held_at_pool_entry_blocks_grants_until_it_leaves(
        pool, monkeypatch):
    # request B has entered the pool and is held before it decodes, so it
    # counts as a run: request A, on the pool's other thread, gets no helper
    # for its first three steps; once B has left, A's steps are granted
    # again, and A keeps the bits of its run alone
    helpers = pool(2)
    grants = _spy_grants(helpers)
    small = encode_frame(_request(candidates=("one", "two")))
    wide = encode_frame(_request(candidates=SHARD_PROMPTS, **PAPER_GATES))
    entered, release, decode = (threading.Event(), threading.Event(),
                                oblix.protocol.decode_frame)

    def held(raw):
        if raw == small:
            entered.set()
            release.wait(30)
        return decode(raw)

    replies = {}
    b = threading.Thread(
        target=lambda: replies.update(b=_server().handle_frame(small)),
        daemon=True)
    spied = helpers.start

    def let_b_go(fn, *args):
        if len(grants) == 3:
            release.set()
            b.join(timeout=30)
        return spied(fn, *args)

    monkeypatch.setattr(oblix.protocol, "decode_frame", held)
    helpers.start = let_b_go
    b.start()
    assert entered.wait(10)
    a = _server().handle_frame(wide)
    assert not b.is_alive()
    assert grants == [(2, False)] * 3 + [(1, True)] * 7
    assert (helpers.runs, helpers.busy) == (0, 0)
    assert a == _server().handle_frame(wide)
    assert replies["b"] == _server().handle_frame(small)


def test_a_pool_of_one_serves_a_wide_request_without_a_helper(pool):
    frame = encode_frame(_request(candidates=SHARD_PROMPTS, **PAPER_GATES))
    pool(2)
    sharded = _server().handle_frame(frame)
    grants = _spy_grants(pool(1))
    replies = []
    thread = threading.Thread(
        target=lambda: replies.append(_server().handle_frame(frame)),
        daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert grants == [(1, False)] * 10
    assert replies == [sharded]
