import dataclasses
import json
import math

import numpy as np
import pytest

from oblix.accel import AccelConfig, never
from oblix.costmodel import (
    attention_map_flops,
    attention_value_flops,
    estimate_device_flops,
    estimate_server_flops,
    expected_run_flops,
    step_flops,
    transmission_bytes,
)
from oblix.denoiser import ModelConfig, ModelWeights, embed_prompt, run_denoise_steps
from oblix.errors import ConfigError, ProtocolError
from oblix.oblivious import default_lexicon
from oblix.protocol import (
    Server,
    SessionConfig,
    SimulatedTransport,
    client_run_session,
    decode_frame,
    encode_frame,
)
from oblix.schedule import NoiseSchedule
from oblix.tensor import FlopsCounter, Rng, use_flops_counter

CFG = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
W = ModelWeights.build(CFG, 7)
LEX = default_lexicon()

# per-image FLOPs implied by the published batch-of-4 measurement (74.10/4);
# the table's displayed "18.53" is this value rounded to two decimals
FULL_SD = 74.10 / 4
FULL_SD_DISPLAYED = 18.53
DEVICE_SMALL = 10.90     # batch-of-4 measurement 43.60 / 4


# --- closed-form estimators -----------------------------------------------------

@pytest.mark.parametrize("k,n,want", [
    (10, 2, 14.82), (10, 6, 44.46), (5, 2, 7.41), (5, 6, 22.23),
    # single-image hybrid splits and the wider batch sweep
    (10, 1, 7.41), (5, 1, 3.71),
    (5, 4, 14.82), (10, 4, 29.64),
])
def test_server_estimates_reproduce_published_table(k, n, want):
    assert abs(estimate_server_flops(FULL_SD, k, 25, n) - want) <= 0.01


@pytest.mark.parametrize("k,n,want", [
    (5, 4, 127.48), (5, 6, 191.22), (10, 4, 254.96), (10, 6, 382.44),
])
def test_server_estimates_scale_to_the_larger_model(k, n, want):
    # high-resolution model: per-image cost 637.40 / 4 at batch 4
    assert abs(estimate_server_flops(637.40 / 4, k, 25, n) - want) <= 0.01


def test_vanilla_oblivious_generation_is_n_times_full():
    assert abs(estimate_server_flops(FULL_SD_DISPLAYED, 25, 25, 6)
               - 111.18) <= 0.01


def test_server_estimate_boundaries():
    assert estimate_server_flops(FULL_SD, 0, 25, 4) == 0.0
    assert estimate_server_flops(12.5, 25, 25, 1) == 12.5


def test_server_estimate_validation():
    with pytest.raises(ConfigError):
        estimate_server_flops(1.0, 26, 25, 1)
    with pytest.raises(ConfigError):
        estimate_server_flops(1.0, 5, 25, 0)


def test_device_estimate_matches_published_remainder():
    assert abs(estimate_device_flops(DEVICE_SMALL, 10, 25) - 6.54) <= 0.01
    assert estimate_device_flops(DEVICE_SMALL, 25, 25) == 0.0


def test_device_estimate_documented_discrepancy():
    # the published "+8.96" implies an 11.20 full-device figure, which is
    # inconsistent with the 10.90 implied by "+6.54"; both are reproduced
    # from their own implied inputs
    got_small = estimate_device_flops(DEVICE_SMALL, 5, 25)
    assert abs(got_small - 8.72) <= 0.01
    assert abs(estimate_device_flops(11.20, 5, 25) - 8.96) <= 0.01


def test_transmission_bytes_values():
    assert transmission_bytes(64, 1, 2) == 32768
    assert transmission_bytes(64, 30, 2) == 983040
    assert transmission_bytes(16, 6, 2) == 12288


def test_transmission_scaling():
    assert transmission_bytes(64, 7) == 7 * transmission_bytes(64, 1)
    assert transmission_bytes(128, 1) == 4 * transmission_bytes(64, 1)


def test_transmission_formula_matches_actual_wire_payload():
    # the latent block inside a real response frame is exactly the
    # modeled size; everything else is framing and the FLOPs report
    from oblix.protocol import GenerateResponse, encode_frame
    from oblix.tensor import fp16_roundtrip
    latents = fp16_roundtrip(Rng(4).gaussian((6, 4, 8, 8)))
    resp = GenerateResponse(0, latents, 0, ())
    frame = encode_frame(resp)
    overhead = 10 + 16 + 8 + 4      # header, shape block, total, series count
    assert len(frame) - overhead == transmission_bytes(8, 6, 2)


# --- instrumented counter vs closed form -------------------------------------------

def _run_counted(n, accel_cfg, steps=8):
    sched = NoiseSchedule(steps)
    rows = [Rng(90 + i).gaussian((CFG.channels, CFG.res, CFG.res))
            for i in range(n)]
    texts = [embed_prompt(f"candidate {i}", CFG) for i in range(n)]
    counter = FlopsCounter()
    with use_flops_counter(counter):
        run_denoise_steps(np.stack(rows), texts, sched, CW, 1, steps, accel_cfg)
    return counter


CW = ModelWeights.build(CFG, 7)


def test_counted_no_accel_step_equals_closed_form_exactly():
    counter = _run_counted(3, None)
    want = step_flops(CFG, 3)
    assert all(s.flops == want for s in counter.steps)
    assert counter.total == 8 * want


def test_counted_matches_closed_form_across_gate_schedules():
    for accel_cfg in (
        AccelConfig(cache_point=never(8), skip_point=never(8)),
        AccelConfig(cache_point=3, skip_point=never(8)),
        AccelConfig(cache_point=never(8), skip_point=4),
        AccelConfig(cache_point=2, skip_point=5, reuse=True),
        AccelConfig(cache_point=3, skip_point=3, reuse=True),
    ):
        counter = _run_counted(4, accel_cfg)
        assert counter.total == expected_run_flops(CFG, 4, accel_cfg, 1, 8)
        for t, sc in zip(range(1, 9), counter.steps):
            assert sc.flops == step_flops(
                CFG, 4, recompute=sc.recompute, reuse=sc.reuse, skip=sc.skip), t


def test_reuse_divides_map_flops_by_batch_at_every_site():
    n = 4
    plain = _run_counted(n, AccelConfig(cache_point=never(8),
                                        skip_point=never(8)))
    reused = _run_counted(n, AccelConfig(cache_point=never(8),
                                         skip_point=never(8), reuse=True))
    sites = ("down.self", "down.cross", "mid.self", "mid.cross",
             "up.self", "up.cross")
    for site in sites:
        for t in range(1, 9):
            assert plain.tagged[(t, f"{site}/map")] == \
                n * reused.tagged[(t, f"{site}/map")]
            assert plain.tagged[(t, f"{site}/value")] == \
                reused.tagged[(t, f"{site}/value")]
        assert sum(plain.tagged[(t, f"{site}/map")] for t in range(1, 9)) \
            == n * attention_map_flops(CFG, site) * 8
        assert sum(reused.tagged[(t, f"{site}/value")] for t in range(1, 9)) \
            == n * attention_value_flops(CFG, site) * 8


def test_enabling_any_gate_never_increases_counted_flops():
    base = _run_counted(4, None).total
    combos = [
        AccelConfig(cache_point=never(8), skip_point=never(8)),
        AccelConfig(cache_point=3, skip_point=never(8)),
        AccelConfig(cache_point=never(8), skip_point=4),
        AccelConfig(cache_point=never(8), skip_point=never(8), reuse=True),
        AccelConfig(cache_point=3, skip_point=4, reuse=True),
    ]
    totals = [_run_counted(4, c).total for c in combos]
    assert totals[0] == base
    assert all(t <= base for t in totals)
    assert totals[-1] <= min(totals[1], totals[2], totals[3])


def test_relative_step_costs_are_ordered():
    full = step_flops(CFG, 4)
    cached = step_flops(CFG, 4, recompute=False)
    skip_cached = step_flops(CFG, 4, recompute=False, skip=True)
    assert skip_cached < cached < full


# --- session report -----------------------------------------------------------------

def _session_result(k=4, n_prompt="portrait of a man", steps=8, seed=3):
    accel = AccelConfig(switch_point=k, cache_point=never(steps),
                        skip_point=never(steps))
    cfg = SessionConfig(model_id="toy", seed=seed, accel=accel,
                        cloud_schedule=NoiseSchedule(steps))
    result = client_run_session(n_prompt, cfg,
                                SimulatedTransport(Server({"toy": CW})),
                                CW, LEX)
    return cfg, result


def test_report_totals_match_step_series():
    cfg, result = _session_result()
    device = result.device_counter
    assert result.server_flops == sum(s.flops for s in result.server_steps)
    assert device.total == sum(s.flops for s in device.steps)
    assert result.server_flops == expected_run_flops(
        CFG, result.candidates.size, cfg.accel, 1, 4)
    assert device.total == expected_run_flops(CFG, 1, None, 5, 8)


def test_report_transfer_uses_channel_model():
    cfg, result = _session_result()
    total = result.bytes_sent + result.bytes_received
    assert math.isclose(result.modeled_transfer_s,
                        total * 8.0 / cfg.channel.bandwidth_bps)


def test_report_lines_and_table_render():
    cfg, result = _session_result()
    lines = result.report_lines()
    summary = json.loads(lines[0])
    assert summary["record"] == "summary"
    assert summary["server_flops"] == result.server_flops
    assert len(lines) == 1 + len(result.server_steps) \
        + len(result.device_counter.steps)
    table = result.summary_table()
    assert "server" in table and "device" in table


def test_session_refuses_a_response_whose_flops_total_is_not_its_steps():
    class OffByOneLedger(SimulatedTransport):
        def roundtrip(self, request):
            resp = decode_frame(super().roundtrip(request))
            return encode_frame(dataclasses.replace(
                resp, flops_total=resp.flops_total + 1))

    accel = AccelConfig(switch_point=4, cache_point=never(8),
                        skip_point=never(8))
    cfg = SessionConfig(model_id="toy", seed=3, accel=accel,
                        cloud_schedule=NoiseSchedule(8))
    with pytest.raises(ProtocolError) as err:
        client_run_session("portrait of a man", cfg,
                           OffByOneLedger(Server({"toy": CW})), CW, LEX)
    assert "FLOPs total" in str(err.value)
