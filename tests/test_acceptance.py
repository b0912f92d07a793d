"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import math

import mpmath
import numpy as np
import pytest

import oblix.protocol
from oblix.accel import AccelConfig, never, reuse_active, \
    should_recompute_attention, should_skip_blocks
from oblix.costmodel import (
    attention_map_flops,
    estimate_device_flops,
    estimate_server_flops,
    expected_run_flops,
    step_flops,
    transmission_bytes,
)
from oblix.denoiser import (
    SITES,
    ModelConfig,
    ModelWeights,
    decode_latent,
    embed_prompt,
    run_denoise_steps,
)
from oblix.oblivious import (
    DEFAULT_TEMPLATES,
    default_lexicon,
    detect_attributes,
    expand_candidates,
    generate_corpus,
)
from oblix.protocol import (
    ChannelModel,
    ScheduleParams,
    Server,
    SessionConfig,
    SimulatedTransport,
    client_run_session,
    simulate_transfer,
)
from oblix.schedule import build_schedule, ddim_step, forward_diffuse, \
    reverse_step_eq1
from oblix.security import check_indistinguishability, distinguisher_experiment
from oblix.tensor import FlopsCounter, Rng, fp16_roundtrip, row_blocks, \
    use_flops_counter

from bitwise import same_bits, spy_attend, spy_states

LEX = default_lexicon()
TOY = ModelConfig()                       # 4 channels, res 16, width 32
TOY_W = ModelWeights.build(TOY, 1001)

# per-image T-FLOPs behind the published hybrid rows (batch-of-4 figure
# 74.10 over 4); the vanilla row in the same table uses the displayed 18.53
FULL_CLOUD = 74.10 / 4
FULL_CLOUD_DISPLAYED = 18.53
FULL_DEVICE = 10.90


def _report(num: int, desc: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    print(f"criterion {num:2d} PASS  {desc}")


def _session(k, steps=25, seed=42, reuse=False, cache_point=None,
             skip_point=None, model_id="toy"):
    accel = AccelConfig(
        switch_point=k,
        cache_point=cache_point if cache_point is not None else never(steps),
        skip_point=skip_point if skip_point is not None else never(steps),
        reuse=reuse,
    )
    return SessionConfig(model_id=model_id, seed=seed, accel=accel,
                         cloud_schedule=ScheduleParams(steps))


def test_criterion_01_cost_model_reproduction():
    def body():
        cases = [
            (estimate_server_flops(FULL_CLOUD, 10, 25, 2), 14.82),
            (estimate_server_flops(FULL_CLOUD, 10, 25, 6), 44.46),
            (estimate_server_flops(FULL_CLOUD, 5, 25, 2), 7.41),
            (estimate_server_flops(FULL_CLOUD, 5, 25, 6), 22.23),
            (estimate_server_flops(FULL_CLOUD_DISPLAYED, 25, 25, 6), 111.18),
            (estimate_device_flops(FULL_DEVICE, 10, 25), 6.54),
        ]
        for got, want in cases:
            assert abs(got - want) <= 0.01, (got, want)

    _report(1, "cost model reproduces published values within 0.01 T-FLOPs",
            body)


def test_criterion_02_transmission_model():
    def body():
        assert transmission_bytes(64, 1, 2) == 32768
        per_row = simulate_transfer(32768, ChannelModel())
        # 0.01389 and 0.4166 are 4-significant-digit statements; the hard
        # bound is the 10% window around the published rounded figures
        assert math.isclose(per_row, 0.01389, abs_tol=1e-5)
        assert abs(per_row - 0.013) / 0.013 <= 0.10
        thirty = simulate_transfer(transmission_bytes(64, 30, 2),
                                   ChannelModel())
        assert math.isclose(thirty, 0.4166, abs_tol=1e-4)
        assert abs(thirty - 0.39) / 0.39 <= 0.10

    _report(2, "transmission sizes and modeled transfer times match", body)


def test_criterion_03_obliviousness_attestation():
    def body():
        cfg = _session(k=10)
        corpus = generate_corpus(DEFAULT_TEMPLATES, LEX)
        assert len(corpus) == 300
        for rec in corpus:
            for seed in range(5):
                verdict = check_indistinguishability(rec["prompt"], LEX,
                                                     seed, cfg)
                assert verdict.passed, (rec["prompt"], seed)
                assert verdict.class_size == 30
        control = check_indistinguishability(corpus[0]["prompt"], LEX, 0,
                                             cfg, order_real_first=True)
        assert not control.passed
        assert control.first_diff_offset is not None

    _report(3, "300-prompt corpus x 5 seeds: transcripts bitwise equal, "
               "negative control fails", body)


def test_criterion_04_candidate_cardinalities():
    def body():
        for prompt, want in (("portrait of a man", 2),
                             ("portrait of a young man", 6),
                             ("portrait of a young african man", 30)):
            cset = expand_candidates(prompt,
                                     detect_attributes(prompt, LEX), LEX)
            assert cset.size == want, (prompt, cset.size)

    _report(4, "candidate cardinalities are exactly 2, 6, 30", body)


def test_criterion_05_accel_off_equivalence(monkeypatch):
    def body():
        # neutral gates (k=12, cache and skip never, reuse off) run with no
        # AccelState and must give the bits of a server run with no gate
        # config at all, at every (step, site) and in the image
        prompt = "portrait of a young male"
        seen, gate_free = [], [False]
        real = oblix.protocol.run_denoise_steps

        def spy(latents, texts, sched, w, first, last, accel=None):
            seen.append(accel)
            return real(latents, texts, sched, w, first, last,
                        None if gate_free[0] else accel)

        monkeypatch.setattr(oblix.protocol, "run_denoise_steps", spy)
        made = spy_states(monkeypatch)
        attended = spy_attend(monkeypatch)
        every_site = [(t, site) for t in range(1, 13) for site in SITES]
        transport = SimulatedTransport(Server({"toy": TOY_W}))
        for seed in range(5):
            cfg = _session(k=12, seed=seed)
            runs = []
            for free in (False, True):
                gate_free[0] = free
                seen.clear()
                attended.clear()
                image = client_run_session(prompt, cfg, transport, TOY_W,
                                           LEX).image
                # server, then device; only the server's run carries gates
                assert seen == [cfg.accel, None] and made == [], seed
                server = [(t, site, out) for t, site, out in attended
                          if t <= 12]
                assert [(t, site) for t, site, _ in server] == every_site
                runs.append((image, server))  # 72 site outputs each
            (gated, gated_sites), (free, free_sites) = runs
            for (t, site, a), (_, _, b) in zip(gated_sites, free_sites):
                assert same_bits(a, b), (seed, t, site)
            assert same_bits(gated, free), seed

    _report(5, "neutral gates match the accel-free pipeline bitwise over "
               "5 seeds", body)


def test_criterion_06_pivot_invariance(monkeypatch):
    def body():
        attended = spy_attend(monkeypatch)
        sched = build_schedule(25)
        for n in (2, 6):
            rows = [Rng(500).gaussian((TOY.channels, TOY.res, TOY.res))] * n
            latents = np.stack(rows)
            texts = [embed_prompt(f"candidate text {i}", TOY)
                     for i in range(n)]
            for cache_point, skip_point, k in (
                    (never(25), never(25), 25), (4, 6, 10)):
                base = AccelConfig(switch_point=k, cache_point=cache_point,
                                   skip_point=skip_point, reuse=False)
                with_reuse = AccelConfig(switch_point=k,
                                         cache_point=cache_point,
                                         skip_point=skip_point, reuse=True)
                attended.clear()
                out_a = run_denoise_steps(latents, texts, sched, TOY_W, 1, k,
                                          base)
                logs = attended[:], []
                attended.clear()
                out_b = run_denoise_steps(latents, texts, sched, TOY_W, 1, k,
                                          with_reuse)
                logs[1].extend(attended)
                # both attend at every recomputed (step, site), in order
                want = [(t, site) for t in range(1, k + 1)
                        if should_recompute_attention(t, base)
                        for site in SITES if site.startswith("up")
                        or not should_skip_blocks(t, base)]
                for log in logs:
                    assert [(t, site) for t, site, _ in log] == want
                for (t, site, a), (_, _, b) in zip(*logs):
                    assert same_bits(row_blocks(a, n)[0],
                                     row_blocks(b, n)[0]), (t, site)
                assert same_bits(out_a[0], out_b[0])

    _report(6, "pivot row is bitwise invariant under reuse at every step "
               "and site, N in {2, 6}", body)


def test_criterion_07_boundary_equivalences():
    def body():
        steps = 25
        prompt = "portrait of a young male"   # canonical member, N = 6

        # k = T: hybrid equals cloud-only generation modulo one fp16 pass
        cfg = _session(k=steps)
        # the wire schedule carries binary32 betas; the reference must
        # denoise over exactly that schedule
        sched = cfg.cloud_schedule.build()
        hybrid = client_run_session(
            prompt, cfg, SimulatedTransport(Server({"toy": TOY_W})),
            TOY_W, LEX)
        base = Rng(cfg.seed).gaussian((TOY.channels, TOY.res, TOY.res))
        cloud_only = run_denoise_steps(
            np.stack([base]), [embed_prompt(prompt, TOY)], sched, TOY_W,
            1, steps)[0]
        want = decode_latent(fp16_roundtrip(cloud_only), TOY_W)
        assert same_bits(hybrid.image, want)

        # k = 0: hybrid equals device-only generation bitwise
        cfg0 = _session(k=0)
        hybrid0 = client_run_session(
            prompt, cfg0, SimulatedTransport(Server({"toy": TOY_W})),
            TOY_W, LEX)
        device_only = run_denoise_steps(
            np.stack([base]), [embed_prompt(prompt, TOY)], sched, TOY_W,
            1, steps)[0]
        assert same_bits(hybrid0.image, decode_latent(device_only, TOY_W))

    _report(7, "k=T equals cloud-only modulo one fp16 round-trip; "
               "k=0 equals device-only bitwise", body)


def test_criterion_08_oracle_denoising_round_trip():
    def body():
        for steps in (5, 10, 25):
            sched = build_schedule(steps)
            x0 = Rng(81).gaussian((4, 8, 8))
            eps = Rng(82).gaussian((4, 8, 8))
            x = forward_diffuse(x0, steps, eps, sched)
            for t in range(steps, 0, -1):
                x = ddim_step(x, eps, t, t - 1, sched)
            scale = max(1.0, float(np.abs(x0).max()))
            err = float(np.abs(x - x0).max())
            assert err <= 1e-4 * scale, (steps, err)

        mpmath.mp.dps = 50
        sched = build_schedule(25)
        x0 = Rng(83).gaussian((32,))
        eps = Rng(84).gaussian((32,))
        for t in (2, 13, 25):
            x_t = forward_diffuse(x0, t, eps, sched)
            got = reverse_step_eq1(x_t, eps, t, sched,
                                   np.zeros((32,), np.float32))
            beta = mpmath.mpf(sched.beta_at(t))
            alpha = mpmath.mpf(sched.alpha_at(t))
            bar = mpmath.mpf(sched.alpha_bar_at(t))
            for xv, ev, gv in zip(x_t, eps, got):
                want = (mpmath.mpf(float(xv))
                        - beta / mpmath.sqrt(1 - bar) * mpmath.mpf(float(ev))) \
                    / mpmath.sqrt(alpha)
                assert abs(float(want) - float(gv)) <= 1e-6

    _report(8, "sampler chain recovers the source within 1e-4; reverse "
               "step matches extended precision within 1e-6", body)


def test_criterion_09_gate_predicates():
    def body():
        for r in (3, 4):
            for s in (3, 6):
                cfg = AccelConfig(cache_point=r, skip_point=s)
                for t in range(1, 26):
                    assert should_recompute_attention(t, cfg) == (
                        t <= r or t % 5 == 0), (r, t)
                    assert should_skip_blocks(t, cfg) == (t >= s), (s, t)

    _report(9, "gate truth tables hold for t in [1,25], r in {3,4}, "
               "s in {3,6}", body)


def test_criterion_10_instrumented_flops():
    def body():
        cfg = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
        w = ModelWeights.build(cfg, 7)
        sched = build_schedule(8)
        n = 4
        latents = np.stack(
            [Rng(90 + i).gaussian((cfg.channels, cfg.res, cfg.res))
             for i in range(n)])
        texts = [embed_prompt(f"candidate {i}", cfg) for i in range(n)]

        def counted(accel_cfg):
            counter = FlopsCounter()
            with use_flops_counter(counter):
                run_denoise_steps(latents, texts, sched, w, 1, 8, accel_cfg)
            return counter

        off = counted(None)
        assert off.total == 8 * step_flops(cfg, n)
        assert all(s.flops == step_flops(cfg, n) for s in off.steps)

        reused = counted(AccelConfig(cache_point=never(8),
                                     skip_point=never(8), reuse=True))
        for site in ("down.self", "down.cross", "mid.self", "mid.cross",
                     "up.self", "up.cross"):
            for t in range(1, 9):
                assert off.tagged[(t, f"{site}/map")] == \
                    n * reused.tagged[(t, f"{site}/map")], (site, t)

        for gated in (
            AccelConfig(cache_point=3, skip_point=never(8)),
            AccelConfig(cache_point=never(8), skip_point=4),
            AccelConfig(cache_point=never(8), skip_point=never(8), reuse=True),
            AccelConfig(cache_point=3, skip_point=4, reuse=True),
        ):
            total = counted(gated).total
            assert total <= off.total
            assert total == expected_run_flops(cfg, n, gated, 1, 8)

    _report(10, "counted FLOPs equal the closed form; reuse divides map "
                "work by N; gates never increase counts", body)


def test_criterion_11_distinguisher_bound():
    def body():
        cfg = _session(k=10)
        for vary, n in ((("gender",), 2), (("gender", "age"), 6)):
            verdict = distinguisher_experiment(LEX, cfg, 1000,
                                               adversary="hash", vary=vary)
            assert verdict.class_size == n
            sigma = math.sqrt((1.0 / n) * (1 - 1.0 / n) / 1000)
            assert abs(verdict.adversary_accuracy - 1.0 / n) <= 3 * sigma
            assert verdict.passed

    _report(11, "transcript-only adversary accuracy within 3 sigma of 1/N "
                "over 1000 trials, N in {2, 6}", body)
