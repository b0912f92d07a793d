import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oblix.accel
import oblix.denoiser
from oblix.accel import (
    MAP_CHUNK_BYTES,
    AccelConfig,
    AccelState,
    StepPlan,
    attend,
    never,
    reuse_active,
    run_plan,
    should_recompute_attention,
    should_skip_blocks,
    step_gates,
)
from oblix.denoiser import (
    ModelConfig,
    ModelWeights,
    embed_prompt,
    run_denoise_steps,
    unet_forward,
)
from oblix.errors import ConfigError, InternalError, ShapeError
from oblix.schedule import NoiseSchedule
from oblix.tensor import Rng, row_blocks

from bitwise import Ledger, WriteLog, same_bits, spy_attend, spy_states


CFG = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
W = ModelWeights.build(CFG, 7)


def _texts(n):
    return [embed_prompt(f"prompt number {i}", CFG) for i in range(n)]


def _stacked(blocks):
    """Row-stack (m, d) blocks into the (n*m, d) layout `attend` takes."""
    return np.concatenate(blocks)


def _latents(n, seed=5):
    return np.stack([Rng(seed + i).gaussian((CFG.channels, CFG.res, CFG.res))
                     for i in range(n)])


# --- gate predicates ---------------------------------------------------------

def test_cache_gate_examples():
    cfg = AccelConfig(cache_point=3, refresh_period=5)
    assert should_recompute_attention(2, cfg) is True
    assert should_recompute_attention(4, cfg) is False
    assert should_recompute_attention(5, cfg) is True


def test_skip_gate_examples():
    cfg = AccelConfig(skip_point=6)
    assert should_skip_blocks(5, cfg) is False
    assert should_skip_blocks(6, cfg) is True


def test_skip_gate_never_encoding():
    cfg = AccelConfig(skip_point=never(25))
    assert not any(should_skip_blocks(t, cfg) for t in range(1, 26))


def test_skip_point_one_refused_with_diagnostic():
    # a skip at iteration 1 would have no cached mid features to feed
    with pytest.raises(ConfigError, match="skip_point must be >= 2, got 1"):
        AccelConfig(skip_point=1)
    assert AccelConfig(skip_point=2).skip_point == 2


def test_gate_truth_tables_for_shipped_configurations():
    for r in (3, 4):
        for s in (3, 6):
            cfg = AccelConfig(cache_point=r, skip_point=s)
            for t in range(1, 26):
                assert should_recompute_attention(t, cfg) == (
                    t <= r or t % 5 == 0)
                assert should_skip_blocks(t, cfg) == (t >= s)


def test_gate_totality():
    cfg = AccelConfig(cache_point=4, skip_point=6, reuse=True)
    for t in range(1, 26):
        assert should_recompute_attention(t, cfg) in (True, False)
        assert should_skip_blocks(t, cfg) in (True, False)
        assert reuse_active(t, cfg, 2) in (True, False)
        assert reuse_active(t, cfg, 1) is False   # one row has no map to share


def test_run_plan_matches_the_per_step_gates():
    for cache, skip, refresh, reuse, steps, batch in itertools.product(
            (1, 2, 4, 8), (2, 4, 8, 9), (1, 3, 5), (False, True),
            (1, 4, 8), (1, 2)):
        cfg = AccelConfig(cache_point=cache, skip_point=skip,
                          refresh_period=refresh, reuse=reuse, pivot_index=1)
        plan = run_plan(cfg, 1, steps, batch)
        assert list(plan) == list(range(1, steps + 1))
        for t, step in plan.items():
            assert step.gates == step_gates(t, cfg, batch) == (
                should_recompute_attention(t, cfg), should_skip_blocks(t, cfg),
                reuse_active(t, cfg, batch)), (cfg, t, batch)
            assert step.pivot == (1 if step.gates.reuse else None)
            assert step_gates(t, None, batch) == (True, False, False)
        # a run that reads a cache keeps what it reads, and only such a run
        reads = any(not should_recompute_attention(t, cfg)
                    or should_skip_blocks(t, cfg) for t in range(1, steps + 1))
        keeps = any(step.keep or step.keep_mid for step in plan.values())
        assert keeps == reads, (cfg, steps, batch)
    assert list(run_plan(None, 3, 9, 2).values()) == [StepPlan()] * 7


def test_paper_default_plan_keeps_the_step_five_up_sites_and_mid():
    # step 5 writes the two up-site outputs and the mid features, and no
    # other step writes; the serving steps 6-8 keep the up outputs for the
    # next, step 9 releases them, and step 10, the last skip, the mid
    cfg = AccelConfig(switch_point=10, cache_point=4, skip_point=6,
                      reuse=True, refresh_period=5)
    plan = run_plan(cfg, 1, 10, 30)
    written = {t: sorted(step.keep) for t, step in plan.items()
               if step.gates.recompute and step.keep}
    assert written == {5: ["up.cross", "up.self"]}
    assert [t for t, step in plan.items()
            if not step.gates.skip and step.keep_mid] == [5]
    held = {t: (sorted(step.keep), step.keep_mid)
            for t, step in plan.items() if step.keep or step.keep_mid}
    assert held == {**{t: (["up.cross", "up.self"], True)
                       for t in (5, 6, 7, 8)}, 9: ([], True)}


def test_run_that_reads_before_it_writes_is_refused():
    # a run's caches start empty: a late start that serves the cache or
    # skips first is refused, one whose first read follows a write is not
    cfg = AccelConfig(cache_point=2, skip_point=7, refresh_period=5)
    for first in (3, 4, 7):
        with pytest.raises(ConfigError, match="reads a cache it never wrote"):
            run_plan(cfg, first, 9, 2)
    late = run_plan(cfg, 5, 9, 2)
    assert len(late[5].keep) == 6 and late[6].keep_mid
    assert run_plan(AccelConfig(reuse=True), 4, 9, 2)[4].pivot == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        AccelConfig(switch_point=-1)
    with pytest.raises(ConfigError):
        AccelConfig(cache_point=0)
    with pytest.raises(ConfigError):
        AccelConfig(refresh_period=0)
    with pytest.raises(ConfigError):
        AccelConfig(pivot_index=-2)


# --- batch reuse ----------------------------------------------------------------

def _plain_site(q_in, kv_in, site):
    """Direct evaluation of the attention equations in raw numpy."""
    p = W.attn(site)
    q = q_in @ p.wq
    k = kv_in @ p.wk
    scores = (q @ k.T) * np.float32(1.0 / math.sqrt(p.wq.shape[1]))
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores, dtype=np.float32)
    m = e / e.sum(axis=1, keepdims=True, dtype=np.float32)
    return m @ (kv_in @ p.wv)


def test_reuse_single_row_equals_plain_attention():
    row = Rng(1).gaussian((CFG.tokens, CFG.width))
    p = W.attn("down.self")
    for n in (1, 3):
        rows = _stacked([row] * n)
        shared = attend(rows, rows, p, "down.self", n, pivot=0)
        plain = attend(rows, rows, p, "down.self", n)
        assert same_bits(shared, plain)
    want = _plain_site(row, row, "down.self")
    assert np.allclose(row_blocks(shared, n)[0], want, atol=1e-6)


def test_reuse_pivot_row_is_bitwise_invariant():
    n = 4
    qs = [Rng(10 + i).gaussian((CFG.tokens, CFG.width)) for i in range(n)]
    p = W.attn("mid.self")
    for pivot in (0, 2):
        out = attend(_stacked(qs), _stacked(qs), p, "mid.self", n, pivot=pivot)
        solo = attend(qs[pivot], qs[pivot], p, "mid.self", 1, pivot=0)
        assert same_bits(row_blocks(out, n)[pivot], solo)


def test_reuse_against_direct_pivot_map_oracle():
    n = 3
    qs = [Rng(20 + i).gaussian((CFG.tokens, CFG.width)) for i in range(n)]
    kvs = [Rng(30 + i).gaussian((CFG.token_capacity, CFG.d_text))
           for i in range(n)]
    p = W.attn("down.cross")
    q_star = qs[0] @ p.wq
    k_star = kvs[0] @ p.wk
    scores = (q_star @ k_star.T) * np.float32(1.0 / math.sqrt(CFG.width))
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores, dtype=np.float32)
    m_star = e / e.sum(axis=1, keepdims=True, dtype=np.float32)
    out = row_blocks(attend(_stacked(qs), _stacked(kvs), p, "down.cross", n,
                            pivot=0), n)
    for i in range(n):
        want = m_star @ (kvs[i] @ p.wv)
        assert np.allclose(out[i], want, atol=1e-6)


def test_reuse_pivot_out_of_range():
    q = Rng(1).gaussian((CFG.tokens, CFG.width))
    with pytest.raises(ConfigError):
        attend(q, q, W.attn("up.self"), "up.self", 1, pivot=3)
    # a key/value batch that does not split into the query's row count
    kv = Rng(2).gaussian((CFG.tokens + 1, CFG.width))
    with pytest.raises(ShapeError):
        attend(_stacked([q, q]), kv, W.attn("up.self"), "up.self", 2)


# --- map chunks ---------------------------------------------------------------

def _rows_per_chunk(site):
    kv_tokens = CFG.token_capacity if site.endswith("cross") else CFG.tokens
    return max(1, MAP_CHUNK_BYTES // (4 * CFG.tokens * kv_tokens))


def _site_inputs(site, n, seed=40):
    qs = [Rng(seed + i).gaussian((CFG.tokens, CFG.width)) for i in range(n)]
    if site.endswith("self"):
        return _stacked(qs), _stacked(qs)
    kvs = [Rng(seed + 100 + i).gaussian((CFG.token_capacity, CFG.d_text))
           for i in range(n)]
    return _stacked(qs), _stacked(kvs)


@pytest.mark.parametrize("site", ["down.self", "mid.cross"])
@pytest.mark.parametrize("pivot", [None, 1])
def test_attention_bits_do_not_depend_on_the_chunk_size(site, pivot,
                                                        monkeypatch):
    # the self sites of this model take 64-row chunks, the cross sites 512
    assert (_rows_per_chunk("down.self"), _rows_per_chunk("mid.cross")) \
        == (64, 512)
    n = 7
    q, kv = _site_inputs(site, n)
    want = attend(q, kv, W.attn(site), site, n, pivot)
    map_bytes = 4 * CFG.tokens * (kv.shape[0] // n)
    for budget in (1, map_bytes, 2 * map_bytes, 3 * map_bytes - 1,
                   n * map_bytes, 10 * n * map_bytes):
        monkeypatch.setattr(oblix.accel, "MAP_CHUNK_BYTES", budget)
        assert same_bits(attend(q, kv, W.attn(site), site, n, pivot), want), \
            budget


def _poisoned_site(site, sign):
    """Site weights whose scores are q @ (sign * kv).T times the scale, so a
    token of 1e20 in a row's queries and keys overflows its own score."""
    p = W.attn(site)
    eye = np.eye(CFG.width, dtype=np.float32)
    return dataclasses.replace(p, wq=eye, wk=np.float32(sign) * eye)


@pytest.mark.parametrize("site,n,row", [
    ("down.self", 16, 15),   # the last row of a ragged 16-row chunk
    ("down.self", 17, 16),   # the last row of an odd-height ragged chunk
    ("down.self", 64, 63),   # the last row of a full 64-row chunk
    ("down.self", 65, 64),   # the one-row chunk after it
    ("up.cross", 3, 2),      # the last row of a 3-row chunk
    ("up.cross", 1, 0),      # one row, as on the device
])
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["-inf", "+inf"])
def test_a_non_finite_score_in_any_row_of_a_chunk_is_refused(site, n, row,
                                                             sign):
    # a -inf score leaves a finite softmax (its weight is 0) and a finite
    # output, so only the check of the score buffer can refuse it
    q, kv = (a.copy() for a in _site_inputs(site, n))
    if site.endswith("self"):
        kv = q
    q[row * CFG.tokens] = 1e20
    kv[row * (kv.shape[0] // n)] = 1e20
    params = _poisoned_site(site, sign)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InternalError):
            attend(q, kv, params, site, n)
        with pytest.raises(InternalError):  # the pivot's shared map
            attend(q, kv, params, site, n, pivot=row)


# --- state and refresh ------------------------------------------------------------

def _forward_steps(cfg, steps, state, x=None):
    """Run iterations ``steps`` of ``cfg``'s 25-step plan through one state."""
    plan = run_plan(cfg, 1, 25, 2)
    x = _latents(2) if x is None else x
    for t in steps:
        x = oblix.denoiser.unet_forward(x, _texts(2), t, W, plan[t], state)
    return x


def test_fresh_state_has_no_cache_to_serve():
    # a state starts empty, so a step that serves the cache before any
    # recompute wrote it is refused, never served stale data: one that
    # keeps what it serves (3) and one that releases it (4) alike
    cfg = AccelConfig(cache_point=2, skip_point=never(25))
    plan = run_plan(cfg, 1, 25, 2)
    assert len(plan[3].keep) == 6 and not plan[4].keep
    for t in (3, 4):
        with pytest.raises(InternalError):
            _forward_steps(cfg, [t], AccelState())


def test_cache_refresh_overwrites_every_fifth_step(monkeypatch):
    # every recompute step attends at all six sites; only a step whose
    # next step serves the cache writes them: 3, then each refresh but 25;
    # each serving step keeps them but the last before a refresh, which
    # releases them, so the state holds all six or none after each step
    cfg = AccelConfig(cache_point=3, skip_point=never(25), refresh_period=5)
    attended = spy_attend(monkeypatch)
    state = AccelState()
    state.cached_attention = writes = WriteLog()
    sites = {"down.self", "down.cross", "mid.self", "mid.cross",
             "up.self", "up.cross"}
    x, held = None, []
    for t in range(1, 26):
        x = _forward_steps(cfg, [t], state, x)
        assert set(state.cached_attention) in (set(), sites), t
        held += [t] if state.cached_attention else []
    assert held == [3, *(t for t in range(5, 24) if t % 5 != 4)]
    for log, want in ((attended, {t for t in range(1, 26)
                                  if t <= 3 or t % 5 == 0}),
                      (writes.log, {3, 5, 10, 15, 20})):
        by_step = {}
        for t, site, _ in log:
            by_step.setdefault(t, []).append(site)
        assert set(by_step) == want
        assert all(sorted(v) == sorted(sites) for v in by_step.values())
    # a kept write is the very output its step attended
    outputs = {(t, site): out for t, site, out in attended}
    assert all(outputs[t, site] is out for t, site, out in writes.log)


def test_cached_output_is_served_between_refreshes():
    cfg = AccelConfig(cache_point=2, skip_point=never(25))
    state = AccelState()
    x = _forward_steps(cfg, (1, 2), state)
    cached = {site: out.tobytes()
              for site, out in state.cached_attention.items()}
    assert len(cached) == 6
    _forward_steps(cfg, [3], state, x)  # t=3 > r, not a refresh step
    after = {site: out.tobytes()
             for site, out in state.cached_attention.items()}
    assert cached == after


def test_cached_arrays_are_read_only():
    state = AccelState()
    _forward_steps(AccelConfig(cache_point=2, skip_point=3), (1, 2), state)
    assert sorted(state.cached_attention) == ["up.cross", "up.self"]
    for out in (*state.cached_attention.values(), state.mid_features):
        with pytest.raises(ValueError):
            out[0, 0] = 0.0


def test_disabled_gates_match_accel_free_path_bitwise():
    neutral = AccelConfig(cache_point=never(25), skip_point=never(25),
                          reuse=False)
    step = run_plan(neutral, 1, 25, 3)[4]
    x = _latents(3, seed=77)
    texts = _texts(3)
    with_accel = unet_forward(x, texts, 4, W, step, AccelState())
    without = unet_forward(x, texts, 4, W)
    assert same_bits(with_accel, without)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 26), st.integers(2, 26), st.integers(1, 6),
       st.booleans(), st.integers(1, 25), st.sampled_from([1, 2, 6]))
@example(26, 26, 5, True, 25, 1)      # neutral: reuse on one row
@example(4, 6, 5, True, 10, 6)        # the paper's default gates
def test_a_run_caches_exactly_what_later_steps_read(cache, skip, refresh,
                                                     reuse, k, n):
    cfg = AccelConfig(switch_point=k, cache_point=cache, skip_point=skip,
                      refresh_period=refresh, reuse=reuse)
    x, texts, sched = _latents(n), _texts(n), NoiseSchedule(25)
    decided, real_gates = [], oblix.accel.step_gates
    with pytest.MonkeyPatch.context() as m:
        attended = spy_attend(m)
        made = spy_states(m, Ledger)
        m.setattr(oblix.accel, "step_gates",
                  lambda t, *rest: decided.append(t) or real_gates(t, *rest))
        held, forward = [], oblix.denoiser.unet_forward

        def snapshot(latents, texts, t, w, step, state=None):
            eps = forward(latents, texts, t, w, step, state)
            if state is not None:
                held.append((t, state.held()))
            return eps

        m.setattr(oblix.denoiser, "unet_forward", snapshot)
        out = run_denoise_steps(x, texts, sched, W, 1, k, cfg)
    assert decided == list(range(1, k + 1))  # each step's gates, once
    plan = run_plan(cfg, 1, k, n)
    assert len(made) == any(s.keep or s.keep_mid for s in plan.values())
    writes = made[0].cached_attention.log if made else []
    reads = made[0].reads if made else []
    assert sorted((t, site) for t, site, _ in writes if site != "mid") == \
        sorted((t, site) for t, step in plan.items() if step.gates.recompute
               for site in step.keep)
    # every read finds the output of its site's last recompute (the last
    # mid features), as a run that cached every output would serve it
    for t, key, got in reads:
        source = writes if key == "mid" else attended
        assert got is [out for u, site, out in source
                       if u < t and site == key][-1], (t, key)
    # every kept write is read at least once
    for t, key, out in writes:
        assert any(u > t and site == key and got is out
                   for u, site, got in reads), (t, key)

    # after each step the state holds exactly what a later step reads: the
    # key of each read after t of an array written at or before t
    def written_at(key, got):
        source = writes if key == "mid" else attended
        return next(u for u, site, out in source if out is got)

    assert [t for t, _ in held] == (list(range(1, k + 1)) if made else [])
    for t, now in held:
        assert now == {key for u, key, got in reads
                       if u > t and written_at(key, got) <= t}, t
    if all(step.gates == StepPlan().gates for step in plan.values()):
        assert made == []
        assert same_bits(out, run_denoise_steps(x, texts, sched, W, 1, k))
