import dataclasses
import itertools
import math

import numpy as np
import pytest

import oblix.accel
from oblix.accel import (
    MAP_CHUNK_BYTES,
    AccelConfig,
    AccelState,
    attend,
    gates_fire,
    never,
    reuse_active,
    should_recompute_attention,
    should_skip_blocks,
    step_gates,
)
from oblix.denoiser import ModelConfig, ModelWeights, embed_prompt, unet_forward
from oblix.errors import ConfigError, InternalError, ShapeError
from oblix.tensor import Rng, row_blocks

from bitwise import WriteLog, same_bits


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


def test_gates_fire_matches_the_per_step_gates():
    for cache, skip, refresh, reuse, steps, batch in itertools.product(
            (1, 2, 4, 8), (2, 4, 8, 9), (1, 3, 5), (False, True),
            (1, 4, 8), (1, 2)):
        cfg = AccelConfig(cache_point=cache, skip_point=skip,
                          refresh_period=refresh, reuse=reuse)
        for t in range(1, steps + 1):
            assert step_gates(t, cfg, batch) == (
                should_recompute_attention(t, cfg), should_skip_blocks(t, cfg),
                reuse_active(t, cfg, batch)), (cfg, t, batch)
            assert step_gates(t, None, batch) == (True, False, False)
        fires = any(not should_recompute_attention(t, cfg)
                    or should_skip_blocks(t, cfg)
                    or reuse_active(t, cfg, batch)
                    for t in range(1, steps + 1))
        assert gates_fire(cfg, steps, batch) == fires, (cfg, steps, batch)


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
    # the self sites of this model take 16-row chunks, the cross sites 128
    assert (_rows_per_chunk("down.self"), _rows_per_chunk("mid.cross")) \
        == (16, 128)
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
    ("down.self", 16, 15),   # the last row of a full 16-row chunk
    ("down.self", 17, 16),   # the one-row chunk after it
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

def test_fresh_state_has_no_cache_to_serve():
    # a state starts empty, so a step that serves the cache before any
    # recompute wrote it is refused, never served stale data
    state = AccelState(AccelConfig(cache_point=2, skip_point=never(25)))
    with pytest.raises(InternalError):
        unet_forward(_latents(2), _texts(2), 3, W, state)


def test_cache_refresh_overwrites_every_fifth_step():
    cfg = AccelConfig(cache_point=3, skip_point=never(25), refresh_period=5)
    state = AccelState(cfg)
    state.cached_attention = writes = WriteLog()
    x = _latents(2)
    for t in range(1, 26):
        writes.step = t
        x = unet_forward(x, _texts(2), t, W, state)
    recompute_steps = {t for t in range(1, 26) if t <= 3 or t % 5 == 0}
    sites = {"down.self", "down.cross", "mid.self", "mid.cross",
             "up.self", "up.cross"}
    written = {}
    for t, site, _ in writes.log:
        written.setdefault(t, []).append(site)
    assert set(written) == recompute_steps
    assert all(sorted(v) == sorted(sites) for v in written.values())


def test_cached_output_is_served_between_refreshes():
    cfg = AccelConfig(cache_point=2, skip_point=never(25))
    state = AccelState(cfg)
    x = _latents(2)
    for t in (1, 2):
        x = unet_forward(x, _texts(2), t, W, state)
    cached = {site: out.tobytes()
              for site, out in state.cached_attention.items()}
    unet_forward(x, _texts(2), 3, W, state)  # t=3 > r, not a refresh step
    after = {site: out.tobytes()
             for site, out in state.cached_attention.items()}
    assert cached == after


def test_cached_arrays_are_read_only():
    state = AccelState(AccelConfig(cache_point=2, skip_point=3))
    x = _latents(2)
    for t in (1, 2):
        x = unet_forward(x, _texts(2), t, W, state)
    for out in (*state.cached_attention.values(), state.mid_features):
        with pytest.raises(ValueError):
            out[0, 0] = 0.0


def test_disabled_gates_match_accel_free_path_bitwise():
    neutral = AccelConfig(cache_point=never(25), skip_point=never(25),
                          reuse=False)
    state = AccelState(neutral)
    x = _latents(3, seed=77)
    texts = _texts(3)
    with_accel = unet_forward(x, texts, 4, W, state)
    without = unet_forward(x, texts, 4, W, None)
    assert same_bits(with_accel, without)
