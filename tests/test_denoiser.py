import dataclasses
import gc
import hashlib
import math
import os
import pathlib
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oblix.denoiser
from oblix.accel import AccelConfig, AccelState, attend, never, run_plan
from oblix.denoiser import (
    ModelConfig,
    ModelWeights,
    ShardHelpers,
    decode_latent,
    embed_prompt,
    run_denoise_steps,
    unet_forward,
)
from oblix.errors import ConfigError, InputError, ProtocolError
from oblix.oblivious import DEFAULT_TEMPLATES, default_lexicon, generate_corpus
from oblix.protocol import run_device_steps
from oblix.schedule import NoiseSchedule
from oblix.tensor import FlopsCounter, Rng, StepCost, fnv1a64, use_flops_counter

from bitwise import Ledger, blas_kernel, same_bits, spy_states

CFG = ModelConfig(res=8, width=16, d_text=16, token_capacity=8)
W = ModelWeights.build(CFG, 7)
DEFAULT_W = ModelWeights.build(ModelConfig(), 1001)


# --- text embedding -----------------------------------------------------------

def test_embed_is_deterministic():
    a = embed_prompt("a portrait of a fox", CFG)
    b = embed_prompt("a portrait of a fox", CFG)
    assert same_bits(a, b)


def test_embed_single_token_locality():
    a = embed_prompt("a portrait of a fox", CFG)
    b = embed_prompt("a portrait of a cat", CFG)
    differs = [i for i in range(CFG.token_capacity)
               if not np.array_equal(a[i], b[i])]
    assert differs == [4]


def test_embed_token_swap_permutes_rows():
    ab = embed_prompt("alpha beta", CFG)
    ba = embed_prompt("beta alpha", CFG)
    assert np.array_equal(ab[0], ba[1])
    assert np.array_equal(ab[1], ba[0])
    assert np.array_equal(ab[2:], ba[2:])  # shared pad rows


def test_embed_truncates_at_capacity():
    long_prompt = " ".join(f"tok{i}" for i in range(40))
    e = embed_prompt(long_prompt, CFG)
    assert e.shape == (CFG.token_capacity, CFG.d_text)


def test_embed_rejects_empty_prompt():
    with pytest.raises(InputError):
        embed_prompt("   ", CFG)


def _gaussian_oracle(seed: int, n: int) -> np.ndarray:
    """One token's row, drawn on its own: splitmix64 of (seed + i * golden)
    for i = 1, 2, ..., 53-bit uniforms in (0, 1], Box-Muller over
    consecutive pairs, rounded to float32."""
    pairs = (n + 1) // 2
    idx = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    x = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    u = ((x >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * math.pi * u[1::2]
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n].astype(np.float32)


def _embed_oracle(prompt: str, cfg: ModelConfig) -> np.ndarray:
    """Each token drawn on its own, then the pad row to capacity."""
    tokens = prompt.split()[:cfg.token_capacity]
    rows = [_gaussian_oracle(fnv1a64(t.encode("utf-8")), cfg.d_text)
            for t in tokens]
    pad = _gaussian_oracle(fnv1a64(b"\x00oblix-pad\x00"), cfg.d_text)
    return np.stack(rows + [pad] * (cfg.token_capacity - len(rows)))


def test_embed_matches_per_token_oracle():
    prompts = [rec["prompt"] for rec in generate_corpus(DEFAULT_TEMPLATES,
                                                        default_lexicon())]
    assert len(prompts) == 300
    for cfg in (ModelConfig(), CFG, ModelConfig(d_text=7, token_capacity=3)):
        cap = cfg.token_capacity
        edges = [" ".join(f"tök{i}" for i in range(k))
                 for k in (1, cap - 1, cap, cap + 1, 3 * cap) if k > 0]
        for prompt in prompts + edges:
            got = embed_prompt(prompt, cfg)
            assert got.flags.c_contiguous and not got.flags.writeable
            assert same_bits(got, _embed_oracle(prompt, cfg)), (cfg, prompt)


# --- attention -----------------------------------------------------------------

def test_attention_single_token_softmax_collapses():
    q = Rng(1).gaussian((1, CFG.width))
    kv = Rng(2).gaussian((1, CFG.width))
    out = attend(q, kv, W.attn("down.self"), "down.self", 1)
    want = kv @ W.attn("down.self").wv
    assert np.allclose(out, want, atol=1e-6)


def test_attention_zero_projections_give_uniform_map():
    zero = np.zeros((CFG.width, CFG.width), np.float32)
    w2 = W.replace(**{"mid.self.wq": zero, "mid.self.wk": zero})
    q = Rng(3).gaussian((4, CFG.width))
    kv = Rng(4).gaussian((5, CFG.width))
    out = attend(q, kv, w2.attn("mid.self"), "mid.self", 1)
    v = kv @ w2.attn("mid.self").wv
    want = np.tile(v.mean(axis=0), (4, 1))
    assert np.allclose(out, want, atol=1e-6)


def test_attention_matches_direct_equation_oracle():
    q_in = Rng(5).gaussian((6, CFG.width))
    kv_in = Rng(6).gaussian((CFG.token_capacity, CFG.d_text))
    p = W.attn("up.cross")
    q = q_in @ p.wq
    k = kv_in @ p.wk
    scores = (q @ k.T) / math.sqrt(CFG.width)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    m = e / e.sum(axis=1, keepdims=True)
    want = m @ (kv_in @ p.wv)
    got = attend(q_in, kv_in, p, "up.cross", 1)
    assert np.allclose(got, want, atol=1e-5)


# --- unet -----------------------------------------------------------------------

def _texts(prompts):
    return [embed_prompt(p, CFG) for p in prompts]


def test_unet_duplicated_rows_are_bitwise_equal():
    row = Rng(9).gaussian((CFG.channels, CFG.res, CFG.res))
    batch = np.stack([row, row])
    out = unet_forward(batch, _texts(["same text", "same text"]), 3, W)
    assert same_bits(out[0], out[1])


def test_unet_rows_are_independent_under_permutation():
    rows = [Rng(40 + i).gaussian((CFG.channels, CFG.res, CFG.res))
            for i in range(3)]
    prompts = ["first text", "second text", "third text"]
    out = unet_forward(np.stack(rows), _texts(prompts), 2, W)
    perm = [2, 0, 1]
    out_p = unet_forward(np.stack([rows[i] for i in perm]),
                         _texts([prompts[i] for i in perm]), 2, W)
    for new_pos, old_pos in enumerate(perm):
        assert same_bits(out_p[new_pos], out[old_pos])


def test_unet_is_deterministic():
    batch = np.stack([Rng(50).gaussian((CFG.channels, CFG.res, CFG.res))])
    texts = _texts(["stable text"])
    assert same_bits(unet_forward(batch, texts, 5, W),
                     unet_forward(batch, texts, 5, W))


def test_unet_validates_batch():
    batch = np.stack([Rng(1).gaussian((CFG.channels, CFG.res, CFG.res))])
    with pytest.raises(ConfigError):
        unet_forward(batch, _texts(["a", "b"]), 1, W)


@pytest.mark.parametrize("n", [1, 2, 31, 256])
def test_per_row_mix_has_the_bits_of_each_rows_solo_product(n):
    # a flat token-major product of the batch, (S, S) @ (S, n*width), gave
    # these bits on an AVX-512 OpenBLAS kernel but not under Haswell's, so
    # each row's own product is the reference
    w = ModelWeights.build(ModelConfig(), 1001)
    h = np.tanh(Rng(n).gaussian((n * w.cfg.tokens, w.cfg.width)))
    for name in ("mix_down", "mix_up"):
        got = oblix.denoiser._mix(w[name], h, n)
        solo = np.concatenate([w[name] @ block
                               for block in h.reshape(n, w.cfg.tokens, -1)])
        assert same_bits(got, solo), name
        assert not got.flags.writeable


def test_skip_feeds_cached_mid_features_bitwise():
    plan = run_plan(AccelConfig(cache_point=never(25), skip_point=3), 1, 4, 1)
    state = AccelState()
    x = np.stack([Rng(60).gaussian((CFG.channels, CFG.res, CFG.res))])
    texts = _texts(["skip test"])
    x1 = unet_forward(x, texts, 1, W, plan[1], state)
    assert state.mid_features is None  # iteration 2 does not skip
    x2 = unet_forward(x1, texts, 2, W, plan[2], state)
    frozen = state.mid_features.tobytes()
    skipped = unet_forward(x2, texts, 3, W, plan[3], state)
    # skip must not touch the cache, and the output must differ from a
    # full recomputation at the same step
    assert state.mid_features.tobytes() == frozen
    full = unet_forward(x2, texts, 3, W)
    assert not same_bits(skipped, full)


def _golden_forward():
    w = ModelWeights.build(ModelConfig(), 1001)
    batch = np.stack([Rng(42).gaussian((4, 16, 16))])
    return unet_forward(batch, [embed_prompt("golden reference prompt",
                                             w.cfg)], 1, w)


def test_golden_snapshot_no_accel():
    # pinned after the attention/equation oracles above passed; a golden is
    # one BLAS kernel's bits, since kernels sum a product in other orders:
    # this one is SkylakeX's, at any thread count tried, and the kernel
    # oracle below checks Haswell's at one thread
    kernel = blas_kernel()
    if kernel != "SkylakeX":
        pytest.skip(f"the golden is the SkylakeX kernel's, not {kernel}'s")
    out = _golden_forward()
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert out.shape == (1, 4, 16, 16)
    assert digest == GOLDEN_SHA256
    sample = out.ravel()
    assert np.allclose(sample[:3], GOLDEN_HEAD, atol=0)


GOLDEN_SHA256 = "1b0ef2d7397821a1aec8091ce67ddcea5868c6b507fb89e9755bba94ce1220b8"
GOLDEN_HEAD = [0.8328762054443359, 0.3854965567588806, 0.7217596769332886]
# the Haswell kernel at one BLAS thread; with two it gives other bits again
GOLDEN_SHA256_HASWELL = \
    "c3a694fc414d73ba0d92230b76ba0935d2a23a31cbea2da1cd811845c87bc1fe"


# Batch invariance under the Haswell kernel, which an AVX2-only CPU runs:
# it gives a flat (N*256, 32) @ (32, 32) product other bits than its row
# blocks at every N >= 2, so every row-stacked product must be a block
# product for these checks to hold.  Prints one line per failed check,
# SKIP if the kernel did not change, else the golden's digest.
KERNEL_ORACLE = """
import dataclasses, hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from bitwise import blas_kernel, same_bits
from test_denoiser import PAPER_DEFAULT, _golden_forward
from oblix.accel import AccelConfig
from oblix.denoiser import (ModelConfig, ModelWeights, embed_prompt,
                            run_denoise_steps, unet_forward)
from oblix.schedule import NoiseSchedule
from oblix.tensor import FlopsCounter, Rng, use_flops_counter

h = Rng(1).gaussian((2 * 256, 32))
b = Rng(2).gaussian((32, 32))
if same_bits(h @ b, np.matmul(h.reshape(2, 256, 32), b).reshape(512, 32)):
    sys.exit(f"SKIP the {blas_kernel()} kernel gives a flat product the bits "
             "of its row blocks, so OPENBLAS_CORETYPE took no effect")
w = ModelWeights.build(ModelConfig(), 1001)
texts = [embed_prompt(f"candidate {i} of a calm forest", w.cfg)
         for i in range(31)]
rows = [Rng(60 + i).gaussian((4, 16, 16)) for i in range(31)]
failed = []
def check(ok, name):
    if not ok:
        failed.append(name)
out = unet_forward(np.stack(rows[:1] * 2), texts[:1] * 2, 3, w)
check(same_bits(out[0], out[1]), "duplicated rows")
perm = [2, 0, 1]
out = unet_forward(np.stack(rows[:3]), texts[:3], 2, w)
out_p = unet_forward(np.stack([rows[i] for i in perm]),
                     [texts[i] for i in perm], 2, w)
check(all(same_bits(out_p[a], out[b]) for a, b in enumerate(perm)),
      "permutation")
for n in (2, 31):
    out = unet_forward(np.stack(rows[:n]), texts[:n], 4, w)
    check(all(same_bits(out[i], unet_forward(rows[i][None], texts[i:i + 1],
                                             4, w)[0]) for i in range(n)),
          f"solo rows at N={n}")
sched = NoiseSchedule(25)
reuse = AccelConfig(switch_point=3, cache_point=2, reuse=True, pivot_index=2)
x = np.stack([rows[0]] * 5)
out = run_denoise_steps(x, texts[:5], sched, w, 1, 3, reuse)
pair = dataclasses.replace(reuse, pivot_index=0)
check(all(same_bits(out[i], run_denoise_steps(
    x[:2], [texts[2], texts[i]], sched, w, 1, 3, pair)[1]) for i in range(5)),
    "pivot reuse")
runs = []
for shards in (1, 2):
    counter = FlopsCounter()
    with use_flops_counter(counter):
        out = run_denoise_steps(np.stack(rows[:16]), texts[:16], sched, w,
                                1, 10, PAPER_DEFAULT, shards=shards)
    runs.append((out.tobytes(), counter.total, counter.steps, counter.tagged))
check(runs[0] == runs[1], "2 shards against 1 at N=16")
for name in failed:
    print(name)
print(hashlib.sha256(_golden_forward().tobytes()).hexdigest())
"""


def test_rows_keep_their_bits_under_the_haswell_kernel():
    tests = pathlib.Path(__file__).parent
    src = str(pathlib.Path(oblix.denoiser.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", KERNEL_ORACLE, str(tests)],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": "Haswell",
             "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    if done.stderr.startswith("SKIP "):
        pytest.skip(done.stderr.strip()[5:])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [GOLDEN_SHA256_HASWELL]


PAPER_DEFAULT = AccelConfig(switch_point=10, cache_point=4, skip_point=6,
                            reuse=True, refresh_period=5)


def _shard_run(x, texts, last, accel, shards):
    """Output and counts of one run of the default model."""
    counter = FlopsCounter()
    with use_flops_counter(counter):
        out = run_denoise_steps(x, texts, NoiseSchedule(25), DEFAULT_W, 1,
                                last, accel, shards=shards)
    return out.tobytes(), counter.total, counter.steps, counter.tagged


@pytest.mark.parametrize("n,gated,pivot,helper", [
    (6, False, None, True), (6, False, None, False),
    (6, True, 0, True), (6, True, 5, True), (6, True, 4, False),
    (30, False, None, True), (30, True, 0, True), (30, True, 17, False),
    (256, False, None, True), (256, True, 200, True),
])
def test_row_shards_give_the_bits_and_counts_of_one(n, gated, pivot, helper,
                                                    monkeypatch):
    # N=6 is below the server's threshold; the argument forces two shards.
    # With a helper the second shard runs on another thread, without one
    # after the first on this thread, or, in a run that keeps no caches,
    # the step runs whole; the shard that holds the pivot hands each
    # site's map to the other
    granted, forwards = [], []
    start, forward = oblix.denoiser.HELPERS.start, oblix.denoiser.unet_forward

    def spy(fn, *args):
        future = start(fn, *args) if helper else None
        granted.append(future is not None)
        return future

    def rows(latents, *args):
        forwards.append(latents.shape[0])
        return forward(latents, *args)

    monkeypatch.setattr(oblix.denoiser.HELPERS, "start", spy)
    monkeypatch.setattr(oblix.denoiser, "unet_forward", rows)
    cfg = DEFAULT_W.cfg
    texts = [embed_prompt(f"candidate {i} of a calm forest", cfg)
             for i in range(n)]
    x = np.stack([Rng(3).gaussian((cfg.channels, cfg.res, cfg.res))] * n)
    accel = dataclasses.replace(PAPER_DEFAULT, pivot_index=pivot) \
        if gated else None
    last = 10 if gated else 2
    one = _shard_run(x, texts, last, accel, 1)
    assert granted == [] and forwards == [n] * last
    forwards.clear()
    assert _shard_run(x, texts, last, accel, 2) == one
    assert granted == [helper] * last
    halves = [n // 2, n - n // 2] if helper or gated else [n]
    assert sorted(forwards) == sorted(halves * last)
    assert oblix.denoiser.HELPERS.busy == 0


def test_more_runs_than_cores_keep_their_bits_and_free_every_core():
    # six sharded runs at once with a short switch interval, so threads
    # interleave inside the helpers' admission: each keeps the bits of one
    # shard, and afterwards no run or helper is counted, which a lost
    # update of either count would break
    accel = AccelConfig(switch_point=3, cache_point=2, reuse=True,
                        pivot_index=4)
    texts = [embed_prompt(f"candidate {i}", CFG) for i in range(6)]
    x = np.stack([Rng(5).gaussian((CFG.channels, CFG.res, CFG.res))] * 6)
    sched = NoiseSchedule(8)
    want = run_denoise_steps(x, texts, sched, W, 1, 3, accel)
    outs = []

    def one():
        outs.append(run_denoise_steps(x, texts, sched, W, 1, 3, accel,
                                      shards=2))

    threads = [threading.Thread(target=one, daemon=True) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(outs) == 6 and all(same_bits(out, want) for out in outs)
    helpers = oblix.denoiser.HELPERS
    assert (helpers.runs, helpers.busy) == (0, 0)


def test_a_failed_task_leaves_nothing_for_the_cycle_collector():
    # the exception a pool task raises reaches the caller with its class,
    # and once it is handled its traceback's frames, and the arrays they
    # hold, are freed at once: no cycle through the waiter's future keeps
    # them for the collector
    pool = ShardHelpers(1)

    def fail():
        held = np.ones(1 << 20, dtype=np.float32)  # noqa: F841
        raise ProtocolError("refused")

    pool.run(lambda: None)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        try:
            pool.run(fail)
        except ProtocolError:
            pass
        assert tracemalloc.get_traced_memory()[0] < 1 << 20
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
        pool._pool.shutdown()
    assert (pool.runs, pool.busy) == (0, 0)


# --- sampler loop ----------------------------------------------------------------

def _site_buckets(blocks, self_site, cross_site):
    """(map, value, proj) FLOPs of each block's self and cross site."""
    return {f"{b}.{kind}/{phase}": flops
            for b in blocks
            for kind, triple in (("self", self_site), ("cross", cross_site))
            for phase, flops in zip(("map", "value", "proj"), triple)}


_BLOCKS = ("down", "mid", "up")
# the counter's (step, tag) buckets and step series of the paper's default
# session on the default model: the server runs k=10 of 25 steps on N=6
# rows (cache 4, skip 6, reuse on, refresh 5) and the device finishes one
# row; any FLOP moved between buckets, added or dropped changes a figure
SERVER_LEDGER = {
    (1, 2, 3, 4): _site_buckets(_BLOCKS, (5636096, 28311552, 3194880),
                                (843776, 1769472, 3194880)),
    (5,): _site_buckets(_BLOCKS, (33816576, 28311552, 3194880),
                        (5062656, 1769472, 3194880)),
    (6, 7, 8, 9): _site_buckets(("up",), (0, 0, 3194880), (0, 0, 3194880)),
    (10,): _site_buckets(("up",), (33816576, 28311552, 3194880),
                         (5062656, 1769472, 3194880)),
}
SERVER_STEPS = [
    *(StepCost(i, 190187520, True, False, True) for i in (1, 2, 3, 4)),
    StepCost(5, 287385600, True, False, False),
    *(StepCost(i, 35874816, False, True, False) for i in (6, 7, 8, 9)),
    StepCost(10, 104835072, True, True, False),
]
DEVICE_LEDGER = {tuple(range(11, 26)): _site_buckets(
    _BLOCKS, (5636096, 4718592, 532480), (843776, 294912, 532480))}
DEVICE_STEPS = [StepCost(i, 47897600) for i in range(11, 26)]


def _buckets(ledger):
    return {(i, tag): flops for steps, table in ledger.items()
            for i in steps for tag, flops in table.items() if flops}


def test_default_session_flops_ledger():
    w = ModelWeights.build(ModelConfig(), 1001)
    sched = NoiseSchedule(25)
    accel = AccelConfig(switch_point=10, cache_point=4, skip_point=6,
                        reuse=True, refresh_period=5)
    prompts = [f"portrait of a {a} person"
               for a in ("young", "old", "tall", "short", "calm", "kind")]
    x = np.stack([Rng(3).gaussian((4, 16, 16))] * 6)
    server = FlopsCounter()
    with use_flops_counter(server):
        out = run_denoise_steps(x, [embed_prompt(p, w.cfg) for p in prompts],
                                sched, w, 1, 10, accel)
    device = FlopsCounter()
    run_device_steps(out[0], prompts[0], sched, w, 11, device)
    for counter, ledger, steps in ((server, SERVER_LEDGER, SERVER_STEPS),
                                   (device, DEVICE_LEDGER, DEVICE_STEPS)):
        assert counter.tagged == _buckets(ledger)
        assert counter.steps == steps
        assert counter.total == sum(s.flops for s in steps)
    assert (server.total, device.total) == (1296470016, 718464000)


def _traced_peak_in_hidden_states(run_accel, last):
    """Traced peak of an N=30 run of the default model over iterations
    1..last, above what it was given, in row-stacked (N*S, width) hidden
    states."""
    w = ModelWeights.build(ModelConfig(), 1001)
    n, cfg = 30, w.cfg
    texts = [embed_prompt(f"candidate {i} of a calm forest", cfg)
             for i in range(n)]
    x = np.stack([Rng(i).gaussian((cfg.channels, cfg.res, cfg.res))
                  for i in range(n)])
    sched = NoiseSchedule(25)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_denoise_steps(x, texts, sched, w, 1, last, run_accel)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return peak / (n * cfg.tokens * cfg.width * 4)


def test_an_ungated_n30_run_holds_few_hidden_states_at_its_peak():
    # the working set of a bulk server request: each array dies at its last
    # reader, attention softmax runs in place on its score buffer, values
    # are projected per chunk, tanh runs in place on its product and a
    # check of a wide array makes no mask, so a 2-step N=30 run of the
    # default model peaks at about 4.57 row-stacked (N*S, width) hidden
    # states above what it was given; it took 4.8 with a mask per check and
    # a fresh tanh result, and 7.6 when block outputs outlived their last
    # reader; keeping the input embedding and mid features alive through
    # the up block alone crossed 5.5, and so did a 1 MiB map chunk with the
    # values projected for the whole batch up front (5.8)
    peak = _traced_peak_in_hidden_states(None, 2)
    assert peak <= 4.75, peak


def test_a_paper_default_gated_run_caches_only_what_it_reads():
    # the paper's default gates (k=10, cache 4, skip 6, refresh 5, reuse)
    # keep the two up-site outputs of iteration 5 until iteration 9 and its
    # mid features until iteration 10, and nothing else, so the run peaks
    # at about 5.23 hidden states, in the up block of steps 5-9 beside
    # those three; it took 5.45 with a mask per check and a fresh tanh
    # result, 6.9 with a batch-sized copy on each side of the mix product
    # and the caches kept to the run's end, 11.7 when every site output
    # and the mid features were cached at each recompute
    accel = AccelConfig(switch_point=10, cache_point=4, skip_point=6,
                        reuse=True, refresh_period=5)
    peak = _traced_peak_in_hidden_states(accel, 10)
    assert peak <= 5.35, peak


def test_run_denoise_steps_range_validation():
    sched = NoiseSchedule(10)
    batch = np.stack([Rng(3).gaussian((CFG.channels, CFG.res, CFG.res))])
    with pytest.raises(ConfigError):
        run_denoise_steps(batch, _texts(["x"]), sched, W, 5, 11)
    with pytest.raises(ConfigError):
        run_denoise_steps(batch, _texts(["x"]), sched, W, 0, 3)


def test_each_gated_run_makes_its_own_state(monkeypatch):
    made = spy_states(monkeypatch, Ledger)
    cfg = AccelConfig(switch_point=4, cache_point=2, skip_point=3)
    batch = np.stack([Rng(5).gaussian((CFG.channels, CFG.res, CFG.res))] * 2)
    texts, sched = _texts(["one run", "its state"]), NoiseSchedule(6)
    first = run_denoise_steps(batch, texts, sched, W, 1, 4, cfg)
    again = run_denoise_steps(batch, texts, sched, W, 1, 4, cfg)
    assert same_bits(first, again)
    assert len(made) == 2 and made[0] is not made[1]
    # the same config on other weights and a one-row batch gets a third
    # state, sized for its own batch: nothing carries over between runs
    run_denoise_steps(batch[:1], texts[:1], sched, ModelWeights.build(CFG, 8),
                      1, 4, cfg)
    assert len(made) == 3
    mids = [[mid.shape[0] for _, key, mid in state.cached_attention.log
             if key == "mid"] for state in made]
    assert mids == [[2 * CFG.tokens], [2 * CFG.tokens], [CFG.tokens]]
    # the last skip released the mid features: a state ends empty
    assert [state.held() for state in made] == [set()] * 3


def test_gated_run_must_start_at_iteration_one():
    # a run's caches start empty, so gates that fire need iteration 1;
    # gates that never fire leave the run free to start anywhere
    batch = np.stack([Rng(6).gaussian((CFG.channels, CFG.res, CFG.res))])
    texts, sched = _texts(["late start"]), NoiseSchedule(6)
    with pytest.raises(ConfigError):
        run_denoise_steps(batch, texts, sched, W, 3, 6,
                          AccelConfig(cache_point=2, skip_point=never(6)))
    neutral = AccelConfig(cache_point=never(6), skip_point=never(6))
    assert same_bits(run_denoise_steps(batch, texts, sched, W, 3, 6, neutral),
                     run_denoise_steps(batch, texts, sched, W, 3, 6))


def test_run_denoise_steps_composes():
    sched = NoiseSchedule(6)
    batch = np.stack([Rng(4).gaussian((CFG.channels, CFG.res, CFG.res))])
    texts = _texts(["compose check"])
    whole = run_denoise_steps(batch, texts, sched, W, 1, 6)
    half = run_denoise_steps(batch, texts, sched, W, 1, 3)
    rest = run_denoise_steps(half, texts, sched, W, 4, 6)
    assert same_bits(whole, rest)


# --- weights serialization ---------------------------------------------------------

def test_weights_save_load_roundtrip(tmp_path):
    path = tmp_path / "model.oblw"
    W.save(str(path))
    loaded = ModelWeights.load(str(path))
    assert loaded.cfg == W.cfg
    assert loaded.fingerprint() == W.fingerprint()
    batch = np.stack([Rng(8).gaussian((CFG.channels, CFG.res, CFG.res))])
    texts = _texts(["roundtrip"])
    assert same_bits(unet_forward(batch, texts, 1, loaded),
                     unet_forward(batch, texts, 1, W))


def _param_bytes(w):
    return b"".join(w[name].tobytes()
                    for name, _ in oblix.denoiser._param_specs(w.cfg))


def test_build_load_and_gated_run_hash_no_weights(tmp_path, monkeypatch):
    weight_bytes = len(_param_bytes(W))
    hashed = []

    def counting(data):
        if len(data) == weight_bytes:
            hashed.append(len(data))
        return fnv1a64(data)

    monkeypatch.setattr(oblix.denoiser, "fnv1a64", counting)
    w = ModelWeights.build(CFG, 7)
    path = tmp_path / "model.oblw"
    w.save(str(path))
    loaded = ModelWeights.load(str(path))
    assert hashed == []  # building and loading never hash

    cfg = AccelConfig(switch_point=6, cache_point=2, skip_point=4, reuse=True,
                      refresh_period=3)
    batch = np.stack([Rng(12).gaussian((CFG.channels, CFG.res, CFG.res))] * 2)
    counter = FlopsCounter()
    with use_flops_counter(counter):
        run_denoise_steps(batch, _texts(["first", "second"]),
                          NoiseSchedule(6), loaded, 1, 6, cfg)
    # the gates fired, and still nothing hashed the weights
    assert any(s.skip for s in counter.steps)
    assert hashed == []


def test_fingerprint_equals_direct_hash_of_parameter_bytes():
    w = ModelWeights.build(CFG, 7)
    want = fnv1a64(_param_bytes(w))
    assert w.fingerprint() == want
    assert w.fingerprint() == want  # a pure function of the parameters


def test_replaced_weights_get_new_fingerprint():
    w = ModelWeights.build(CFG, 7)
    before = w.fingerprint()
    bumped = w["w_in"].copy()
    bumped[0, 0] += np.float32(0.25)
    w2 = w.replace(w_in=bumped)
    assert w2.fingerprint() != before
    assert w.fingerprint() == before


def test_parameters_are_read_only_copies():
    own = np.zeros((CFG.width, CFG.width), np.float32)
    w = W.replace(w_mid=own)
    own[0, 0] = 1.0  # the caller's array stays the caller's
    assert w["w_mid"][0, 0] == 0.0
    with pytest.raises(ValueError):
        w["w_mid"][0, 0] = 1.0
    with pytest.raises(ConfigError):
        W.replace(w_mid=np.full((CFG.width, CFG.width), np.inf, np.float32))


def test_weights_file_starts_with_magic(tmp_path):
    path = tmp_path / "model.oblw"
    W.save(str(path))
    raw = path.read_bytes()
    assert raw[:4] == b"OBLW"
    assert raw[4] == 1


def test_weights_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.oblw"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ProtocolError) as err:
        ModelWeights.load(str(path))
    assert err.value.offset == 0


def test_weights_load_rejects_truncation(tmp_path):
    path = tmp_path / "model.oblw"
    W.save(str(path))
    raw = path.read_bytes()
    truncated = tmp_path / "cut.oblw"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ProtocolError):
        ModelWeights.load(str(truncated))


def _entries(w):
    return [(name, w[name]) for name, _ in oblix.denoiser._param_specs(w.cfg)]


def _write_weights(path, entries, cfg=CFG, seed=7):
    """A weights file holding exactly ``entries``, (name, array) in order."""
    out = bytearray(b"OBLW\x01")
    out += struct.pack("<6IQ", cfg.channels, cfg.res, cfg.d_text, cfg.width,
                       cfg.token_capacity, cfg.heads, seed)
    out += struct.pack("<I", len(entries))
    for name, a in entries:
        out += struct.pack("<H", len(name)) + name.encode()
        out += struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape)
        out += a.astype("<f4").tobytes()
    path.write_bytes(bytes(out))


# each edit of a valid parameter list, and the parameter it must name
WRONG_PARAMETER_SETS = {
    "missing last": (lambda e: e[:-1], "up.cross.bo"),
    "unknown extra": (lambda e: e + [("spare", np.zeros(3, np.float32))],
                      "spare"),
    "misshapen": (lambda e: [(n, np.zeros((4, 15), np.float32)
                              if n == "w_in" else a) for n, a in e], "w_in"),
}


def test_weights_file_writer_matches_save(tmp_path):
    W.save(str(tmp_path / "saved.oblw"))
    _write_weights(tmp_path / "written.oblw", _entries(W))
    assert (tmp_path / "saved.oblw").read_bytes() == \
        (tmp_path / "written.oblw").read_bytes()


@pytest.mark.parametrize("edit,name", WRONG_PARAMETER_SETS.values(),
                         ids=WRONG_PARAMETER_SETS.keys())
def test_weights_refuse_wrong_parameter_set(tmp_path, edit, name):
    entries = edit(_entries(W))
    with pytest.raises(ConfigError, match=f"parameter {name} "):
        ModelWeights(CFG, 7, dict(entries))
    _write_weights(tmp_path / "edited.oblw", entries)
    with pytest.raises(ProtocolError, match=f"parameter {name} "):
        ModelWeights.load(str(tmp_path / "edited.oblw"))


def test_weights_load_rejects_repeated_parameter(tmp_path):
    _write_weights(tmp_path / "twice.oblw", _entries(W) + _entries(W)[:1])
    with pytest.raises(ProtocolError, match="parameter w_in repeats"):
        ModelWeights.load(str(tmp_path / "twice.oblw"))


def test_replace_refuses_misshapen_parameter():
    with pytest.raises(ConfigError, match="parameter w_in has shape"):
        W.replace(w_in=np.zeros((4, 15), np.float32))


def test_weights_load_rejects_invalid_config_header(tmp_path):
    W.save(str(tmp_path / "model.oblw"))
    raw = bytearray((tmp_path / "model.oblw").read_bytes())
    struct.pack_into("<I", raw, 9, 3)  # res = 3, not a power of two
    (tmp_path / "res3.oblw").write_bytes(raw)
    with pytest.raises(ProtocolError, match="power of two") as err:
        ModelWeights.load(str(tmp_path / "res3.oblw"))
    assert err.value.offset == 5  # the config block


def test_weights_load_rejects_non_finite_parameter(tmp_path):
    W.save(str(tmp_path / "model.oblw"))
    raw = bytearray((tmp_path / "model.oblw").read_bytes())
    struct.pack_into("<f", raw, len(raw) - 4, float("nan"))
    (tmp_path / "nan.oblw").write_bytes(raw)
    with pytest.raises(ProtocolError) as err:
        ModelWeights.load(str(tmp_path / "nan.oblw"))
    assert err.value.offset == len(raw) - 4
    assert "up.cross.bo" in str(err.value)  # the last parameter


# --- decoder ---------------------------------------------------------------------

def test_decode_zero_latent_is_mid_gray():
    img = decode_latent(
        np.zeros((CFG.channels, CFG.res, CFG.res), np.float32), W)
    assert np.all(img == np.float32(0.5))


def test_decode_shape_is_4x_upsample():
    w = ModelWeights.build(ModelConfig(), 3)
    img = decode_latent(np.zeros((4, 16, 16), np.float32), w)
    assert img.shape == (3, 64, 64)


def test_decode_locality_one_cell_one_patch():
    base = Rng(70).gaussian((CFG.channels, CFG.res, CFG.res))
    bumped = base.copy()
    bumped[:, 3, 5] += 0.5
    img_a = decode_latent(base, W)
    img_b = decode_latent(bumped, W)
    diff = np.argwhere(img_a != img_b)
    assert len(diff) > 0
    for _, y, x in diff:
        assert 3 * 4 <= y < 4 * 4
        assert 5 * 4 <= x < 6 * 4


def test_decode_range_is_clamped():
    big = np.full((CFG.channels, CFG.res, CFG.res), 50.0, np.float32)
    img = decode_latent(big, W)
    assert img.min() >= 0.0 and img.max() <= 1.0
