"""Miniature U-Net noise predictor, text embedder, and latent decoder.

The network is deliberately small and fully dense: spatial mixing uses an
explicit (tokens x tokens) matrix per block instead of a convolution, which
keeps the FLOPs inventory exact and the whole model a deterministic
function of (config, seed).  Structure per step, operating on the latent
tokens h of shape (res*res, width) of each batch row (the batch runs as
one row-stacked (N*res*res, width) matrix):

    h0   = tokens @ w_in + b_in + time_vector(t)
    down = mix, channel projection + tanh, self-attention, cross-attention
    mid  = channel projection + tanh, self-attention, cross-attention
    up   = (h0 + mid features), mix, projection + tanh, both attentions
    eps  = up @ w_out + b_out

Attention sites follow the gates of the run's `oblix.accel.run_plan` when
a run is given an AccelConfig; with ``accel=None`` every step runs the
neutral gates (every site recomputes, nothing is skipped or shared or
cached), which is the reference path the equivalence tests compare against.
"""

from __future__ import annotations

import io
import math
import struct
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import accel as accel_mod
from .accel import SITES, AccelConfig, AccelState, StepPlan
from .errors import ConfigError, InputError, InternalError, ProtocolError
from .schedule import NoiseSchedule, ddim_step
from .tensor import (
    Rng,
    _checked,
    active_counter,
    add,
    add_rowvec,
    flops_tag,
    fnv1a64,
    gaussian_rows,
    matmul,
    readonly,
    tanh_map,
)

WEIGHTS_MAGIC = b"OBLW"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 4
    res: int = 16
    d_text: int = 32
    width: int = 32
    token_capacity: int = 16
    heads: int = 1

    def __post_init__(self):
        for name in ("channels", "res", "d_text", "width", "token_capacity", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.res & (self.res - 1):
            raise ConfigError(f"res must be a power of two, got {self.res}")
        if self.heads != 1:
            raise ConfigError("only a single attention head is supported")

    @property
    def tokens(self) -> int:
        return self.res * self.res


@dataclass(frozen=True)
class AttnSite:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray


# parameter inventory: name -> (rows, cols) factory, in serialization order
def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    s, c, d, dt = cfg.tokens, cfg.channels, cfg.width, cfg.d_text
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("w_in", (c, d)), ("b_in", (d,)),
        ("mix_down", (s, s)), ("w_down", (d, d)), ("b_down", (d,)),
        ("w_mid", (d, d)), ("b_mid", (d,)),
        ("mix_up", (s, s)), ("w_up", (d, d)), ("b_up", (d,)),
        ("w_out", (d, c)), ("b_out", (c,)),
        ("decoder", (c, 48)),
    ]
    for site in SITES:
        kv_width = dt if site.endswith("cross") else d
        specs += [
            (f"{site}.wq", (d, d)),
            (f"{site}.wk", (kv_width, d)),
            (f"{site}.wv", (kv_width, d)),
            (f"{site}.wo", (d, d)),
            (f"{site}.bo", (d,)),
        ]
    return specs


def _init_param(name: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    rng = Rng(fnv1a64(f"{seed}:{name}".encode()))
    if len(shape) == 1:
        return np.zeros(shape, dtype=np.float32)
    fan_in = shape[0]
    std = 1.0 / math.sqrt(fan_in)
    if name == "decoder":
        std *= 0.3  # keeps decoded pixels mostly inside [0, 1] before clamping
    return rng.gaussian(shape) * np.float32(std)


class ModelWeights:
    """All projections of the toy model; a pure function of (config, seed).

    Parameters enter here from a caller or a file: they must be exactly
    the names and shapes of ``_param_specs(cfg)``, and each is copied to a
    C-order float32 array, checked for finiteness and made read-only, so
    no caller can change an instance once it is built.
    """

    def __init__(self, cfg: ModelConfig, seed: int,
                 params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.seed = seed
        specs = dict(_param_specs(cfg))
        unknown = [name for name in params if name not in specs]
        if unknown:
            raise ConfigError(f"parameter {unknown[0]} is not in the config")
        self._params = {}
        for name, shape in specs.items():
            if name not in params:
                raise ConfigError(f"parameter {name} is missing")
            a = np.array(params[name], dtype=np.float32, order="C")
            if a.shape != shape:
                raise ConfigError(
                    f"parameter {name} has shape {a.shape}, want {shape}")
            if not np.isfinite(a).all():
                raise ConfigError(f"parameter {name} holds non-finite values")
            self._params[name] = readonly(a)
        p = self._params
        self._sites = {
            site: AttnSite(p[f"{site}.wq"], p[f"{site}.wk"], p[f"{site}.wv"],
                           p[f"{site}.wo"], p[f"{site}.bo"])
            for site in SITES
        }

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "ModelWeights":
        params = {name: _init_param(name, shape, seed)
                  for name, shape in _param_specs(cfg)}
        return cls(cfg, seed, params)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def attn(self, site: str) -> AttnSite:
        if site not in self._sites:
            raise InternalError(f"unknown attention site {site!r}")
        return self._sites[site]

    def replace(self, **overrides: np.ndarray) -> "ModelWeights":
        """Copy with some parameters swapped; used by constructed-weight tests."""
        return ModelWeights(self.cfg, self.seed, {**self._params, **overrides})

    # -- flat binary serialization ---------------------------------------

    def save(self, path: str) -> None:
        cfg = self.cfg
        out = io.BytesIO()
        out.write(WEIGHTS_MAGIC)
        out.write(bytes([WEIGHTS_VERSION]))
        out.write(struct.pack("<6IQ", cfg.channels, cfg.res, cfg.d_text,
                              cfg.width, cfg.token_capacity, cfg.heads,
                              self.seed))
        specs = _param_specs(cfg)
        out.write(struct.pack("<I", len(specs)))
        for name, shape in specs:
            raw = name.encode()
            out.write(struct.pack("<H", len(raw)))
            out.write(raw)
            out.write(struct.pack("<B", len(shape)))
            out.write(struct.pack(f"<{len(shape)}I", *shape))
            out.write(self._params[name].astype("<f4").tobytes())
        with open(path, "wb") as f:
            f.write(out.getvalue())

    @classmethod
    def load(cls, path: str) -> "ModelWeights":
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:4] != WEIGHTS_MAGIC:
            raise ProtocolError("not a weights file (bad magic)", offset=0)
        if len(raw) < 5 or raw[4] != WEIGHTS_VERSION:
            raise ProtocolError("unsupported weights version", offset=4)
        off = 5
        try:
            channels, res, d_text, width, cap, heads, seed = struct.unpack_from(
                "<6IQ", raw, off)
            cfg = ModelConfig(channels, res, d_text, width, cap, heads)
            off += struct.calcsize("<6IQ")
            (count,) = struct.unpack_from("<I", raw, off)
            off += 4
            params: dict[str, np.ndarray] = {}
            for _ in range(count):
                (name_len,) = struct.unpack_from("<H", raw, off)
                off += 2
                name = raw[off:off + name_len].decode("utf-8")
                if name in params:
                    raise ProtocolError(f"parameter {name} repeats", offset=off)
                off += name_len
                (ndim,) = struct.unpack_from("<B", raw, off)
                off += 1
                shape = struct.unpack_from(f"<{ndim}I", raw, off)
                off += 4 * ndim
                n = int(np.prod(shape, dtype=np.int64))
                data = np.frombuffer(raw, dtype="<f4", count=n, offset=off)
                bad = np.flatnonzero(~np.isfinite(data))
                if bad.size:
                    off += 4 * int(bad[0])
                    raise ProtocolError(
                        f"parameter {name} holds a non-finite value at "
                        f"offset {off}", offset=off)
                off += 4 * n
                params[name] = data.reshape(shape)
        except (struct.error, ValueError, UnicodeDecodeError,
                ConfigError) as exc:
            raise ProtocolError(f"corrupt weights file near offset {off}: {exc}",
                                offset=off) from None
        if off != len(raw):
            raise ProtocolError(
                f"trailing bytes in weights file at offset {off}", offset=off)
        try:
            return cls(cfg, seed, params)
        except ConfigError as exc:
            raise ProtocolError(f"invalid weights file: {exc}") from None

    def fingerprint(self) -> int:
        """FNV-1a 64 of every parameter's bytes in serialization order."""
        return fnv1a64(b"".join(
            self._params[n].tobytes() for n, _ in _param_specs(self.cfg)))


# ---------------------------------------------------------------------------
# Text embedding
# ---------------------------------------------------------------------------

_PAD_SEED_TAG = b"\x00oblix-pad\x00"


def embed_prompt(prompt: str, cfg: ModelConfig) -> np.ndarray:
    """Hash each whitespace token into a seed and expand it to a vector.

    Returns the read-only ``(token_capacity, d_text)`` token matrix.
    Deterministic, order-preserving, truncated at the token capacity and
    padded with a fixed vector, so prompts differing in one token differ
    in exactly that embedding row.
    """
    tokens = prompt.split()
    if not tokens:
        raise InputError("prompt is empty after whitespace normalization")
    tokens = tokens[:cfg.token_capacity]
    seeds = [fnv1a64(tok.encode("utf-8")) for tok in tokens]
    seeds += [fnv1a64(_PAD_SEED_TAG)] * (cfg.token_capacity - len(tokens))
    return gaussian_rows(seeds, cfg.d_text)


def time_vector(t: int, cfg: ModelConfig) -> np.ndarray:
    """Sinusoidal step conditioning, one vector per iteration index."""
    half = cfg.width // 2
    vec = np.empty(cfg.width, dtype=np.float64)
    for i in range(half):
        freq = 10000.0 ** (-2.0 * i / cfg.width)
        vec[2 * i] = math.sin(t * freq)
        vec[2 * i + 1] = math.cos(t * freq)
    if cfg.width % 2:
        vec[-1] = math.sin(t)
    return readonly(vec.astype(np.float32))


# ---------------------------------------------------------------------------
# U-Net forward
# ---------------------------------------------------------------------------


def _mix(mix: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """``mix @ block`` for each of the n row blocks of h, as one product.

    The blocks are laid side by side as an (S, n*width) matrix, so the
    left-mixing of the whole batch is a single (S, S) matmul.
    """
    s, d = mix.shape[0], h.shape[1]
    out = matmul(mix, h.reshape(n, s, d).transpose(1, 0, 2).reshape(s, n * d))
    return readonly(out.reshape(s, n, d).transpose(1, 0, 2).reshape(n * s, d))


def _attn_block(h: np.ndarray, kv: np.ndarray, w: ModelWeights, site: str,
                n: int, step: StepPlan, state: AccelState | None) -> np.ndarray:
    """One attention site plus its output projection and residual.

    When not recomputing, the site serves its cached output; otherwise it
    attends and caches the result when the step keeps it for a later one.
    """
    params = w.attn(site)
    if not step.gates.recompute:
        out = state.load_attention(site)
    else:
        out = accel_mod.attend(h, kv, params, site, n, step.pivot)
        if site in step.keep:
            state.cached_attention[site] = out
    with flops_tag(f"{site}/proj"):
        projected = matmul(out, params.wo, params.bo)
    del out  # a state's cache may still hold it
    return add(h, projected)


def unet_forward(latents: np.ndarray, texts: list[np.ndarray], t: int,
                 w: ModelWeights, step: StepPlan = StepPlan(),
                 state: AccelState | None = None) -> np.ndarray:
    """Predict per-row noise for a batch of latents at iteration t.

    ``latents`` is (N, channels, res, res) with one text embedding per row.
    The hidden state is one row-stacked (N*S, width) matrix whose row
    block r holds the S = res*res tokens of batch row r, so every
    projection, bias, tanh and residual runs once per step for the whole
    batch; only attention runs per chunk of rows (`oblix.accel.attend`).
    ``step`` is iteration t's `oblix.accel.StepPlan`: its gates, and what
    ``state`` keeps for later steps.  When the skip gate fires, down and mid
    blocks are not executed and the state's mid features feed the up block.

    Batch composition never changes a row's bits: each output row equals
    a one-row run of that row, bit for bit.  That holds because every op
    here treats rows independently and BLAS gives each row of a stacked
    trunk product the bits of that block's own product.  The output
    projection (width to channels) is the one shape where it does not at
    every height, so it runs as one block product (``matmul(...,
    blocks=N)``), which makes one GEMM per batch row.  The golden SHA, the
    duplicated-row and permutation tests in ``tests/test_denoiser.py`` and
    the solo-row oracle at N up to ``MAX_CANDIDATES`` in
    ``tests/test_protocol.py`` pin it.
    """
    cfg = w.cfg
    n = latents.shape[0]
    if len(texts) != n:
        raise ConfigError(f"{n} latent rows but {len(texts)} embeddings")
    if latents.shape[1:] != (cfg.channels, cfg.res, cfg.res):
        raise ConfigError(
            f"latent shape {latents.shape[1:]} does not match config "
            f"({cfg.channels}, {cfg.res}, {cfg.res})"
        )

    s, c = cfg.tokens, cfg.channels
    text = np.concatenate(texts)
    # each array dies at its last reader: h is rebound block by block, so
    # no block's output outlives the next block's
    tokens = latents.reshape(n, c, s).transpose(0, 2, 1).reshape(n * s, c)
    base = add_rowvec(matmul(tokens, w["w_in"], w["b_in"]), time_vector(t, cfg))
    del tokens

    if step.gates.skip:
        mid = state.mid_features
        if mid is None:
            raise InternalError("skip gate fired with no cached mid features")
    else:
        h = tanh_map(
            matmul(_mix(w["mix_down"], base, n), w["w_down"], w["b_down"]))
        h = _attn_block(h, h, w, "down.self", n, step, state)
        h = _attn_block(h, text, w, "down.cross", n, step, state)

        h = tanh_map(matmul(h, w["w_mid"], w["b_mid"]))
        h = _attn_block(h, h, w, "mid.self", n, step, state)
        mid = _attn_block(h, text, w, "mid.cross", n, step, state)
        if step.keep_mid:
            state.mid_features = mid

    h = add(base, mid)
    del base, mid  # a state keeps mid as its mid_features when skips need it
    h = tanh_map(matmul(_mix(w["mix_up"], h, n), w["w_up"], w["b_up"]))
    h = _attn_block(h, h, w, "up.self", n, step, state)
    h = _attn_block(h, text, w, "up.cross", n, step, state)

    # one block product, a GEMM per batch row: OpenBLAS 0.3.31 gives a flat
    # (M, 32) @ (32, 4) product other bits than its 256-row blocks from
    # M = 7,936 (N = 31)
    eps = matmul(h, w["w_out"], w["b_out"], blocks=n)
    return readonly(eps.reshape(n, s, c).transpose(0, 2, 1)
                    .reshape(latents.shape))


def run_denoise_steps(latents: np.ndarray, texts: list[np.ndarray],
                      sched: NoiseSchedule, w: ModelWeights,
                      first_iter: int, last_iter: int,
                      accel: AccelConfig | None = None) -> np.ndarray:
    """Run iterations [first_iter, last_iter] of the deterministic sampler.

    Iteration i moves the batch from schedule index T-i+1 to T-i.  The
    active FLOPs counter (if any) gets one step bucket per iteration with
    the gate flags that were in force.  The run's `oblix.accel.run_plan`
    decides every step's gates once; a run whose plan keeps an output for
    a later step makes its own AccelState and drops it on return.
    """
    total = sched.steps
    if not 1 <= first_iter <= last_iter <= total:
        raise ConfigError(
            f"iteration range [{first_iter}, {last_iter}] outside [1, {total}]"
        )
    plan = accel_mod.run_plan(accel, first_iter, last_iter, latents.shape[0])
    keeps = any(step.keep or step.keep_mid for step in plan.values())
    state = AccelState() if keeps else None
    counter = active_counter()
    x = latents
    for i, step in plan.items():
        with nullcontext() if counter is None else counter.step(i, *step.gates):
            # no name keeps eps alive through the next step's forward
            x = ddim_step(x, unet_forward(x, texts, i, w, step, state),
                          total - i + 1, total - i, sched)
    return x


# ---------------------------------------------------------------------------
# Latent decoder
# ---------------------------------------------------------------------------

DECODE_UPSAMPLE = 4


def decode_latent(latent: np.ndarray, w: ModelWeights) -> np.ndarray:
    """Project each latent cell to a 4x4 RGB patch and clamp to [0, 1].

    Output shape is (3, 4*res, 4*res); a zero latent maps to mid-gray.
    The projection is strictly per-cell, so a change in one latent cell
    affects exactly one output patch.
    """
    cfg = w.cfg
    if latent.shape != (cfg.channels, cfg.res, cfg.res):
        raise ConfigError(f"latent shape {latent.shape} does not match config")
    # plain numpy on purpose: decode cost stays out of the per-step series
    cells = latent.reshape(cfg.channels, -1).T
    patches = cells @ w["decoder"]                    # (res*res, 48)
    up = DECODE_UPSAMPLE
    img = np.empty((3, cfg.res * up, cfg.res * up), dtype=np.float32)
    patches = patches.reshape(cfg.res, cfg.res, 3, up, up)
    for ci in range(3):
        img[ci] = patches[:, :, ci].transpose(0, 2, 1, 3).reshape(
            cfg.res * up, cfg.res * up)
    img = np.clip(img + np.float32(0.5), 0.0, 1.0)
    return _checked(img)
