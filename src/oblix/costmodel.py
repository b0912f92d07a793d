"""Cost accounting in closed form; counted costs live on the session record.

Two tiers, deliberately separate:

* the closed-form estimators reproduce published cost arithmetic from
  per-image FLOPs figures (server cost scales with the cloud share k/T and
  the candidate count, device cost with the remaining share);
* the step-level formulas below restate the toy denoiser's op inventory
  from its configuration alone, so tests can assert integer equality
  against the instrumented counter without sharing any code path with it.
"""

from __future__ import annotations

from .accel import step_gates
from .denoiser import ModelConfig
from .errors import ConfigError


def estimate_server_flops(full_per_image: float, k: int, total_steps: int,
                          batch: int) -> float:
    """Cloud cost for k of total_steps steps over a batch of candidates."""
    if not 0 <= k <= total_steps:
        raise ConfigError(f"need 0 <= k <= {total_steps}, got {k}")
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    return full_per_image * (k / total_steps) * batch


def estimate_device_flops(device_full_per_image: float, k: int,
                          total_steps: int) -> float:
    """Device cost for the remaining total_steps - k steps of one image."""
    if not 0 <= k <= total_steps:
        raise ConfigError(f"need 0 <= k <= {total_steps}, got {k}")
    return device_full_per_image * ((total_steps - k) / total_steps)


def transmission_bytes(res: int, batch: int, elem_bytes: int = 2) -> int:
    """Latent hand-off size: 4 * res * res * batch values."""
    if res < 1 or batch < 1:
        raise ConfigError("res and batch must be >= 1")
    return 4 * res * res * batch * elem_bytes


# ---------------------------------------------------------------------------
# Closed-form step inventory for the toy model
# ---------------------------------------------------------------------------

SELF_SITES = ("down.self", "mid.self", "up.self")
CROSS_SITES = ("down.cross", "mid.cross", "up.cross")
UP_SITES = ("up.self", "up.cross")


def _is_cross(site: str) -> bool:
    return site.endswith("cross")


def attention_map_flops(cfg: ModelConfig, site: str) -> int:
    """Query/key projections, scores, scaling and softmax for one row."""
    s, d = cfg.tokens, cfg.width
    s_kv, d_kv = (cfg.token_capacity, cfg.d_text) if _is_cross(site) else (s, d)
    return 2 * s * d * d + 2 * s_kv * d_kv * d + 2 * s * d * s_kv \
        + s * s_kv + 5 * s * s_kv


def attention_value_flops(cfg: ModelConfig, site: str) -> int:
    """Value projection and map-times-value product for one row."""
    s, d = cfg.tokens, cfg.width
    s_kv, d_kv = (cfg.token_capacity, cfg.d_text) if _is_cross(site) else (s, d)
    return 2 * s_kv * d_kv * d + 2 * s * s_kv * d


def attention_proj_flops(cfg: ModelConfig) -> int:
    """Output projection, its bias, and the residual add for one row."""
    s, d = cfg.tokens, cfg.width
    return 2 * s * d * d + 2 * s * d


def _base_flops(cfg: ModelConfig) -> int:
    s, c, d = cfg.tokens, cfg.channels, cfg.width
    return 2 * s * c * d + 2 * s * d          # input projection, bias, time add


def _down_block_flops(cfg: ModelConfig) -> int:
    s, d = cfg.tokens, cfg.width
    return 2 * s * s * d + 2 * s * d * d + 2 * s * d


def _mid_block_flops(cfg: ModelConfig) -> int:
    s, d = cfg.tokens, cfg.width
    return 2 * s * d * d + 2 * s * d


def _up_block_flops(cfg: ModelConfig) -> int:
    s, d = cfg.tokens, cfg.width
    return s * d + 2 * s * s * d + 2 * s * d * d + 2 * s * d


def _out_flops(cfg: ModelConfig) -> int:
    s, c, d = cfg.tokens, cfg.channels, cfg.width
    return 2 * s * d * c + s * c


def _sampler_flops(cfg: ModelConfig) -> int:
    return 6 * cfg.channels * cfg.tokens


def step_flops(cfg: ModelConfig, batch: int, *, recompute: bool = True,
               reuse: bool = False, skip: bool = False) -> int:
    """Expected counted FLOPs for one denoising step of the toy model."""
    sites = UP_SITES if skip else SELF_SITES + CROSS_SITES
    per_row = _base_flops(cfg) + _up_block_flops(cfg) + _out_flops(cfg) \
        + _sampler_flops(cfg) + len(sites) * attention_proj_flops(cfg)
    if not skip:
        per_row += _down_block_flops(cfg) + _mid_block_flops(cfg)
    total = batch * per_row
    for site in sites:
        if not recompute:
            continue
        if reuse and batch > 1:
            total += attention_map_flops(cfg, site) \
                + batch * attention_value_flops(cfg, site)
        else:
            total += batch * (attention_map_flops(cfg, site)
                              + attention_value_flops(cfg, site))
    return total


def expected_run_flops(cfg: ModelConfig, batch: int, accel, first_iter: int,
                       last_iter: int) -> int:
    """Closed-form total of a run under `step_gates`; ``accel`` may be None."""
    return sum(step_flops(cfg, batch, **step_gates(t, accel, batch)._asdict())
               for t in range(first_iter, last_iter + 1))
