"""Noise schedules, diffusion steps, and the cloud/device step-index shift.

Two index spaces coexist and are easy to conflate:

* schedule indices t in [1, T]: alpha_bar[t] decreases with t, so x at
  schedule index T is the noisiest latent and index 0 means fully denoised
  (alpha_bar[0] is defined as 1).
* iteration indices i in [1, T]: i counts completed denoising steps from
  the noisiest end.  Iteration i consumes x at schedule index T-i+1 and
  produces x at schedule index T-i.  The acceleration gates and the
  cloud/device shift operate on iteration indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import add, scale, sub

DEFAULT_BETA_START = 0.00085
DEFAULT_BETA_END = 0.012
DEFAULT_STEPS = 25
DEFAULT_SPACING = "scaled-linear"
SPACINGS = ("linear", "scaled-linear")  # in wire-code order
# ddim_step divides by sqrt(alpha_bar_T); below float32's smallest normal
# a run's first step overflows or divides by zero
ALPHA_BAR_FLOOR = float(np.finfo(np.float32).tiny)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise amounts and their running products.

    ``beta[i]``, ``alpha[i]`` and ``alpha_bar[i]`` correspond to schedule
    index i+1; use the accessors to stay in 1-based index space.
    """

    steps: int
    beta: tuple[float, ...]
    alpha: tuple[float, ...]
    alpha_bar: tuple[float, ...]

    def _check(self, t: int) -> None:
        if not 1 <= t <= self.steps:
            raise ConfigError(f"step index {t} outside [1, {self.steps}]")

    def beta_at(self, t: int) -> float:
        self._check(t)
        return self.beta[t - 1]

    def alpha_at(self, t: int) -> float:
        self._check(t)
        return self.alpha[t - 1]

    def alpha_bar_at(self, t: int) -> float:
        if t == 0:
            return 1.0
        self._check(t)
        return self.alpha_bar[t - 1]


def build_schedule(steps: int = DEFAULT_STEPS,
                   beta_start: float = DEFAULT_BETA_START,
                   beta_end: float = DEFAULT_BETA_END,
                   spacing: str = DEFAULT_SPACING) -> NoiseSchedule:
    """Interpolate beta over ``steps`` and accumulate the alpha products.

    ``linear`` interpolates beta directly, ``scaled-linear`` interpolates
    sqrt(beta) (the usual latent-diffusion choice).
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}"
        )
    if spacing not in SPACINGS:
        raise ConfigError(f"unknown spacing {spacing!r}")

    if steps == 1:
        betas = [beta_start]
    elif spacing == "linear":
        step = (beta_end - beta_start) / (steps - 1)
        betas = [beta_start + i * step for i in range(steps)]
    else:
        lo, hi = math.sqrt(beta_start), math.sqrt(beta_end)
        step = (hi - lo) / (steps - 1)
        betas = [(lo + i * step) ** 2 for i in range(steps)]

    alphas = [1.0 - b for b in betas]
    bars: list[float] = []
    running = 1.0
    for a in alphas:
        running *= a
        bars.append(running)
    if running < ALPHA_BAR_FLOOR:
        raise ConfigError(f"schedule ends at alpha_bar {running}, below "
                          f"float32's smallest normal {ALPHA_BAR_FLOOR}")
    return NoiseSchedule(steps, tuple(betas), tuple(alphas), tuple(bars))


def forward_diffuse(x0: np.ndarray, t: int, eps: np.ndarray,
                    s: NoiseSchedule) -> np.ndarray:
    """Noise x0 to schedule index t in closed form:

    x_t = sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps
    """
    if x0.shape != eps.shape:
        raise ShapeError(f"x0 shape {x0.shape} differs from eps shape {eps.shape}")
    if t < 1:
        raise ConfigError(f"step index {t} outside [1, {s.steps}]")
    bar = s.alpha_bar_at(t)
    return add(scale(x0, math.sqrt(bar)), scale(eps, math.sqrt(1.0 - bar)))


def reverse_step_eq1(x_t: np.ndarray, eps_pred: np.ndarray, t: int,
                     s: NoiseSchedule, z: np.ndarray) -> np.ndarray:
    """One stochastic reverse step:

    x_{t-1} = (x_t - beta_t / sqrt(1 - alpha_bar_t) * eps_pred)
              / sqrt(alpha_t) + sqrt(beta_t) * z

    ``z`` is caller-provided noise; pass a zero array for the
    deterministic mean.
    """
    if x_t.shape != eps_pred.shape or x_t.shape != z.shape:
        raise ShapeError(
            f"shapes differ: x {x_t.shape}, eps {eps_pred.shape}, z {z.shape}"
        )
    beta = s.beta_at(t)
    bar = s.alpha_bar_at(t)
    mean = scale(
        sub(x_t, scale(eps_pred, beta / math.sqrt(1.0 - bar))),
        1.0 / math.sqrt(s.alpha_at(t)),
    )
    return add(mean, scale(z, math.sqrt(beta)))


def ddim_step(x_t: np.ndarray, eps_pred: np.ndarray, t: int, t_prev: int,
              s: NoiseSchedule) -> np.ndarray:
    """Deterministic step from schedule index t to t_prev (t_prev may be 0).

    Predicts x0 from the noise estimate, then renoises to t_prev:

    x0 = (x_t - sqrt(1 - alpha_bar_t) * eps) / sqrt(alpha_bar_t)
    out = sqrt(alpha_bar_prev) * x0 + sqrt(1 - alpha_bar_prev) * eps
    """
    if x_t.shape != eps_pred.shape:
        raise ShapeError(f"x shape {x_t.shape} differs from eps {eps_pred.shape}")
    if not t > t_prev >= 0:
        raise ConfigError(f"need t > t_prev >= 0, got t={t}, t_prev={t_prev}")
    bar_t = s.alpha_bar_at(t)
    bar_prev = s.alpha_bar_at(t_prev)
    x0_pred = scale(
        sub(x_t, scale(eps_pred, math.sqrt(1.0 - bar_t))),
        1.0 / math.sqrt(bar_t),
    )
    return add(
        scale(x0_pred, math.sqrt(bar_prev)),
        scale(eps_pred, math.sqrt(1.0 - bar_prev)),
    )


@dataclass(frozen=True)
class StepIndexMap:
    """Aligns a short cloud scheduler with a longer device scheduler."""

    cloud_steps: int
    device_steps: int
    shift: int

    def __post_init__(self):
        if self.cloud_steps < 1 or self.device_steps < 1:
            raise ConfigError("step counts must be >= 1")


def map_timestep(t_cloud: int, m: StepIndexMap) -> tuple[int, bool]:
    """Map a cloud iteration index onto the device scheduler.

    Returns (t_cloud + shift clamped into [1, device_steps], clamped?).
    Clamping is the contract, not an error, because shift sweeps include
    misaligned values.
    """
    if not 1 <= t_cloud <= m.cloud_steps:
        raise ConfigError(f"cloud step {t_cloud} outside [1, {m.cloud_steps}]")
    raw = t_cloud + m.shift
    mapped = min(max(raw, 1), m.device_steps)
    return mapped, mapped != raw
