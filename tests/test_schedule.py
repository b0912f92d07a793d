import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblix.errors import ConfigError
from oblix.schedule import (
    StepIndexMap,
    build_schedule,
    ddim_step,
    forward_diffuse,
    map_timestep,
    reverse_step_eq1,
)
from oblix.tensor import Rng

from bitwise import same_bits

mpmath.mp.dps = 50


def test_single_step_schedule():
    s = build_schedule(1, 0.5, 0.5, "linear")
    assert s.alpha_bar == (0.5,)


def test_two_step_product():
    s = build_schedule(2, 0.1, 0.2, "linear")
    assert s.beta == (0.1, 0.2)
    assert math.isclose(s.alpha_bar[0], 0.9, rel_tol=1e-12)
    assert math.isclose(s.alpha_bar[1], 0.72, rel_tol=1e-12)


def test_default_schedule_against_extended_precision_product():
    s = build_schedule(25)
    lo, hi = mpmath.sqrt(mpmath.mpf("0.00085")), mpmath.sqrt(mpmath.mpf("0.012"))
    running = mpmath.mpf(1)
    for i in range(25):
        beta = (lo + (hi - lo) * i / 24) ** 2
        running *= 1 - beta
        assert math.isclose(s.alpha_bar[i], float(running), rel_tol=1e-12)
    assert s.alpha_bar[24] < s.alpha_bar[0]


def test_alpha_bar_strictly_decreasing():
    for spacing in ("linear", "scaled-linear"):
        s = build_schedule(25, spacing=spacing)
        assert all(b2 < b1 for b1, b2 in zip(s.alpha_bar, s.alpha_bar[1:]))


@settings(max_examples=40)
@given(st.integers(2, 60),
       st.floats(1e-5, 0.4), st.floats(1e-5, 0.4),
       st.sampled_from(["linear", "scaled-linear"]))
def test_alpha_bar_monotone_property(steps, b1, b2, spacing):
    lo, hi = sorted((b1, b2))
    s = build_schedule(steps, lo, hi, spacing)
    assert all(b2 < b1 for b1, b2 in zip(s.alpha_bar, s.alpha_bar[1:]))
    for i, (a, b) in enumerate(zip(s.alpha, s.beta)):
        assert math.isclose(a, 1 - b, rel_tol=1e-12)
        if i:
            assert math.isclose(s.alpha_bar[i], s.alpha_bar[i - 1] * a,
                                rel_tol=1e-12)


def test_build_schedule_rejects_bad_params():
    with pytest.raises(ConfigError):
        build_schedule(0)
    with pytest.raises(ConfigError):
        build_schedule(5, 0.2, 0.1)
    with pytest.raises(ConfigError):
        build_schedule(5, 0.0, 0.1)
    with pytest.raises(ConfigError):
        build_schedule(5, 0.1, 1.0)
    with pytest.raises(ConfigError):
        build_schedule(5, 0.1, 0.2, "cosine")


# --- forward process ----------------------------------------------------------

def test_forward_diffuse_degenerate_schedule_returns_x0():
    s = build_schedule(1, 1e-20, 1e-20)  # alpha_bar rounds to exactly 1.0
    assert s.alpha_bar[0] == 1.0
    x0 = Rng(3).gaussian((4, 4))
    eps = Rng(4).gaussian((4, 4))
    assert same_bits(forward_diffuse(x0, 1, eps, s), x0)


def test_forward_diffuse_zero_signal():
    s = build_schedule(10)
    eps = Rng(8).gaussian((2, 3))
    got = forward_diffuse(np.zeros((2, 3), np.float32), 7, eps, s)
    want = eps * np.float32(math.sqrt(1 - s.alpha_bar_at(7)))
    assert np.array_equal(got, want)


def test_forward_diffuse_bounds():
    s = build_schedule(5)
    x = np.zeros((2,), np.float32)
    with pytest.raises(ConfigError):
        forward_diffuse(x, 6, x, s)
    with pytest.raises(ConfigError):
        forward_diffuse(x, 0, x, s)


def test_stepwise_chain_matches_closed_form_moments():
    # oracle: iterate q(x_t | x_{t-1}) with fresh noise and compare the
    # sample mean/variance of x_T against the closed-form values
    s = build_schedule(5, 0.02, 0.2, "linear")
    x0 = 0.7
    samples = 10_000
    rng = Rng(123)
    finals = np.empty(samples, dtype=np.float64)
    for i in range(samples):
        x = x0
        noise = rng.gaussian((s.steps,))
        for t in range(1, s.steps + 1):
            x = math.sqrt(1 - s.beta_at(t)) * x + math.sqrt(s.beta_at(t)) * noise[t - 1]
        finals[i] = x
    bar = s.alpha_bar_at(s.steps)
    want_mean = math.sqrt(bar) * x0
    want_var = 1 - bar
    mean_sigma = math.sqrt(want_var / samples)
    var_sigma = want_var * math.sqrt(2.0 / (samples - 1))
    assert abs(finals.mean() - want_mean) < 3 * mean_sigma
    assert abs(finals.var() - want_var) < 3 * var_sigma


# --- reverse step ---------------------------------------------------------------

def test_reverse_step_formula_collapse():
    s = build_schedule(10)
    x = Rng(2).gaussian((3, 3))
    zero = np.zeros((3, 3), np.float32)
    got = reverse_step_eq1(x, zero, 4, s, zero)
    want = x * np.float32(1.0 / math.sqrt(s.alpha_at(4)))
    assert np.array_equal(got, want)


def test_reverse_step_no_noise_limit():
    s = build_schedule(10, 1e-9, 1e-8, "linear")
    x = Rng(11).gaussian((4,))
    zero = np.zeros((4,), np.float32)
    got = reverse_step_eq1(x, zero, 5, s, zero)
    assert np.allclose(got, x, atol=1e-5)


def _reverse_step_mpmath(x, eps, t, s, z):
    beta = mpmath.mpf(s.beta_at(t))
    alpha = mpmath.mpf(s.alpha_at(t))
    bar = mpmath.mpf(s.alpha_bar_at(t))
    out = []
    for xv, ev, zv in zip(x, eps, z):
        val = (mpmath.mpf(float(xv)) - beta / mpmath.sqrt(1 - bar)
               * mpmath.mpf(float(ev))) / mpmath.sqrt(alpha) \
            + mpmath.sqrt(beta) * mpmath.mpf(float(zv))
        out.append(float(val))
    return np.array(out)


def test_reverse_step_matches_extended_precision():
    s = build_schedule(25)
    x0 = Rng(21).gaussian((16,))
    eps = Rng(22).gaussian((16,))
    for t in (1, 12, 25):
        x_t = forward_diffuse(x0, t, eps, s)
        zero = np.zeros((16,), np.float32)
        got = reverse_step_eq1(x_t, eps, t, s, zero)
        want = _reverse_step_mpmath(x_t, eps, t, s,
                                    zero)
        assert np.allclose(got, want, atol=1e-6)


def test_reverse_step_with_true_noise_reduces_residual_variance():
    # with the exact noise plugged in, the scaled-x0 residual shrinks on
    # average from x_t to x_{t-1}, checked over 1000 seeds
    s = build_schedule(25)
    t = 20
    shrunk, grew = 0, 0
    for seed in range(1000):
        x0 = Rng(seed * 2 + 1).gaussian((4,))
        eps = Rng(seed * 2 + 2).gaussian((4,))
        x_t = forward_diffuse(x0, t, eps, s)
        x_prev = reverse_step_eq1(x_t, eps, t, s, np.zeros((4,), np.float32))
        res_t = x_t - math.sqrt(s.alpha_bar_at(t)) * x0
        res_prev = x_prev \
            - math.sqrt(s.alpha_bar_at(t - 1)) * x0
        if np.var(res_prev) < np.var(res_t):
            shrunk += 1
        else:
            grew += 1
    assert shrunk > grew


# --- deterministic sampler ------------------------------------------------------

def test_ddim_final_step_exactness():
    s = build_schedule(10)
    x0 = Rng(31).gaussian((8,))
    eps = Rng(32).gaussian((8,))
    x1 = forward_diffuse(x0, 1, eps, s)
    got = ddim_step(x1, eps, 1, 0, s)  # alpha_bar(0) == 1
    assert np.allclose(got, x0, atol=1e-5)


def test_ddim_constant_signal_with_zero_eps():
    s = build_schedule(10)
    c = 1.25
    t, t_prev = 8, 5
    x = np.full((6,), math.sqrt(s.alpha_bar_at(t)) * c, np.float32)
    got = ddim_step(x, np.zeros((6,), np.float32), t, t_prev, s)
    assert np.allclose(got,
                       math.sqrt(s.alpha_bar_at(t_prev)) * c, atol=1e-6)


@pytest.mark.parametrize("steps", [5, 10, 25])
def test_ddim_chain_with_oracle_noise_recovers_x0(steps):
    s = build_schedule(steps)
    x0 = Rng(41).gaussian((4, 4))
    eps = Rng(42).gaussian((4, 4))
    x = forward_diffuse(x0, steps, eps, s)
    for t in range(steps, 0, -1):
        x = ddim_step(x, eps, t, t - 1, s)
    err = np.abs(x - x0).max()
    assert err <= 1e-4 * max(1.0, float(np.abs(x0).max()))


def test_ddim_rejects_non_monotone_indices():
    s = build_schedule(5)
    x = np.zeros((2,), np.float32)
    with pytest.raises(ConfigError):
        ddim_step(x, x, 3, 3, s)
    with pytest.raises(ConfigError):
        ddim_step(x, x, 2, -1, s)


# --- timestep shift -------------------------------------------------------------

def test_map_timestep_identity():
    m = StepIndexMap(25, 25, 0)
    assert map_timestep(10, m) == (10, False)


def test_map_timestep_paper_configuration():
    # 8-step cloud scheduler against a 25-step device scheduler
    m = StepIndexMap(8, 25, 8)
    for t in range(1, 9):
        mapped, clamped = map_timestep(t, m)
        assert mapped == t + 8
        assert not clamped


def test_map_timestep_clamps_with_warning_flag():
    m = StepIndexMap(8, 10, 8)
    assert map_timestep(8, m) == (10, True)
    m_neg = StepIndexMap(8, 25, -5)
    assert map_timestep(2, m_neg) == (1, True)


@settings(max_examples=50)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(-50, 50))
def test_map_timestep_monotone(cloud, device, shift):
    m = StepIndexMap(cloud, device, shift)
    mapped = [map_timestep(t, m)[0] for t in range(1, cloud + 1)]
    assert all(b >= a for a, b in zip(mapped, mapped[1:]))
    assert all(1 <= v <= device for v in mapped)
