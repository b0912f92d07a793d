"""Server-side acceleration gates, the run plan, and the caches one run keeps.

Three independent mechanisms, all pure functions of the iteration index
and the config:

* attention cache: a site recomputes at iterations t <= cache_point and at
  refresh iterations (t mod refresh_period == 0); otherwise it serves the
  cached output written by the last recompute.
* block skip: from iteration skip_point onward the down and mid blocks are
  not executed and the cached mid-block features feed the up block.
* batch reuse: at iterations up to the cache point, and for batches of at
  least two rows, the attention map is computed once for the pivot batch
  row and broadcast; every row still multiplies it by its own values.

Composition order when several gates apply at one step: skip removes the
down/mid sites entirely, then the cache gate runs per surviving site, then
reuse shapes how a recomputation is performed.

`run_plan` decides a run's gates once, and the run caches only what a later
step reads, as DeepCache (Ma et al., arXiv 2312.00858) does: a site's output
at t only when the next iteration that reaches the site serves the cache,
the mid features of t only when iteration t+1 skips.  A paper-default run
(k=10, cache 4, skip 6, refresh 5) at N=30 thus peaks at 6.9 row-stacked
hidden states (traced), not the 11.7 of caching every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InternalError
from .tensor import _checked, flops_tag, matmul, row_blocks, softmax_rows

# bytes of float32 attention maps that one chunk of rows makes at once
MAP_CHUNK_BYTES = 1024 * 1024

# attention sites in forward order; a skip leaves only the up sites
SITES = ("down.self", "down.cross", "mid.self", "mid.cross", "up.self", "up.cross")


def never(total_steps: int) -> int:
    """Gate threshold meaning "never fires" for a run of total_steps."""
    return total_steps + 1


@dataclass(frozen=True)
class AccelConfig:
    """Gate parameters for one generation session.

    ``switch_point`` is the number of iterations run on the cloud; the
    gates themselves only read ``cache_point``, ``skip_point`` and the
    reuse fields.  A skip needs mid-block features cached by an earlier
    full step, so ``skip_point`` must be at least 2.
    """

    switch_point: int = 0
    cache_point: int = 10**9
    skip_point: int = 10**9
    reuse: bool = False
    refresh_period: int = 5
    pivot_index: int = 0

    def __post_init__(self):
        if self.switch_point < 0:
            raise ConfigError(f"switch_point must be >= 0, got {self.switch_point}")
        if self.cache_point < 1:
            raise ConfigError(f"cache_point must be >= 1, got {self.cache_point}")
        if self.skip_point < 2:
            raise ConfigError(
                f"skip_point must be >= 2, got {self.skip_point}: a skip at "
                "iteration 1 would run before any mid-block features exist")
        if self.refresh_period < 1:
            raise ConfigError(f"refresh_period must be >= 1, got {self.refresh_period}")
        if self.pivot_index < 0:
            raise ConfigError(f"pivot_index must be >= 0, got {self.pivot_index}")


def should_recompute_attention(t: int, cfg: AccelConfig) -> bool:
    """True when attention must be computed fresh at iteration t.

    False means the site returns its cached output.
    """
    if t < 1:
        raise ConfigError(f"iteration index must be >= 1, got {t}")
    return t <= cfg.cache_point or t % cfg.refresh_period == 0


def should_skip_blocks(t: int, cfg: AccelConfig) -> bool:
    """True when the down and mid blocks are skipped at iteration t."""
    if t < 1:
        raise ConfigError(f"iteration index must be >= 1, got {t}")
    return t >= cfg.skip_point


def reuse_active(t: int, cfg: AccelConfig, batch: int) -> bool:
    """Batch reuse applies only before the cache gate takes over, and only
    to a batch of at least two rows: a single row has no map to share."""
    return cfg.reuse and t <= cfg.cache_point and batch > 1


class StepGates(NamedTuple):
    """The gate decision for one iteration, in `FlopsCounter.step` order."""

    recompute: bool
    skip: bool
    reuse: bool


def step_gates(t: int, cfg: AccelConfig | None, batch: int) -> StepGates:
    """The one place the three gates are combined for iteration t.

    With no config every site recomputes, nothing skips and no map is
    shared.  `run_plan` takes each run's gates from here, the denoiser
    obeys them and the FLOPs counter records them;
    `oblix.costmodel.expected_run_flops` prices them in closed form.
    """
    if cfg is None:
        return StepGates(True, False, False)
    return StepGates(should_recompute_attention(t, cfg),
                     should_skip_blocks(t, cfg), reuse_active(t, cfg, batch))


def check_run(cfg: AccelConfig, steps: int, n: int | None = None) -> None:
    """Refuse cloud steps beyond a ``steps``-step schedule and, on n rows, a
    pivot outside the batch when reuse fires at iteration 1, where runs start."""
    k = cfg.switch_point
    if k > steps:
        raise ConfigError(f"switch_point {k} exceeds schedule of {steps} steps")
    if n is not None and k > 0 and reuse_active(1, cfg, n) \
            and cfg.pivot_index >= n:
        raise ConfigError(f"pivot_index {cfg.pivot_index} outside {n} candidates")


class StepPlan(NamedTuple):
    """One iteration of a run: its gates, the site outputs and mid features
    it keeps because a later iteration reads them, and the shared-map row."""

    gates: StepGates = StepGates(True, False, False)
    keep: frozenset[str] = frozenset()
    keep_mid: bool = False
    pivot: int | None = None


def run_plan(cfg: AccelConfig | None, first: int, last: int,
             n: int) -> dict[int, StepPlan]:
    """Each iteration's `StepPlan` for a run of first..last on n rows; a
    run's caches start empty, so one that reads a cache first is refused."""
    gates = {t: step_gates(t, cfg, n) for t in range(first, last + 1)}
    serves_next: dict[str, bool] = {}  # site: its next reach serves the cache
    plan = {}
    for t in reversed(gates):
        g = gates[t]
        reached = [s for s in SITES if not g.skip or s.startswith("up")]
        keep = frozenset(s for s in reached if g.recompute and serves_next.get(s))
        serves_next.update((s, not g.recompute) for s in reached)
        plan[t] = StepPlan(g, keep, not g.skip and t < last and gates[t + 1].skip,
                           cfg.pivot_index if g.reuse else None)
    if gates[first].skip or any(serves_next.values()):
        raise ConfigError(f"a run from iteration {first} reads a cache it never wrote")
    return dict(reversed(plan.items()))


@dataclass
class AccelState:
    """Caches one run keeps, written only where its `run_plan` says.

    A run whose plan keeps something makes a fresh state and drops it when
    it ends, so a state never meets a second batch or set of weights.

    ``cached_attention`` maps a site id to the row-stacked (N*S, width)
    attention output of its last kept recomputation; ``mid_features``
    holds the row-stacked mid-block output of the step before the first
    skip.  Both are single read-only arrays whose row block r belongs to
    batch row r, in the layout `oblix.denoiser.unet_forward` uses.
    """

    cached_attention: dict[str, np.ndarray] = field(default_factory=dict)
    mid_features: np.ndarray | None = None

    def load_attention(self, site: str) -> np.ndarray:
        if site not in self.cached_attention:
            raise InternalError(f"no cached attention output for site {site!r}")
        return self.cached_attention[site]


def attend(q: np.ndarray, kv: np.ndarray, params, site: str, n: int,
           pivot: int | None = None) -> np.ndarray:
    """Map-times-value attention of one site over a row-stacked batch.

    ``q`` is (n*S, width) and ``kv`` is (n*T, kv width); row block r of
    each belongs to batch row r.  ``params`` exposes ``wq``/``wk``/``wv``
    projections.  The work runs per chunk of ``max(1, MAP_CHUNK_BYTES //
    (4*S*T))`` rows: one query, one key and one value projection per
    chunk, each row's scaled scores into one (rows*S, T) buffer, one check
    of it (softmax would hide a -inf score), one softmax in place on that
    buffer, and one block product of the maps and the values into the
    chunk's slice of one (n*S, width) output, checked once.  The score
    products stay one per row: a row's keys enter as the transposed view
    ``k.T``, which a row-stacked operand could hold only as a transposed
    copy, whose product can have other bits.  With ``pivot``, block
    ``pivot``'s map is made once and every row multiplies it by its own
    values, one product per row.  Each numpy call releases and retakes
    the interpreter lock, so fewer calls per row let concurrent requests
    overlap, and the budget keeps a chunk's maps in cache: 4 self-site
    rows or 64 cross-site rows of the default model.  A chunk's maps and
    values die before the next chunk's are made, so one map buffer is
    alive at a time.  Every row keeps the bits of a one-row call, whatever
    the chunk.  The output projection is applied by the caller, so the
    result is exactly what the attention cache stores.
    """
    if pivot is not None and not 0 <= pivot < n:
        raise ConfigError(f"pivot_index {pivot} outside batch of {n}")
    s, t = row_blocks(q, n).shape[1], row_blocks(kv, n).shape[1]
    scale = 1.0 / math.sqrt(params.wq.shape[1])
    map_tag, value_tag = f"{site}/map", f"{site}/value"

    def maps(r0: int, r1: int) -> np.ndarray:
        """The softmaxed maps of rows r0..r1-1, as one (rows*S, T) matrix."""
        with flops_tag(map_tag):
            q_proj = matmul(q[r0 * s:r1 * s], params.wq)
            k_proj = matmul(kv[r0 * t:r1 * t], params.wk)
            scores = np.empty(((r1 - r0) * s, t), dtype=np.float32)
            for q_row, k_row, into in zip(row_blocks(q_proj, r1 - r0),
                                          row_blocks(k_proj, r1 - r0),
                                          row_blocks(scores, r1 - r0)):
                matmul(q_row, k_row.T, scale=scale, out=into)
            # checked before softmax, which would hide a -inf score, and
            # left writeable so the softmax can run in place on it
            _checked(scores, freeze=False)
            return softmax_rows(scores, out=scores)

    out = np.empty((n * s, params.wv.shape[1]), dtype=np.float32)
    shared = None if pivot is None else maps(pivot, pivot + 1)
    rows = max(1, MAP_CHUNK_BYTES // (4 * s * t))
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        attn_maps = maps(r0, r1) if shared is None else None
        with flops_tag(value_tag):
            values = matmul(kv[r0 * t:r1 * t], params.wv)
            into = out[r0 * s:r1 * s]
            if shared is None:
                matmul(attn_maps, values, out=into, blocks=r1 - r0)
            else:
                for value, row_out in zip(row_blocks(values, r1 - r0),
                                          row_blocks(into, r1 - r0)):
                    matmul(shared, value, out=row_out)
        del attn_maps, values  # so they die before the next chunk's
    return _checked(out)
