"""Server-side acceleration gates and their session state.

Three independent mechanisms, all pure functions of the iteration index
and the config:

* attention cache: a site recomputes at iterations t <= cache_point and at
  refresh iterations (t mod refresh_period == 0); otherwise it serves the
  cached output written by the last recompute.
* block skip: from iteration skip_point onward the down and mid blocks are
  not executed and the cached mid-block features feed the up block.
* batch reuse: at iterations up to the cache point, and for batches of at
  least two rows, the attention map is computed once for the pivot batch
  row and broadcast; per-row value projections stay individual.

Composition order when several gates apply at one step: skip removes the
down/mid sites entirely, then the cache gate runs per surviving site, then
reuse shapes how a recomputation is performed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .errors import ConfigError, SessionError
from .tensor import Tensor, flops_tag, matmul, scale, softmax_rows

log = logging.getLogger("oblix.accel")


def never(total_steps: int) -> int:
    """Gate threshold meaning "never fires" for a run of total_steps."""
    return total_steps + 1


@dataclass(frozen=True)
class AccelConfig:
    """Gate parameters for one generation session.

    ``switch_point`` is the number of iterations run on the cloud; the
    gates themselves only read ``cache_point``, ``skip_point`` and the
    reuse fields.
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
        if self.cache_point < 1 or self.skip_point < 1:
            raise ConfigError("cache_point and skip_point must be >= 1")
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
    """True when the down and mid blocks are skipped at iteration t.

    A skip needs cached mid-block features, which only exist after some
    earlier full step; skip_point == 1 would fire before any exist, so it
    is refused with a diagnostic instead of raised.
    """
    if t < 1:
        raise ConfigError(f"iteration index must be >= 1, got {t}")
    if cfg.skip_point == 1:
        log.warning("skip_point=1 would skip before any mid-block features "
                    "are cached; treating as never")
        return False
    return t >= cfg.skip_point


def reuse_active(t: int, cfg: AccelConfig, batch: int) -> bool:
    """Batch reuse applies only before the cache gate takes over, and only
    to a batch of at least two rows: a single row has no map to share."""
    return cfg.reuse and t <= cfg.cache_point and batch > 1


@dataclass
class AccelState:
    """Per-session caches written by the denoiser as gates fire.

    ``cached_attention`` maps a site id to the per-row outputs written by
    the last recomputation; ``mid_features`` holds the per-row mid-block
    outputs of the last unskipped step.  ``cache_writes`` records
    (iteration, site) for every overwrite so refresh behaviour is
    observable in tests.
    """

    cfg: AccelConfig
    cached_attention: dict[str, list[Tensor]] = field(default_factory=dict)
    mid_features: list[Tensor] | None = None
    cache_writes: list[tuple[int, str]] = field(default_factory=list)
    _bound: tuple[int, int] | None = None

    def bind(self, weights_key: int, batch: int) -> None:
        if self._bound is None:
            self._bound = (weights_key, batch)
        elif self._bound != (weights_key, batch):
            raise SessionError(
                "accel state belongs to a different session "
                f"(bound {self._bound}, got {(weights_key, batch)})"
            )

    def store_attention(self, site: str, t: int, rows: list[Tensor]) -> None:
        self.cached_attention[site] = rows
        self.cache_writes.append((t, site))

    def load_attention(self, site: str) -> list[Tensor]:
        if site not in self.cached_attention:
            raise SessionError(f"no cached attention output for site {site!r}")
        return self.cached_attention[site]


def attend(q_rows: list[Tensor], kv_rows: list[Tensor], params, site: str,
           pivot: int | None = None) -> list[Tensor]:
    """Map-times-value attention of one site for each batch row.

    ``params`` exposes ``wq``/``wk``/``wv`` projections.  The map work
    (query and key projections, scaled scores, softmax) runs per row, or
    once on row ``pivot`` whose map every row then shares.  The value
    projection and the map-times-value product always run per row.  The
    output projection is applied by the caller, so the returned rows are
    exactly what the attention cache stores.
    """
    n = len(q_rows)
    if pivot is not None and not 0 <= pivot < n:
        raise ConfigError(f"pivot_index {pivot} outside batch of {n}")
    width = params.wq.shape[1]

    def attention_map(q_in: Tensor, kv_in: Tensor) -> Tensor:
        with flops_tag(f"{site}/map"):
            q = matmul(q_in, params.wq)
            k = matmul(kv_in, params.wk)
            scores = scale(matmul(q, k.transpose2d()), 1.0 / math.sqrt(width))
            return softmax_rows(scores)

    shared = None if pivot is None else attention_map(q_rows[pivot], kv_rows[pivot])
    out: list[Tensor] = []
    for q_in, kv_in in zip(q_rows, kv_rows, strict=True):
        attn_map = shared if shared is not None else attention_map(q_in, kv_in)
        with flops_tag(f"{site}/value"):
            out.append(matmul(attn_map, matmul(kv_in, params.wv)))
    return out
