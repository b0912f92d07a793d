"""Counted arithmetic on float32 arrays, the binary16 hand-off, and a
reproducible RNG.

Every arithmetic primitive here feeds the session FLOPs counter when one
is active.  The counting conventions are fixed package-wide:

    matmul (m,n)x(n,p)   2*m*n*p, plus m*p for a fused bias add or a
                         fused scale (the attention scores' 1/sqrt(width))
    softmax per element  5      (max scan, subtract, exp, sum, divide)
    elementwise add/sub  1
    scalar multiply      1
    tanh per element     1

The package's one array type is a read-only, C-order float32
``np.ndarray``, so byte images are well defined for hashing and wire
encoding.  A value is checked for finiteness once: where a primitive
computes it, or where it enters from outside (`decode_f16` for wire
latents, ``ModelWeights`` for parameters).
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, RangeError, ShapeError

SOFTMAX_FLOPS_PER_ELEM = 5

# ---------------------------------------------------------------------------
# FLOPs accounting
# ---------------------------------------------------------------------------


@dataclass
class StepCost:
    """Counted cost of one denoising step plus the gate flags in force."""

    index: int
    flops: int = 0
    recompute: bool = True
    skip: bool = False
    reuse: bool = False


class _TagScope:
    """Files a counter's FLOPs under ``name`` for the block, then restores
    the tag that was in force, also when the block raises."""

    __slots__ = ("counter", "name", "prev")

    def __init__(self, counter: FlopsCounter, name: str):
        self.counter = counter
        self.name = name

    def __enter__(self) -> None:
        self.prev = self.counter._tag
        self.counter._tag = self.name

    def __exit__(self, *exc) -> None:
        self.counter._tag = self.prev


@dataclass
class FlopsCounter:
    """Session-confined FLOPs tally with a per-step series and tag buckets.

    Tags isolate portions of the attention computation (e.g. map vs value
    work per site) so tests can assert exact reduction factors.
    """

    total: int = 0
    steps: list[StepCost] = field(default_factory=list)
    tagged: dict[tuple[int, str], int] = field(default_factory=dict)
    _current: StepCost | None = None
    _tag: str | None = None

    def add(self, n: int) -> None:
        self.total += n
        if self._current is not None:
            self._current.flops += n
            if self._tag is not None:
                key = (self._current.index, self._tag)
                self.tagged[key] = self.tagged.get(key, 0) + n

    def merge(self, other: FlopsCounter) -> None:
        """Add what ``other`` counted to the current step and its tag
        buckets: a row shard counts one step on a counter of its own, and
        every count is linear in rows, so the shards' sums are the step's."""
        self.add(other.total)
        for key, n in other.tagged.items():
            self.tagged[key] = self.tagged.get(key, 0) + n

    @contextmanager
    def step(self, index: int, recompute: bool = True, skip: bool = False,
             reuse: bool = False):
        if self._current is not None:
            raise InternalError("nested step contexts on one counter")
        self._current = StepCost(index, 0, recompute, skip, reuse)
        try:
            yield self._current
        finally:
            self.steps.append(self._current)
            self._current = None


_ACTIVE_COUNTER: ContextVar[FlopsCounter | None] = ContextVar(
    "oblix_flops_counter", default=None
)


@contextmanager
def use_flops_counter(counter: FlopsCounter | None):
    token = _ACTIVE_COUNTER.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER.reset(token)


def active_counter() -> FlopsCounter | None:
    return _ACTIVE_COUNTER.get()


def _count(n: int) -> None:
    c = _ACTIVE_COUNTER.get()
    if c is not None:
        c.add(n)


_NO_TAG = nullcontext()


def flops_tag(name: str):
    """Tag scope on the active counter; a shared no-op without one."""
    c = _ACTIVE_COUNTER.get()
    return _NO_TAG if c is None else _TagScope(c, name)


# ---------------------------------------------------------------------------
# Arrays and counted primitives
# ---------------------------------------------------------------------------


def readonly(a: np.ndarray) -> np.ndarray:
    """Clear ``writeable`` on ``a`` and return it."""
    a.flags.writeable = False
    return a


# up to this many values the isfinite mask checks faster than a min and a
# max (2.8 against 5.8 us at 8,192; even at 65,536), which make no temporary
MASK_CHECK_MAX = 1 << 16


def _checked(a: np.ndarray, *, freeze: bool = True) -> np.ndarray:
    """Return a computed array read-only, refusing a non-finite value.

    Every counted primitive returns through here, so each value the
    arithmetic makes is checked once, where it is made; views, reshapes
    and stacking of checked arrays need no second look.  With ``freeze``
    false the array stays writeable, for a buffer that a primitive then
    overwrites in place (``softmax_rows(..., out=)``).  Above
    ``MASK_CHECK_MAX`` values no mask is made: NaN propagates through a min
    and a max reduction, and +-inf shows in one of them.
    """
    if a.size > MASK_CHECK_MAX:
        finite = (np.isfinite(np.minimum.reduce(a, axis=None))
                  and np.isfinite(np.maximum.reduce(a, axis=None)))
    else:  # the ufunc reduce itself: ndarray.all adds a Python-level call
        finite = np.logical_and.reduce(np.isfinite(a), axis=None)
    if not finite:
        raise InternalError(f"computed {a.shape} array holds non-finite values")
    return readonly(a) if freeze else a


def row_blocks(a: np.ndarray, n: int) -> np.ndarray:
    """View a row-stacked (n*m, d) matrix as an (n, m, d) array.

    Block r is rows [r*m, (r+1)*m) and shares memory with ``a``.
    """
    if a.ndim != 2 or n < 1 or a.shape[0] % n:
        raise ShapeError(f"cannot split {a.shape} into {n} row blocks")
    return a.reshape(n, a.shape[0] // n, a.shape[1])


def matmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None, *,
           scale: float | None = None, out: np.ndarray | None = None,
           blocks: int = 1) -> np.ndarray:
    """Matrix product, plus ``bias`` on every row or times ``scale``.

    Counts 2*m*n*p FLOPs, and m*p more for a bias or a scale, in the
    active bucket.  Either is applied in place on the fresh product, with
    the bits of a separate broadcast add or scalar multiply.  The result
    is checked once and returned read-only.  With ``out``, a writeable
    C-order (m, p) slice of a caller's buffer, the product is made there
    and returned unchecked: the caller checks the filled buffer once, or
    adds to it in place with a checked `add`, before anything reads it.

    With ``blocks``, ``a`` is row-stacked, (blocks*m', n), and ``b`` is
    either shared, (n, p), or row-stacked, (blocks*n, p): block r of the
    (blocks*m', p) result is block r of ``a`` times ``b`` or its block r.
    The blocks run as one stacked ``np.matmul``, which calls one GEMM per
    block, so each keeps the bits of its own 2-D product.  The count is the
    same formula on the stacked shapes, m = blocks*m'.

    The package's one rule of batch invariance: an operand whose rows
    belong to different batch rows enters as blocks of one batch row.  A
    flat product of such a stack gives a row other bits than its own
    product under some OpenBLAS kernels (Haswell and Zen at every height,
    SkylakeX for some shapes), so no product spans two batch rows, and a
    row's bits never depend on the batch it runs in.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} and {b.shape}")
    (m, n), p = a.shape, b.shape[1]
    if out is not None and (out.shape != (m, p) or not out.flags.c_contiguous):
        raise ShapeError(f"matmul output {out.shape} does not fit {(m, p)}")
    if blocks != 1:
        a = row_blocks(a, blocks)
        if b.shape[0] == blocks * n:
            b = row_blocks(b, blocks)
        if out is not None:
            out = out.reshape(a.shape[:2] + (p,))
    if b.shape[-2] != n:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    prod = np.matmul(a, b, out=out).reshape(m, p)
    flops = 2 * m * n * p
    if bias is not None:
        if bias.shape != (p,):
            raise ShapeError(f"matmul bias {bias.shape} does not fit {(m, p)}")
        flops += m * p
        prod += bias
    if scale is not None:
        flops += m * p
        prod *= np.float32(scale)
    _count(flops)
    return _checked(prod) if out is None else prod


def softmax_rows(a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax with max subtraction for stability.

    The row max is read at ``argmax``, which numpy finds faster than
    ``max`` along a short row, with the same values: the max is exact, a
    tie of +0 and -0 gives the same bits after ``exp``, and a row holding
    a NaN or +inf, or only -inf, turns NaN, which the output check refuses.
    With ``out``, a writeable C-order buffer of ``a``'s shape that the
    caller owns (``a`` itself, say), the softmax runs there with the bits
    of a fresh result, so no second map-sized buffer is made.
    """
    if a.ndim != 2 or a.shape[1] < 1:
        raise ShapeError(f"softmax_rows needs a matrix with columns, got {a.shape}")
    if out is not None and out.shape != a.shape:
        raise ShapeError(f"softmax_rows output {out.shape} does not fit {a.shape}")
    m, n = a.shape
    _count(SOFTMAX_FLOPS_PER_ELEM * m * n)
    # the gathered max is a copy, so the subtract may overwrite a itself;
    # exp and divide then run in place on the subtract's result
    e = np.subtract(a, a[np.arange(m), a.argmax(axis=1)][:, None], out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return _checked(e)


def add(a: np.ndarray, b: np.ndarray, *,
        out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sum.  With ``out``, a writeable buffer of their shape
    that the caller owns (``b`` itself, say), the sum is made there with
    the bits of a fresh result.  ``out`` may hold a product that `matmul`
    left unchecked: a non-finite operand makes a non-finite sum, which the
    check of the result refuses."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    if out is not None and out.shape != a.shape:
        raise ShapeError(f"add output {out.shape} does not fit {a.shape}")
    _count(a.size)
    return _checked(np.add(a, b, out=out))


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    _count(a.size)
    return _checked(a - b)


def add_rowvec(a: np.ndarray, v: np.ndarray, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Broadcast-add a length-n vector to every row of an (m, n) matrix;
    ``out`` as for `add` (``a`` itself, say)."""
    if a.ndim != 2 or v.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec shapes differ: {a.shape} vs {v.shape}")
    if out is not None and out.shape != a.shape:
        raise ShapeError(f"add_rowvec output {out.shape} does not fit {a.shape}")
    _count(a.size)
    return _checked(np.add(a, v[None, :], out=out))


def scale(a: np.ndarray, s: float) -> np.ndarray:
    _count(a.size)
    return _checked(a * np.float32(s))


def tanh_map(a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise tanh; ``out`` as for `add` (``a`` itself, say).  tanh
    takes each finite value to a finite one but +-inf to +-1, so the
    operand, which may be a product `matmul` left unchecked, is checked."""
    _count(a.size)
    return readonly(np.tanh(_checked(a, freeze=False), out=out))


# ---------------------------------------------------------------------------
# binary16 boundary
# ---------------------------------------------------------------------------

F16_MAX = 65504.0


def encode_f16(a: np.ndarray) -> bytes:
    """Quantize to IEEE-754 binary16 (round to nearest even), little-endian."""
    if np.any(np.abs(a) > F16_MAX):
        worst = float(np.max(np.abs(a)))
        raise RangeError(f"value {worst} exceeds binary16 max {F16_MAX}")
    half = a.astype("<f2")
    if not np.all(np.isfinite(half)):
        raise RangeError("binary16 rounding overflowed to infinity")
    return half.tobytes()


def decode_f16(raw: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """Widen binary16 bytes to float32, refusing infinities and NaNs."""
    n = int(np.prod(shape, dtype=np.int64))
    if len(raw) != 2 * n:
        raise ShapeError(f"binary16 buffer holds {len(raw)} bytes, need {2 * n}")
    a = np.frombuffer(raw, dtype="<f2").astype(np.float32).reshape(shape)
    if not np.isfinite(a).all():
        raise RangeError("binary16 payload holds non-finite values")
    return readonly(a)


def fp16_roundtrip(a: np.ndarray) -> np.ndarray:
    """Quantize each element to binary16 and widen back to float32."""
    return decode_f16(encode_f16(a), a.shape)


# ---------------------------------------------------------------------------
# Reproducible RNG
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash, stable across runs and platforms."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _U64_MASK
    return h


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _uniform01(seeds: list[int], position: int, n: int) -> np.ndarray:
    """Outputs position+1 .. position+n of each seed's stream as 53-bit
    floats in (0, 1], so log() is always finite; one row per seed.

    Each integer buffer is dropped as soon as it is used up, since the
    draw of a weight matrix is MB-sized.
    """
    idx = np.arange(position + 1, position + n + 1, dtype=np.uint64)
    raw = _mix64(np.array(seeds, dtype=np.uint64)[:, None] + idx * _GOLDEN)
    del idx
    raw >>= np.uint64(11)
    return (raw.astype(np.float64) + 1.0) * 2.0**-53


def gaussian_rows(seeds: list[int], n: int, position: int = 0) -> np.ndarray:
    """Row i holds n float32 Gaussians of seed i's stream, all rows in one
    pass: Box-Muller over consecutive pairs of outputs position+1, ..."""
    u = _uniform01(seeds, position, 2 * ((n + 1) // 2))
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * math.pi * u[:, 1::2]
    out = np.empty(u.shape, dtype=np.float64)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return readonly(out[:, :n].astype(np.float32))


class Rng:
    """Counter-based generator: output i is a pure function of (seed, i).

    Gaussians come from Box-Muller over consecutive output pairs, so equal
    seeds give bitwise-equal float32 streams regardless of chunking into
    even-sized draws.  This is what lets cloud and device re-derive the
    same initial latent from one shared 64-bit seed.
    """

    __slots__ = ("seed", "position")

    def __init__(self, seed: int, position: int = 0):
        self.seed = seed & _U64_MASK
        self.position = position

    def gaussian(self, shape: tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape, dtype=np.int64))
        z = gaussian_rows([self.seed], n, self.position)
        self.position += 2 * ((n + 1) // 2)
        return z.reshape(shape)
