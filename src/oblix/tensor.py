"""Dense float32 tensors, counted arithmetic, and a reproducible RNG.

Every arithmetic primitive here feeds the session FLOPs counter when one
is active.  The counting conventions are fixed package-wide:

    matmul (m,n)x(n,p)   2*m*n*p
    softmax per element  5      (max scan, subtract, exp, sum, divide)
    elementwise add/sub  1
    scalar multiply      1
    tanh per element     1

Tensors are immutable after construction and hold row-major float32 data,
so their byte images are well defined for hashing and wire encoding.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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

    @contextmanager
    def step(self, index: int, *, recompute: bool = True, skip: bool = False,
             reuse: bool = False):
        if self._current is not None:
            raise InternalError("nested step contexts on one counter")
        self._current = StepCost(index, 0, recompute, skip, reuse)
        try:
            yield self._current
        finally:
            self.steps.append(self._current)
            self._current = None

    @contextmanager
    def tag(self, name: str):
        prev = self._tag
        self._tag = name
        try:
            yield
        finally:
            self._tag = prev

    def tag_total(self, tag: str) -> int:
        return sum(v for (_, t), v in self.tagged.items() if t == tag)


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


@contextmanager
def flops_tag(name: str):
    c = _ACTIVE_COUNTER.get()
    if c is None:
        yield
    else:
        with c.tag(name):
            yield


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Immutable n-dimensional float32 array with explicit shape."""

    __slots__ = ("_a",)

    def __init__(self, array: np.ndarray):
        a = np.ascontiguousarray(array, dtype=np.float32)
        if not np.isfinite(a).all():
            raise InternalError("tensor holds non-finite values")
        a.flags.writeable = False
        object.__setattr__(self, "_a", a)

    # construction helpers -------------------------------------------------

    @classmethod
    def from_list(cls, values, shape: tuple[int, ...] | None = None) -> "Tensor":
        a = np.asarray(values, dtype=np.float32)
        if shape is not None:
            if int(np.prod(shape, dtype=np.int64)) != a.size:
                raise ShapeError(
                    f"shape {tuple(shape)} does not hold {a.size} values"
                )
            a = a.reshape(shape)
        return cls(a)

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32))

    @classmethod
    def full(cls, shape: tuple[int, ...], value: float) -> "Tensor":
        return cls(np.full(shape, value, dtype=np.float32))

    # views / accessors ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def size(self) -> int:
        return int(self._a.size)

    def to_numpy(self) -> np.ndarray:
        return self._a

    def tolist(self):
        return self._a.tolist()

    def tobytes(self) -> bytes:
        return self._a.tobytes()

    def reshape(self, shape: tuple[int, ...]) -> "Tensor":
        return Tensor(self._a.reshape(shape))

    def row(self, i: int) -> "Tensor":
        return Tensor(self._a[i])

    def transpose2d(self) -> "Tensor":
        if self._a.ndim != 2:
            raise ShapeError(f"transpose2d needs a matrix, got {self.shape}")
        return Tensor(self._a.T)

    def same_bits(self, other: "Tensor") -> bool:
        return self.shape == other.shape and self.tobytes() == other.tobytes()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def stack_rows(rows: list[Tensor]) -> Tensor:
    return Tensor(np.stack([r.to_numpy() for r in rows], axis=0))


def row_blocks(a: Tensor, n: int) -> list[Tensor]:
    """Split a row-stacked (n*m, d) matrix into its n (m, d) blocks.

    Block r is rows [r*m, (r+1)*m) and shares memory with ``a``.
    """
    arr = a.to_numpy()
    if arr.ndim != 2 or n < 1 or arr.shape[0] % n:
        raise ShapeError(f"cannot split {a.shape} into {n} row blocks")
    m = arr.shape[0] // n
    return [Tensor(arr[r * m:(r + 1) * m]) for r in range(n)]


# ---------------------------------------------------------------------------
# Counted primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; counts 2*m*n*p FLOPs on the active counter."""
    if a.to_numpy().ndim != 2 or b.to_numpy().ndim != 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} and {b.shape}")
    m, n = a.shape
    n2, p = b.shape
    if n != n2:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    _count(2 * m * n * p)
    return Tensor(a.to_numpy() @ b.to_numpy())


def softmax_rows(a: Tensor) -> Tensor:
    """Row softmax with max subtraction for stability."""
    arr = a.to_numpy()
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ShapeError(f"softmax_rows needs a matrix with columns, got {a.shape}")
    m, n = arr.shape
    _count(SOFTMAX_FLOPS_PER_ELEM * m * n)
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted, dtype=np.float32)
    return Tensor(e / e.sum(axis=1, keepdims=True, dtype=np.float32))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    _count(a.size)
    return Tensor(a.to_numpy() + b.to_numpy())


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    _count(a.size)
    return Tensor(a.to_numpy() - b.to_numpy())


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Broadcast-add a length-n vector to every row of an (m, n) matrix."""
    if a.to_numpy().ndim != 2 or v.to_numpy().ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec shapes differ: {a.shape} vs {v.shape}")
    _count(a.size)
    return Tensor(a.to_numpy() + v.to_numpy()[None, :])


def scale(a: Tensor, s: float) -> Tensor:
    _count(a.size)
    return Tensor(a.to_numpy() * np.float32(s))


def tanh_map(a: Tensor) -> Tensor:
    _count(a.size)
    return Tensor(np.tanh(a.to_numpy()))


# ---------------------------------------------------------------------------
# binary16 boundary
# ---------------------------------------------------------------------------

F16_MAX = 65504.0


def encode_f16(a: Tensor) -> bytes:
    """Quantize to IEEE-754 binary16 (round to nearest even), little-endian."""
    arr = a.to_numpy()
    if np.any(np.abs(arr) > F16_MAX):
        worst = float(np.max(np.abs(arr)))
        raise RangeError(f"value {worst} exceeds binary16 max {F16_MAX}")
    half = arr.astype("<f2")
    if not np.all(np.isfinite(half)):
        raise RangeError("binary16 rounding overflowed to infinity")
    return half.tobytes()


def decode_f16(raw: bytes, shape: tuple[int, ...]) -> Tensor:
    n = int(np.prod(shape, dtype=np.int64))
    if len(raw) != 2 * n:
        raise ShapeError(f"binary16 buffer holds {len(raw)} bytes, need {2 * n}")
    return Tensor(np.frombuffer(raw, dtype="<f2").astype(np.float32).reshape(shape))


def fp16_roundtrip(a: Tensor) -> Tensor:
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

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.position + 1, self.position + n + 1, dtype=np.uint64)
        self.position += n
        return _mix64(np.uint64(self.seed) + idx * _GOLDEN)

    def uniform01(self, n: int) -> np.ndarray:
        # (0, 1] so log() below is always finite
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def gaussian(self, shape: tuple[int, ...]) -> Tensor:
        n = int(np.prod(shape, dtype=np.int64))
        pairs = (n + 1) // 2
        u = self.uniform01(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return Tensor(out[:n].astype(np.float32).reshape(shape))
