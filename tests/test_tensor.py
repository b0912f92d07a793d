import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblix.errors import InternalError, RangeError, ShapeError
from oblix.tensor import (
    MASK_CHECK_MAX,
    FlopsCounter,
    Rng,
    _checked,
    add,
    add_rowvec,
    decode_f16,
    encode_f16,
    flops_tag,
    fnv1a64,
    fp16_roundtrip,
    matmul,
    scale,
    softmax_rows,
    sub,
    tanh_map,
    use_flops_counter,
)

from bitwise import same_bits


def T(values):
    return np.array(values, dtype=np.float32)


# --- matmul -----------------------------------------------------------------

def test_matmul_identity_is_exact():
    a = T([[1.5, 2.5], [3.25, -4.0]])
    eye = T([[1.0, 0.0], [0.0, 1.0]])
    assert same_bits(matmul(eye, a), a)


def test_matmul_zero_row():
    assert matmul(T([[1.0, 0.0]]), T([[0.0], [5.0]])).tolist() == [[0.0]]


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    out = matmul(a, b)
    expect = np.zeros((3, 2), dtype=np.float64)
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += float(a[i, k]) * float(b[k, j])
    assert np.allclose(out, expect, atol=1e-6)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(T([[1.0, 2.0]]), T([[1.0, 2.0]]))
    assert "(1, 2)" in str(err.value) and "inner" in str(err.value)


def test_matmul_counts_2mnp():
    counter = FlopsCounter()
    with use_flops_counter(counter):
        matmul(np.ones((3, 4), np.float32), np.ones((4, 2), np.float32))
    assert counter.total == 2 * 3 * 4 * 2


def test_matmul_bias_has_the_bits_of_a_separate_add():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(7, 5)).astype(np.float32)
    b = rng.normal(size=(5, 4)).astype(np.float32)
    bias = rng.normal(size=4).astype(np.float32)
    assert same_bits(matmul(a, b, bias), add_rowvec(matmul(a, b), bias))
    assert same_bits(matmul(a, b, bias), (a @ b) + bias[None, :])


def test_matmul_scale_has_the_bits_of_a_separate_multiply():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 5)).astype(np.float32)
    b = rng.normal(size=(4, 5)).astype(np.float32)
    factor = 1.0 / np.sqrt(5.0)
    want = scale(matmul(a, b.T), factor)
    assert same_bits(matmul(a, b.T, scale=factor), want)
    assert same_bits(matmul(a, b.T, scale=factor), (a @ b.T) * np.float32(factor))


def test_matmul_bias_counts_2mnp_plus_mp_in_the_active_bucket():
    counter = FlopsCounter()
    with use_flops_counter(counter), counter.step(1), flops_tag("site/proj"):
        matmul(np.ones((3, 4), np.float32), np.ones((4, 2), np.float32),
               np.ones(2, np.float32))
    assert counter.total == 2 * 3 * 4 * 2 + 3 * 2
    assert counter.tagged == {(1, "site/proj"): 2 * 3 * 4 * 2 + 3 * 2}


def test_matmul_scale_counts_2mnp_plus_mp_in_the_active_bucket():
    counter = FlopsCounter()
    with use_flops_counter(counter), counter.step(1), flops_tag("site/map"):
        matmul(np.ones((3, 4), np.float32), np.ones((4, 2), np.float32),
               scale=0.5)
    assert counter.total == 2 * 3 * 4 * 2 + 3 * 2
    assert counter.tagged == {(1, "site/map"): 2 * 3 * 4 * 2 + 3 * 2}


def test_matmul_refuses_a_bias_that_does_not_fit():
    for bias in (T([1.0, 2.0, 3.0]), T([[1.0, 2.0]])):
        with pytest.raises(ShapeError):
            matmul(T([[1.0, 2.0]]), T([[1.0, 2.0], [3.0, 4.0]]), bias)


def test_matmul_into_a_slice_leaves_the_check_to_the_caller():
    # the caller fills a buffer slice by slice and checks it once, so a
    # product made in place is neither checked nor read-only yet
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 5)).astype(np.float32)
    b = rng.normal(size=(4, 5)).astype(np.float32)
    buf = np.zeros((9, 4), np.float32)
    counter = FlopsCounter()
    with use_flops_counter(counter):
        got = matmul(a, b.T, scale=0.25, out=buf[3:6])
    assert np.shares_memory(got, buf) and got.flags.writeable
    assert same_bits(buf[3:6], matmul(a, b.T, scale=0.25))
    assert not buf[:3].any() and not buf[6:].any()
    assert counter.total == 2 * 3 * 5 * 4 + 3 * 4
    with np.errstate(over="ignore"):
        matmul(BIG, T([[10.0], [0.0]]), out=np.empty((1, 1), np.float32))
    with pytest.raises(ShapeError):
        matmul(a, b.T, out=buf[:4])


def test_an_add_in_place_has_the_bits_of_a_fresh_sum():
    # the forward adds a residual and the time vector in place on a fresh
    # product that matmul left unchecked: the sum keeps the bits of a fresh
    # one and is checked, so a non-finite product is refused
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 4)).astype(np.float32)
    p = rng.normal(size=(6, 4)).astype(np.float32)
    v = p[0].copy()
    cases = {"add": (lambda buf: add(h, buf, out=buf), add(h, p)),
             "add_rowvec": (lambda buf: add_rowvec(buf, v, out=buf),
                            add_rowvec(p, v))}
    for name, (in_place, fresh) in cases.items():
        buf = p.copy()
        got = in_place(buf)
        assert got is buf and not got.flags.writeable, name
        assert same_bits(got, fresh), name
        for bad in (np.inf, -np.inf, np.nan):
            buf = p.copy()
            buf[2, 1] = bad
            with pytest.raises(InternalError):
                in_place(buf)
    with pytest.raises(ShapeError):
        add(h, p, out=np.empty((4, 6), np.float32))
    with pytest.raises(ShapeError):
        add_rowvec(h, v, out=np.empty((4, 6), np.float32))


# --- block products ---------------------------------------------------------

@pytest.mark.parametrize("blocks", [1, 2, 31, 256])
def test_a_block_product_with_a_shared_b_keeps_each_blocks_bits(blocks):
    # w_out's shape, where OpenBLAS 0.3.31 gives a flat (N*256, 32) @ (32, 4)
    # product other bits than its 256-row blocks' own products from N = 31
    a = Rng(60).gaussian((blocks * 256, 32))
    b, bias = Rng(61).gaussian((32, 4)), Rng(62).gaussian((4,))
    want = np.concatenate([matmul(block, b, bias)
                           for block in np.split(a, blocks)])
    got = matmul(a, b, bias, blocks=blocks)
    assert same_bits(got, want) and not got.flags.writeable


@pytest.mark.parametrize("kv_tokens,blocks", [(256, 3), (256, 4), (16, 64)])
def test_a_block_product_with_a_row_stacked_b_keeps_each_blocks_bits(
        kv_tokens, blocks):
    # attention's map-times-value shape: block r of the (rows*S, T) maps
    # times block r of the (rows*T, width) values, into a buffer's slice
    maps = Rng(63).gaussian((blocks * 256, kv_tokens))
    values = Rng(64).gaussian((blocks * kv_tokens, 32))
    want = np.concatenate([matmul(m, v) for m, v in
                           zip(np.split(maps, blocks), np.split(values, blocks))])
    buf = np.zeros(((blocks + 2) * 256, 32), np.float32)
    got = matmul(maps, values, out=buf[256:-256], blocks=blocks)
    assert np.shares_memory(got, buf) and got.flags.writeable
    assert same_bits(buf[256:-256], want)
    assert not buf[:256].any() and not buf[-256:].any()


@pytest.mark.parametrize("fused", ["bias", "scale"])
@pytest.mark.parametrize("stacked_b", [False, True])
def test_a_block_product_counts_what_its_blocks_count(fused, stacked_b):
    blocks, m, k, p = 3, 4, 5, 2
    a = Rng(65).gaussian((blocks * m, k))
    b = Rng(66).gaussian(((blocks if stacked_b else 1) * k, p))
    extra = {"bias": {"bias": Rng(67).gaussian((p,))},
             "scale": {"scale": 0.25}}[fused]
    whole, parts = FlopsCounter(), FlopsCounter()
    with use_flops_counter(whole), whole.step(1), flops_tag("site/value"):
        matmul(a, b, blocks=blocks, **extra)
    b_blocks = np.split(b, blocks) if stacked_b else [b] * blocks
    with use_flops_counter(parts), parts.step(1), flops_tag("site/value"):
        for a_block, b_block in zip(np.split(a, blocks), b_blocks):
            matmul(a_block, b_block, **extra)
    assert whole.total == parts.total == blocks * (2 * m * k * p + m * p)
    assert whole.tagged == parts.tagged


def test_a_block_product_refuses_operands_that_do_not_fit():
    a, b = np.ones((6, 2), np.float32), np.ones((2, 3), np.float32)
    for blocks in (0, 4):  # a's 6 rows do not split into 0 or 4 blocks
        with pytest.raises(ShapeError):
            matmul(a, b, blocks=blocks)
    for rows in (3, 4, 8):  # b is neither (2, p) nor (3*2, p)
        with pytest.raises(ShapeError):
            matmul(a, np.ones((rows, 3), np.float32), blocks=3)
    buf = np.zeros((6, 4), np.float32)
    for out in (buf[:4, :3], buf[:, :3], np.zeros((3, 6), np.float32)):
        # too few rows, a strided view, and the transposed shape
        with pytest.raises(ShapeError):
            matmul(a, b, out=out, blocks=3)


# --- softmax ----------------------------------------------------------------

def test_softmax_symmetry():
    assert softmax_rows(T([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]


def test_softmax_saturation_is_stable():
    out = softmax_rows(T([[1000.0, 0.0]]))
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-6)
    assert np.all(np.isfinite(out))


def test_softmax_direct_formula_oracle():
    # high-precision reference computed straight from the definition
    import mpmath
    mpmath.mp.dps = 50
    exps = [mpmath.e ** x for x in (1, 2, 3)]
    total = sum(exps)
    expect = [float(e / total) for e in exps]
    out = softmax_rows(T([[1.0, 2.0, 3.0]]))[0]
    assert np.allclose(out, expect, atol=1e-6)


@settings(max_examples=60)
@given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = softmax_rows(T(rows))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out >= 0.0)


def _softmax_by_max(a):
    """The max-based formula `softmax_rows` used before it read the row max
    at argmax."""
    e = a - a.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True, dtype=np.float32)
    return e


_ANY = st.floats(width=32)  # NaN and the infinities included
_SMALL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-30, -1e-30, 88.0])


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.one_of(_SMALL, _ANY), min_size=cols, max_size=cols),
    min_size=1, max_size=5)))
def test_softmax_matches_the_max_based_formula_bitwise(rows):
    # ties (a small pool of values), +0 beside -0 in one row, magnitudes
    # across float32's range, NaN and the infinities, one-column rows; the
    # fresh path, in place on the input's own buffer, and into another one
    a = T(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _softmax_by_max(a.copy())
        for src, out in ((a, None), (a.copy(),) * 2, (a, a.copy())):
            if np.isfinite(want).all():
                got = softmax_rows(src, out=out)
                assert same_bits(got, want)
                assert not got.flags.writeable
                assert out is None or np.shares_memory(got, out)
            else:
                with pytest.raises(InternalError):
                    softmax_rows(src, out=out)


def test_softmax_ties_of_signed_zeros_keep_their_bits():
    a = T([[0.0, -0.0, -1.0], [-0.0, 0.0, -0.0], [-0.0, -3.0, 0.0],
           [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    assert same_bits(softmax_rows(a), _softmax_by_max(a.copy()))


@pytest.mark.parametrize("row", [[np.nan, 0.0], [0.0, np.nan], [np.inf, 1.0],
                                 [1.0, np.inf], [-np.inf, -np.inf],
                                 [np.nan, np.inf]])
def test_softmax_refuses_nan_and_infinite_rows(row):
    a = T([[0.5, 0.25], row, [1.0, 2.0]])
    with np.errstate(invalid="ignore"), pytest.raises(InternalError):
        softmax_rows(a)
    with np.errstate(invalid="ignore"), pytest.raises(InternalError):
        softmax_rows(a, out=a)


def test_softmax_requires_columns():
    with pytest.raises(ShapeError):
        softmax_rows(T([1.0, 2.0]))


@pytest.mark.parametrize("shape", [(3, 3), (2, 2), (2, 3), (6,)])
def test_softmax_refuses_a_misshapen_out(shape):
    a = T([[0.5, 0.25], [1.0, 2.0], [0.0, -1.0]])
    with pytest.raises(ShapeError):
        softmax_rows(a, out=np.empty(shape, dtype=np.float32))


# --- binary16 ---------------------------------------------------------------

def _f16_bits_oracle(value: float) -> int:
    """Independent bit-level float32 -> binary16 converter (round to
    nearest even), mirroring the IEEE-754 algorithm directly."""
    (bits,) = struct.unpack(">I", struct.pack(">f", value))
    sign = (bits >> 16) & 0x8000
    exp = ((bits >> 23) & 0xFF) - 127
    mant = bits & 0x7FFFFF
    if exp == 128:  # inf/nan
        return sign | 0x7C00 | (0x200 if mant else 0)
    if exp > 15:
        return sign | 0x7C00
    mant |= 0x800000  # implicit leading one
    if exp >= -14:
        shift = 13
        base = (exp + 15) << 10
        implicit = 0x400  # the leading one lands on this bit after shifting
    else:
        shift = 13 + (-14 - exp)  # denormalize into the subnormal range
        base = 0
        implicit = 0
    half_mant = mant >> shift
    remainder = mant & ((1 << shift) - 1)
    halfway = 1 << (shift - 1)
    if remainder > halfway or (remainder == halfway and half_mant & 1):
        half_mant += 1  # a carry here rolls into the exponent field below
    result = base + half_mant - implicit
    if result >= 0x7C00:
        return sign | 0x7C00
    return sign | result


def test_fp16_trivial_values():
    assert fp16_roundtrip(T([0.0])).tolist() == [0.0]
    assert fp16_roundtrip(T([1.0])).tolist() == [1.0]


def test_fp16_known_rounding():
    assert fp16_roundtrip(T([0.1])).tolist() == [0.0999755859375]


@settings(max_examples=120)
@given(st.floats(min_value=-65000, max_value=65000, allow_nan=False,
                 width=32))
def test_fp16_matches_bit_level_oracle(x):
    ours = encode_f16(T([x]))
    (got,) = struct.unpack("<H", ours)
    assert got == _f16_bits_oracle(x)


@settings(max_examples=80)
@given(st.floats(min_value=-60000, max_value=60000, allow_nan=False,
                 width=32))
def test_fp16_roundtrip_idempotent(x):
    once = fp16_roundtrip(T([x]))
    twice = fp16_roundtrip(once)
    assert same_bits(once, twice)


def test_fp16_overflow_raises_range_error():
    with pytest.raises(RangeError):
        fp16_roundtrip(T([70000.0]))


def test_f16_codec_length_check():
    with pytest.raises(ShapeError):
        decode_f16(b"\x00\x00\x00", (2,))


# --- array invariants --------------------------------------------------------

BIG = T([[3e38, 1.0]])
# each counted primitive driven to a non-finite result; softmax and tanh
# cannot overflow, so they are fed a NaN
NON_FINITE = {
    "matmul": lambda: matmul(BIG, T([[10.0], [0.0]])),
    # overflow in the product, and in the bias add on a finite product
    "matmul bias product": lambda: matmul(BIG, T([[10.0], [0.0]]), T([0.0])),
    "matmul bias add": lambda: matmul(BIG, T([[1.0], [0.0]]), T([3e38])),
    "matmul scale": lambda: matmul(BIG, T([[1.0], [0.0]]), scale=10.0),
    "softmax_rows": lambda: softmax_rows(T([[np.nan, 0.0]])),
    "softmax_rows inf": lambda: softmax_rows(T([[0.0, np.inf]])),
    "add": lambda: add(BIG, BIG),
    "sub": lambda: sub(BIG, -BIG),
    "add_rowvec": lambda: add_rowvec(BIG, T([3e38, 0.0])),
    "scale": lambda: scale(BIG, 10.0),
    "tanh_map": lambda: tanh_map(T([[np.nan]])),
}


def test_tensor_rejects_non_finite():
    passed = []
    for name, op in NON_FINITE.items():
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                op()
        except InternalError:
            continue
        passed.append(name)
    assert passed == []


@pytest.mark.parametrize("size", [MASK_CHECK_MAX, MASK_CHECK_MAX + 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_check_finds_a_non_finite_value_anywhere(size, bad):
    # a mask up to MASK_CHECK_MAX values, a min and a max above it: either
    # way one NaN, +inf or -inf at the first, a middle or the last value is
    # refused, and a finite array is returned read-only
    a = Rng(2).gaussian((size,)) * np.float32(3e37)
    assert _checked(a.copy()).flags.writeable is False
    for at in (0, size // 2, size - 1):
        b = a.copy()
        b[at] = bad
        with pytest.raises(InternalError, match="non-finite"):
            _checked(b)


def test_tanh_refuses_an_infinite_operand_it_would_map_to_one():
    with pytest.raises(InternalError):
        tanh_map(T([[0.5, np.inf]]))
    with pytest.raises(InternalError):
        tanh_map(T([[-np.inf, 0.5]]))
    x = T([[0.5, -1.0], [2.0, 0.25]])
    buf = x.copy()
    assert tanh_map(buf, out=buf) is buf
    assert same_bits(buf, tanh_map(x))


def test_tensor_is_immutable():
    x = T([[0.5, -1.0], [2.0, 0.25]])
    outputs = {
        "matmul": matmul(x, x), "matmul bias": matmul(x, x, x[0]),
        "matmul scale": matmul(x, x, scale=0.5),
        "softmax_rows": softmax_rows(x),
        "add": add(x, x), "sub": sub(x, x),
        "add_rowvec": add_rowvec(x, x[0]), "scale": scale(x, 2.0),
        "tanh_map": tanh_map(x), "fp16_roundtrip": fp16_roundtrip(x),
        "gaussian": Rng(1).gaussian((2, 2)),
    }
    for name, out in outputs.items():
        assert out.dtype == np.float32 and out.flags.c_contiguous, name
        with pytest.raises(ValueError):
            out[0, 0] = 9.0


# --- Rng ---------------------------------------------------------------------

def test_rng_equal_seeds_equal_streams():
    a = Rng(1234).gaussian((257,))
    b = Rng(1234).gaussian((257,))
    assert same_bits(a, b)


def test_rng_different_seeds_differ():
    assert not same_bits(Rng(1).gaussian((64,)), Rng(2).gaussian((64,)))


def test_rng_chunked_draws_match_single_draw():
    whole = Rng(99).gaussian((512,))
    r = Rng(99)
    parts = np.concatenate([r.gaussian((128,)), r.gaussian((384,))])
    assert np.array_equal(whole, parts)


def test_rng_moments_are_sane():
    x = Rng(5).gaussian((20000,))
    assert abs(float(x.mean())) < 0.03
    assert abs(float(x.std()) - 1.0) < 0.03


def test_fnv1a64_is_stable():
    # reference value of the canonical FNV-1a 64-bit test vector
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


# --- counter ----------------------------------------------------------------

def test_counter_steps_and_tags():
    c = FlopsCounter()
    with use_flops_counter(c):
        with c.step(1, reuse=True):
            with flops_tag("site/map"):
                matmul(np.ones((2, 2), np.float32),
                       np.ones((2, 2), np.float32))
        with c.step(2):
            matmul(np.ones((2, 2), np.float32), np.ones((2, 2), np.float32))
    assert c.total == 32
    assert [s.flops for s in c.steps] == [16, 16]
    assert c.steps[0].reuse and not c.steps[1].reuse
    assert c.tagged[(1, "site/map")] == 16
    assert sum(v for (_, tag), v in c.tagged.items() if tag == "site/map") == 16


def test_tag_scope_is_restored_after_an_error_inside_it():
    c = FlopsCounter()
    one = np.ones((2, 2), np.float32)
    with use_flops_counter(c), c.step(1):
        with flops_tag("outer"):
            with pytest.raises(ShapeError):
                with flops_tag("inner"):
                    matmul(one, one)
                    matmul(one, T([[1.0, 2.0]]))
            matmul(one, one)
        matmul(one, one)
    assert c.tagged == {(1, "inner"): 16, (1, "outer"): 16}
    assert c.steps[0].flops == 48 and c._tag is None


def test_tag_scope_is_restored_after_a_nested_scope():
    c = FlopsCounter()
    one = np.ones((2, 2), np.float32)
    with use_flops_counter(c), c.step(1):
        with flops_tag("a"):
            with flops_tag("b"):
                with flops_tag("c"):
                    matmul(one, one)
                matmul(one, one)
            matmul(one, one)
        matmul(one, one)
    assert c.tagged == {(1, "a"): 16, (1, "b"): 16, (1, "c"): 16}
    assert c.total == 64 and c._tag is None


def test_tag_scope_without_a_counter_is_one_shared_no_op():
    assert flops_tag("a") is flops_tag("b")
    with flops_tag("a"):
        matmul(np.ones((2, 2), np.float32), np.ones((2, 2), np.float32))
