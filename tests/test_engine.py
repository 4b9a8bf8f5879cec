import math
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxdet import engine as eng
from voxdet.engine import (
    Tape,
    Tensor,
    add,
    bilinear_sample,
    conv2d,
    deform_conv2d,
    exp,
    linear,
    load_checkpoint,
    matmul,
    mul,
    neg,
    relu,
    reshape,
    save_checkpoint,
    sigmoid,
    smooth_l1,
    softplus,
    tmean,
    tsum,
)
from voxdet.verify import gradient_check
from helpers import zero_bias
from oracles import (
    dense_conv2d,
    im2col_conv2d,
    loop_deform_conv2d,
    loop_deform_input_grad,
    loop_deform_offset_grad,
    loop_deform_samples,
    numeric_gradient,
    whole_deform_conv2d,
)


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


# ---------------------------------------------------------------------------
# forward semantics


def test_conv2d_identity_kernel():
    x = Tensor(rand((3, 5, 5), 0))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(x, Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_constant_field():
    # zero padding keeps the size: 9 taps inside, 6 on an edge, 4 in a corner
    x = Tensor(np.ones((1, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, zero_bias(w))
    assert out.data.shape == (1, 5, 5)
    edge = np.array([2.0, 3.0, 3.0, 3.0, 2.0])
    np.testing.assert_array_equal(out.data[0], np.outer(edge, edge))


def test_conv2d_matches_loop_oracle():
    x = rand((2, 4, 4), 1)
    w = rand((3, 2, 3, 3), 2)
    b = rand((3,), 3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b))
    want = dense_conv2d(x, w, b, stride=1, padding=1)
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_conv2d_shape_mismatch():
    with pytest.raises(ValueError, match="channel mismatch"):
        conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 5, 3, 3))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("kernel", [(2, 2), (3, 4)])
def test_convolutions_reject_an_even_kernel(kernel):
    x = Tensor(np.zeros((1, 6, 6)))
    w = Tensor(np.zeros((1, 1, *kernel)))
    with pytest.raises(ValueError, match="kernel must be odd"):
        conv2d(x, w, zero_bias(w))
    off = Tensor(np.zeros((2 * kernel[0] * kernel[1], 6, 6)))
    with pytest.raises(ValueError, match="kernel must be odd"):
        deform_conv2d(x, w, off, zero_bias(w))


def test_deform_zero_offsets_equals_conv_exactly():
    # the 1x1 kernel with one output channel multiplies a matrix by a vector,
    # where the sampled matrix's memory order picks the BLAS path
    for c_in, c_out, k in ((2, 4, 3), (4, 1, 1), (2, 3, 5)):
        x = Tensor(rand((c_in, 6, 6), 4))
        w = Tensor(rand((c_out, c_in, k, k), 5))
        b = Tensor(rand((c_out,), 6))
        off = Tensor(np.zeros((2 * k * k, 6, 6)))
        got = deform_conv2d(x, w, off, b)
        want = conv2d(x, w, b)
        assert np.array_equal(got.data, want.data)


def test_deform_integer_shift_equals_shifted_conv():
    x = rand((1, 6, 6), 7)
    w = rand((2, 1, 3, 3), 8)
    off = np.zeros((18, 6, 6))
    off[1::2] = 1.0  # shift every tap one pixel in +x
    got = deform_conv2d(Tensor(x), Tensor(w), Tensor(off), zero_bias(w))
    want = conv2d(Tensor(x), Tensor(w), zero_bias(w))
    np.testing.assert_allclose(got.data[:, :, :-1], want.data[:, :, 1:], atol=1e-12)


def test_deform_fractional_offsets_per_tap_oracle():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, (1, 6, 6))
    w = rng.uniform(-1, 1, (2, 1, 3, 3))
    off = rng.uniform(-1.3, 1.3, (18, 6, 6))

    def sample(c, y, x_):
        total = 0.0
        y0, x0 = math.floor(y), math.floor(x_)
        for yy, wy in ((y0, y0 + 1 - y), (y0 + 1, y - y0)):
            for xx, wx in ((x0, x0 + 1 - x_), (x0 + 1, x_ - x0)):
                if 0 <= yy < 6 and 0 <= xx < 6:
                    total += x[c, yy, xx] * wy * wx
        return total

    got = deform_conv2d(Tensor(x), Tensor(w), Tensor(off), zero_bias(w))
    for co in range(2):
        for oy in range(6):
            for ox in range(6):
                acc = 0.0
                for n, (ky, kx) in enumerate((a, b) for a in range(3) for b in range(3)):
                    yy = oy + ky - 1 + off[2 * n, oy, ox]
                    xx = ox + kx - 1 + off[2 * n + 1, oy, ox]
                    acc += w[co, 0, ky, kx] * sample(0, yy, xx)
                assert got.data[co, oy, ox] == pytest.approx(acc, abs=1e-12)


def test_deform_offset_shape_errors():
    x = Tensor(np.zeros((1, 6, 6)))
    w = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError, match="offset channels"):
        deform_conv2d(x, w, Tensor(np.zeros((4, 4, 4))), zero_bias(w))
    with pytest.raises(ValueError, match="spatial"):
        deform_conv2d(x, w, Tensor(np.zeros((18, 5, 5))), zero_bias(w))


def test_bilinear_sample_basics():
    m = np.zeros((1, 4, 4))
    m[0, 1, 2] = 3.5
    t = Tensor(m)
    assert bilinear_sample(t, 2.0, 1.0).data[0] == 3.5
    m2 = np.zeros((1, 1, 2))
    m2[0, 0, 1] = 1.0
    assert bilinear_sample(Tensor(m2), 0.5, 0.0).data[0] == 0.5
    assert bilinear_sample(t, -5.0, -5.0).data[0] == 0.0
    assert bilinear_sample(t, 10.0, 1.0).data[0] == 0.0


def test_forward_determinism():
    x = Tensor(rand((3, 8, 8), 10))
    w = Tensor(rand((4, 3, 3, 3), 11))
    a = conv2d(x, w, zero_bias(w)).data.tobytes()
    b = conv2d(x, w, zero_bias(w)).data.tobytes()
    assert a == b


# ---------------------------------------------------------------------------
# tape mechanics


def test_tape_topological_order():
    x = Tensor(rand((3, 3), 12), requires_grad=True)
    y = Tensor(rand((3, 3), 13), requires_grad=True)
    with Tape() as tape:
        a = mul(x, y)
        b = add(a, x)
        c = tsum(mul(b, a))
    # checked before the backward, which empties each record it walks
    produced = {}
    for i, rec in enumerate(tape.records):
        for t in rec.inputs:
            if id(t) in produced:
                assert produced[id(t)] < i
        produced[id(rec.output)] = i
    assert len(produced) == 4


def test_gradients_flow_and_accumulate():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        out = tsum(mul(x, x))
        tape.backward(out)
    np.testing.assert_allclose(x.grad, [4.0, 6.0])
    with Tape() as tape:
        out = tsum(x)
        tape.backward(out)
    np.testing.assert_allclose(x.grad, [5.0, 7.0])  # accumulated
    x.zero_grad()
    assert x.grad is None


def test_no_tape_records_nothing():
    x = Tensor(rand((2, 2), 14), requires_grad=True)
    out = mul(x, x)
    assert not out._tracked
    with Tape() as tape:
        untracked = mul(Tensor(np.ones(2)), Tensor(np.ones(2)))
        assert not untracked._tracked
        assert tape.records == []


def test_reused_input_accumulates_through_graph():
    x = Tensor(np.array([1.5]), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)      # x^2
        z = mul(y, x)      # x^3
        tape.backward(tsum(add(y, z)))
    # d/dx (x^2 + x^3) = 2x + 3x^2
    np.testing.assert_allclose(x.grad, [2 * 1.5 + 3 * 1.5 ** 2])


# ---------------------------------------------------------------------------
# gradient checks, one per registered op


def _gc(f, tensors, tol=1e-6, eps=1e-5):
    err = gradient_check(f, tensors, eps=eps)
    assert err < tol, f"gradient error {err}"


def test_grad_add_broadcast():
    a = Tensor(rand((3, 4), 20), requires_grad=True)
    b = Tensor(rand((4,), 21), requires_grad=True)
    _gc(lambda a, b: tsum(mul(add(a, b), add(a, b))), [a, b])


def test_grad_mul_matmul_linear():
    a = Tensor(rand((3, 4), 22), requires_grad=True)
    b = Tensor(rand((4, 2), 23), requires_grad=True)
    _gc(lambda a, b: tsum(matmul(a, b)), [a, b])
    x = Tensor(rand((5, 3), 24), requires_grad=True)
    w = Tensor(rand((2, 3), 25), requires_grad=True)
    bias = Tensor(rand((2,), 26), requires_grad=True)
    _gc(lambda x, w, bias: tsum(mul(linear(x, w, bias), linear(x, w, bias))), [x, w, bias])


def test_grad_activations():
    # keep values away from relu's kink at 0
    x = Tensor(rand((3, 3), 27, lo=0.2, hi=1.5), requires_grad=True)
    _gc(lambda x: tsum(relu(x)), [x])
    y = Tensor(rand((7,), 28, lo=-3, hi=3), requires_grad=True)
    _gc(lambda y: tsum(sigmoid(y)), [y])
    _gc(lambda y: tsum(softplus(y)), [y])
    z = Tensor(rand((5,), 29, lo=0.5, hi=3.0), requires_grad=True)
    _gc(lambda z: tsum(eng.log(z)), [z])
    _gc(lambda z: tsum(eng.exp(z)), [z])
    _gc(lambda z: tsum(eng.pow_const(z, 2.5)), [z])
    _gc(lambda z: tsum(eng.sqrt(z)), [z])


def test_sqrt_gradient_zero_at_origin():
    x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(eng.sqrt(x))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.25])


def test_grad_reductions_and_reshape():
    x = Tensor(rand((2, 3, 4), 30), requires_grad=True)
    _gc(lambda x: tsum(mul(tsum(x, axis=1), tsum(x, axis=1))), [x])
    _gc(lambda x: tmean(mul(x, x)), [x])
    _gc(lambda x: tsum(mul(reshape(x, (6, 4)), reshape(x, (6, 4)))), [x])


def test_transpose_forward_and_gradient():
    x = Tensor(rand((2, 3, 4), 31), requires_grad=True)
    out = eng.transpose(x, (2, 0, 1))
    np.testing.assert_array_equal(out.data, np.transpose(x.data, (2, 0, 1)))
    scale = Tensor(rand((4, 2, 3), 32))
    _gc(lambda x: tsum(mul(eng.transpose(x, (2, 0, 1)), scale)), [x])


def test_grad_smooth_l1():
    # mix of values inside and outside the quadratic zone, away from |x|=1
    x = Tensor(np.array([-2.3, -0.4, 0.2, 0.7, 1.9]), requires_grad=True)
    _gc(lambda x: tsum(smooth_l1(x)), [x])


def test_grad_conv2d():
    x = Tensor(rand((2, 5, 5), 31), requires_grad=True)
    w = Tensor(rand((3, 2, 3, 3), 32), requires_grad=True)
    b = Tensor(rand((3,), 33), requires_grad=True)
    _gc(lambda x, w, b: tsum(conv2d(x, w, b)), [x, w, b])
    # squared output exercises the chain through the conv result
    _gc(lambda x, w, b: tsum(mul(conv2d(x, w, b), conv2d(x, w, b))), [x, w, b])


def test_grad_deform_conv2d():
    rng = np.random.default_rng(34)
    x = Tensor(rng.uniform(-1, 1, (2, 6, 6)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)), requires_grad=True)
    # offsets well away from integers so bilinear weights are smooth locally
    off = Tensor(rng.uniform(0.2, 0.8, (18, 6, 6)) * rng.choice([-1, 1], (18, 6, 6)),
                 requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (2,)), requires_grad=True)
    _gc(lambda x, w, off, b: tsum(deform_conv2d(x, w, off, b)), [x, w, off, b], tol=1e-5)


def _deform_case(seed, c_in=3, c_out=2, size=6, k=3):
    """Random input, kxk weights, upstream gradient and offsets that mix
    fractional, integer and far-off-grid sampling positions."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (c_in, size, size))
    w = rng.uniform(-1, 1, (c_out, c_in, k, k))
    g = rng.uniform(-1, 1, (c_out, size, size))
    off = rng.uniform(-2.5, 2.5, (2 * k * k, size, size))
    pick = rng.random(off.shape)
    off[pick < 0.3] = np.round(off[pick < 0.3])
    off[pick > 0.85] *= 8.0
    return x, w, g, off


@pytest.mark.parametrize("seed", range(6))
def test_deform_input_grad_matches_loop_oracle_bit_for_bit(seed):
    k = 3 if seed % 2 else 5
    x, w, g, off = _deform_case(seed, k=k)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = deform_conv2d(xt, Tensor(w), Tensor(off), zero_bias(w))
        tape.backward(out, seed=g)
    c_in = x.shape[0]
    d_sampled = (w.reshape(w.shape[0], -1).T @ g.reshape(g.shape[0], -1)).reshape(
        c_in, k * k, *g.shape[1:])
    want = loop_deform_input_grad(d_sampled, off, x.shape, stride=1, padding=k // 2)
    assert np.array_equal(xt.grad, want)


def _deform_order_case(seed):
    """A 3x3 (even seed) or 5x5 (odd seed) case with some inputs -0.0."""
    k = (3, 5)[seed % 2]
    x, w, g, off = _deform_case(seed, c_in=4, size=7, k=k)
    x[np.random.default_rng(seed).random(x.shape) < 0.1] = -0.0
    return x, w, g, off, k


@pytest.mark.parametrize("seed", range(4))
def test_deform_samples_match_loop_oracle_bit_for_bit(seed):
    # an identity weight over the C_in*k*k sampled rows outputs the samples
    x, _, _, off, k = _deform_order_case(seed)
    rows = x.shape[0] * k * k
    eye = Tensor(np.eye(rows).reshape(rows, x.shape[0], k, k))
    out = deform_conv2d(Tensor(x), eye, Tensor(off), zero_bias(eye))
    want = loop_deform_samples(x, off, stride=1, padding=k // 2)
    assert np.array_equal(out.data, want.reshape(out.data.shape))


@pytest.mark.parametrize("seed", range(4))
def test_deform_offset_grad_matches_loop_oracle_bit_for_bit(seed):
    x, w, g, off, k = _deform_order_case(seed)
    ot = Tensor(off, requires_grad=True)
    with Tape() as tape:
        out = deform_conv2d(Tensor(x), Tensor(w), ot, zero_bias(w))
        tape.backward(out, seed=g)
    d_sampled = (w.reshape(w.shape[0], -1).T @ g.reshape(g.shape[0], -1)).reshape(
        x.shape[0], k * k, *g.shape[1:])
    want = loop_deform_offset_grad(x, d_sampled, off, stride=1, padding=k // 2)
    assert np.array_equal(ot.grad, want)


def test_deform_offset_grad_at_integer_positions_is_the_right_difference():
    # a zero-initialised offset conv samples at integer positions, where the
    # bilinear read has a kink; the tape must give the right-sided slope
    x, w, g, off = _deform_case(50)
    off = np.round(off)
    off[0:2, 0, :] = 0.0  # tap (0, 0) of the top row reads row -1: its far corner is row 0
    off[8:10, -1, :] = 0.0  # tap (1, 1) of the bottom row reads the last row: far corner off

    def loss(o):
        return float((deform_conv2d(Tensor(x), Tensor(w), Tensor(o), zero_bias(w)).data * g).sum())

    ot = Tensor(off.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(deform_conv2d(Tensor(x), Tensor(w), ot, zero_bias(w)), seed=g)
    eps = 1e-6
    base = loss(off)
    right = np.zeros_like(off)
    for i in range(off.size):
        bumped = off.copy()
        bumped.flat[i] += eps
        right.flat[i] = (loss(bumped) - base) / eps
    np.testing.assert_allclose(ot.grad, right, rtol=0, atol=1e-6)
    assert np.abs(right).max() > 0.1


def _taped_conv(op, x, weight, *rest, bias, g):
    """Run op on a tape and backpropagate g; returns the output and the
    gradients of x, weight, the rest and the bias, in the order
    im2col_conv2d and loop_deform_conv2d return them."""
    ts = [Tensor(a, requires_grad=True) for a in (x, weight, *rest, bias)]
    with Tape() as tape:
        out = op(*ts)
        tape.backward(out, seed=g)
    return out.data, *(t.grad for t in ts)


def _same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a is None and b is None) or np.array_equal(a, b)


# the oracles' stride and padding: the convolutions keep the map's size
_CONV_CASES = [(3, 4, 9, 8, k, 1, k // 2) for k in (1, 3, 5)]


@pytest.mark.parametrize("c_in,c_out,h,w,k,stride,padding",
                         _CONV_CASES + [(128, 50, 64, 64, 5, 1, 2)])
def test_conv2d_matches_stored_patch_oracle_bit_for_bit(c_in, c_out, h, w, k, stride, padding):
    # the backward rebuilds its patches from the padded input; the products
    # keep their operands and layouts, so no byte may move
    rng = np.random.default_rng([c_in, h, k, stride, padding])
    x, weight = rng.uniform(-1, 1, (c_in, h, w)), rng.uniform(-1, 1, (c_out, c_in, k, k))
    bias = rng.uniform(-1, 1, c_out) if (k + stride + padding) % 2 else np.zeros(c_out)
    g = rng.uniform(-1, 1, (c_out, h, w))
    got = _taped_conv(conv2d, x, weight, bias=bias, g=g)
    _same_bytes(got, im2col_conv2d(x, weight, bias, stride, padding, g))


@pytest.mark.parametrize("seed", range(2))
def test_deform_conv2d_matches_loop_formula_bit_for_bit(seed):
    x, w, g, off, k = _deform_order_case(seed)
    bias = np.random.default_rng(seed).uniform(-1, 1, w.shape[0]) if seed else np.zeros(w.shape[0])
    got = _taped_conv(deform_conv2d, x, w, off, bias=bias, g=g)
    _same_bytes(got, loop_deform_conv2d(x, w, off, bias, 1, k // 2, g))


@pytest.mark.parametrize("seed", range(4))
def test_whole_deform_oracle_matches_loop_oracles_bit_for_bit(seed):
    x, w, g, off, k = _deform_order_case(seed)
    bias = np.random.default_rng(seed).uniform(-1, 1, w.shape[0]) if seed % 2 else None
    _same_bytes(whole_deform_conv2d(x, w, off, bias, 1, k // 2, g),
                loop_deform_conv2d(x, w, off, bias, 1, k // 2, g))


def _count_pieces(monkeypatch):
    """Record how many pieces each call of the engine's splitter returns:
    row tiles in a forward, channel blocks in a backward."""
    counts = []
    split = eng._pieces

    def counting(count, unit_bytes):
        pieces = split(count, unit_bytes)
        counts.append(len(pieces))
        return pieces

    monkeypatch.setattr(eng, "_pieces", counting)
    return counts


# stride is the oracles' (and seeds the data); the convolutions keep the map's size
@pytest.mark.parametrize("op", ["conv2d", "deform_conv2d"])
@pytest.mark.parametrize("h,w,k,stride",
                         [(48, 48, 3, 1), (48, 48, 5, 1), (36, 72, 5, 1), (40, 40, 3, 1)])
def test_tiles_and_blocks_match_whole_matrix_oracles_bit_for_bit(monkeypatch, op, h, w, k, stride):
    # a budget of a quarter of the (C*k*k, H*W) matrix splits the forward into
    # row tiles and the backward into channel blocks; no byte may move
    c_in, c_out, padding = 32, 64, k // 2
    rng = np.random.default_rng([h, w, k, stride])
    x = rng.uniform(-1, 1, (c_in, h, w))
    x[rng.random(x.shape) < 0.1] = -0.0
    weight = rng.uniform(-1, 1, (c_out, c_in, k, k))
    bias = rng.uniform(-1, 1, c_out)
    g = rng.uniform(-1, 1, (c_out, h, w))
    monkeypatch.setattr(eng, "_PIECE_BYTES", c_in * k * k * h * w * 8 // 4)
    counts = _count_pieces(monkeypatch)
    if op == "conv2d":
        got = _taped_conv(conv2d, x, weight, bias=bias, g=g)
        want = im2col_conv2d(x, weight, bias, stride, padding, g)
    else:
        off = rng.uniform(-2.5, 2.5, (2 * k * k, h, w))
        pick = rng.random(off.shape)
        off[pick < 0.3] = np.round(off[pick < 0.3])
        off[pick > 0.9] *= 8.0
        got = _taped_conv(deform_conv2d, x, weight, off, bias=bias, g=g)
        want = whole_deform_conv2d(x, weight, off, bias, stride, padding, g)
    assert len(counts) == 2 and min(counts) >= 4  # forward tiles, backward blocks
    _same_bytes(got, want)


def _traced_conv_memory(op, c, size, k, with_offsets):
    """Live numpy bytes a taped op adds: at the peak of its forward, kept
    after it, at the peak of its backward, and left once the backward is
    done while the tape is still referenced. Also returns the size of one
    (C*k*k, H*W) matrix."""
    rng = np.random.default_rng(70)
    x = Tensor(rng.uniform(-1, 1, (c, size, size)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (c, c, k, k)), requires_grad=True)
    extra = [Tensor(rng.uniform(-2, 2, (2 * k * k, size, size)), requires_grad=True)
             ] if with_offsets else []
    g = rng.uniform(-1, 1, (c, size, size))
    bias = zero_bias(w)
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = op(x, w, *extra, bias)
            kept, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tape.backward(out, seed=g)
            current, peak = tracemalloc.get_traced_memory()
        return (fwd_peak - before, kept - before, peak - before, current - before,
                c * k * k * size * size * 8)
    finally:
        tracemalloc.stop()


# An eighth of the 96-channel 48x48 5x5 matrix: both convolutions run in 12
# row tiles of 4 rows and 12 channel blocks of 8 channels.
_EIGHTH = 96 * 25 * 48 * 48


def test_conv2d_never_holds_a_whole_patch_matrix(monkeypatch):
    monkeypatch.setattr(eng, "_PIECE_BYTES", _EIGHTH, raising=False)
    fwd_peak, kept, peak, left, matrix = _traced_conv_memory(conv2d, 96, 48, 5, False)
    assert fwd_peak < matrix / 2  # one row tile of patches at a time
    assert kept < matrix / 2
    assert peak < matrix * 3 / 4  # one channel block of patches or their gradient
    assert left < matrix / 2


@pytest.mark.parametrize("k", [1, 5])
def test_conv2d_keeps_only_its_output_beyond_its_inputs(k):
    # the input it saves is already held; the backward pads it again
    c, size = 16, 32
    _, kept, _, _, _ = _traced_conv_memory(conv2d, c, size, k, False)
    assert kept < c * size * size * 8 + 4096  # a padded copy would add at least as much again


def test_deform_conv2d_never_holds_samples_and_their_gradient_together(monkeypatch):
    monkeypatch.setattr(eng, "_PIECE_BYTES", _EIGHTH, raising=False)
    fwd_peak, kept, peak, left, matrix = _traced_conv_memory(deform_conv2d, 96, 48, 5, True)
    assert fwd_peak < matrix / 2  # one row tile of samples at a time
    assert kept < matrix / 4  # the plan, not the samples: the backward samples again
    assert peak < matrix * 3 / 4  # one channel block of samples and their gradient
    assert left < matrix / 2  # released by the tape, which is still alive


def test_tape_backward_runs_once_and_releases_each_closure():
    x = Tensor(rand((2, 6, 6), 71), requires_grad=True)
    w = Tensor(rand((2, 2, 3, 3), 72), requires_grad=True)
    off = Tensor(rand((18, 6, 6), 73), requires_grad=True)
    unused = Tensor(rand((2,), 74), requires_grad=True)
    with Tape() as tape:
        feat = relu(conv2d(x, w, zero_bias(w)))
        loss = tsum(deform_conv2d(feat, w, off, zero_bias(w)))
        mul(unused, unused)  # recorded, but off the loss's path
        tape.backward(loss)
    assert len(tape.records) == 5
    assert all(rec.backward is None for rec in tape.records)
    grads = [t.grad.copy() for t in (x, w, off)]
    with pytest.raises(RuntimeError, match="once"):
        tape.backward(loss)
    for t, want in zip((x, w, off), grads):
        assert np.array_equal(t.grad, want)  # the refused call added nothing


def _probe_before(rec, check) -> None:
    """Make a record's backward call `check(g)` before it runs."""
    backward = rec.backward

    def run(g):
        check(g)
        return backward(g)

    rec.backward = run


def test_tape_backward_frees_an_intermediate_once_walked_past():
    # neg(relu(x)) feeds mul: once the walk has passed mul and neg, nothing
    # holds neg's output, so it is gone before relu, which made neg's input
    x = Tensor(rand((4, 5), 81), requires_grad=True)
    with Tape() as tape:
        b = neg(relu(x))
        loss = tsum(mul(b, x))
    b_data = weakref.ref(b.data)
    del b
    alive = []
    _probe_before(tape.records[0], lambda g: alive.append(b_data() is not None))
    tape.backward(loss)
    assert alive == [False]
    np.testing.assert_allclose(x.grad, -2.0 * np.maximum(x.data, 0.0), rtol=1e-15)


def test_tape_backward_sums_a_fan_out_before_freeing_it():
    # relu's output feeds three records; relu gets the sum of their three
    # gradients, and the output is gone before neg, which made relu's input
    x = Tensor(rand((4, 5), 82), requires_grad=True)
    with Tape() as tape:
        a = relu(neg(x))
        loss = tsum(add(add(exp(a), mul(a, x)), smooth_l1(a)))
    want = np.exp(a.data) + x.data + np.where(np.abs(a.data) < 1.0, a.data, 1.0)
    a_data = weakref.ref(a.data)
    del a
    arrived, alive = [], []
    _probe_before(tape.records[1], lambda g: arrived.append(g.copy()))
    _probe_before(tape.records[0], lambda g: alive.append(a_data() is not None))
    tape.backward(loss)
    assert len(arrived) == 1
    np.testing.assert_allclose(arrived[0], want, rtol=1e-14)
    assert alive == [False]


def test_one_tape_records_at_a_time():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    with Tape() as outer:
        y = mul(x, x)
        with pytest.raises(RuntimeError, match="already recording"):
            with Tape():
                pass
        assert eng.active_tape() is outer
        loss = tsum(y)
        outer.backward(loss)
    assert eng.active_tape() is None
    assert len(outer.records) == 2
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_tape_backward_holds_each_leaf_gradient_once():
    # the walk leaves a raw gradient per leaf in its map; each must be dropped
    # as it is pushed into .grad, not kept beside every .grad until the end
    n = 1 << 18
    a = Tensor(np.ones(n), requires_grad=True)
    b = Tensor(np.ones(n), requires_grad=True)
    with Tape() as tape:
        loss = add(tsum(a), tsum(b))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak < 3.5 * n * 8  # both raw gradients and one .grad, never all four
    assert np.array_equal(a.grad, np.ones(n)) and np.array_equal(b.grad, np.ones(n))


def test_grad_bilinear_sample():
    x = Tensor(rand((3, 4, 4), 35), requires_grad=True)
    _gc(lambda x: tsum(mul(bilinear_sample(x, 1.3, 2.6), bilinear_sample(x, 1.3, 2.6))), [x])


def test_grad_matches_independent_numeric_oracle():
    # cross-check gradient_check itself against the standalone oracle once
    x0 = rand((2, 3, 3), 36)
    w0 = rand((2, 2, 3, 3), 37)
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        out = tsum(conv2d(x, Tensor(w0), zero_bias(w0)))
        tape.backward(out)
    want = numeric_gradient(lambda a: float(conv2d(Tensor(a), Tensor(w0), zero_bias(w0)).data.sum()),
                            x0.copy())
    np.testing.assert_allclose(x.grad, want, atol=1e-6)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    c=st.integers(1, 3), h=st.integers(3, 6), w=st.integers(3, 6),
    co=st.integers(1, 3), k=st.sampled_from([1, 3]), seed=st.integers(0, 10_000),
)
def test_grad_conv2d_randomized_shapes(c, h, w, co, k, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, (c, h, w)), requires_grad=True)
    wt = Tensor(rng.uniform(-1, 1, (co, c, k, k)), requires_grad=True)
    err = gradient_check(lambda x, wt: tsum(conv2d(x, wt, zero_bias(wt))), [x, wt])
    assert err < 1e-5


def test_gradient_check_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        gradient_check(lambda x: mul(x, x), [x])


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    params = {
        "backbone.s0.sub0.weight": rng.standard_normal((16, 4, 3, 3, 3)),
        "head.cls.bias": rng.standard_normal(2),
        "scalar_thing": np.array(math.pi),
        "empty_edge": np.zeros((0, 3)),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for k in params:
        assert back[k].shape == np.asarray(params[k]).shape
        assert back[k].tobytes() == np.asarray(params[k], dtype=np.float64).tobytes()


def test_checkpoint_accepts_tensors_and_is_deterministic(tmp_path):
    params = {"a.weight": Tensor(np.arange(6.0).reshape(2, 3)), "b.bias": Tensor(np.ones(2))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params)
    save_checkpoint(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # sorted names, insertion order irrelevant


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(p)
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"x": np.ones(3)})
    p.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_every_truncation_is_a_value_error(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"a.weight": np.ones((2, 3)), "b": np.array(2.0)})
    raw = good.read_bytes()
    p = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        p.write_bytes(raw[:n])
        with pytest.raises(ValueError, match="truncated" if n >= 4 else "not a checkpoint"):
            load_checkpoint(p)


def _checkpoint_bytes(*arrays: tuple[str | bytes, tuple[int, ...], int]) -> bytes:
    """A version-1 checkpoint, written field by field: each array's name (a
    str is encoded as UTF-8, bytes go as they are) and shape, then as many
    zero values as given, whatever the shape says."""
    out = b"VDCK" + struct.pack("<II", 1, len(arrays))
    for name, shape, n_values in arrays:
        name = name.encode() if isinstance(name, str) else name
        out += struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
        out += struct.pack(f"<{len(shape)}q", *shape) + bytes(8 * n_values)
    return out


@pytest.mark.parametrize("arrays,message", [
    ((("w", (2, -1), 0), ("b", (2,), 2)), r"array 'w' has a negative dimension \(2, -1\)"),
    ((("a", (2,), 2), ("a", (3,), 3)), "array 'a' appears twice"),
    ((("a", (2 ** 32, 2 ** 32), 0),), "truncated checkpoint"),  # 2**64 wraps int64 to 0
    ((("a", (1,), 1), (b"\xff", (1,), 1)), "array 1 has a name that is not UTF-8"),
], ids=["negative_dimension", "repeated_name", "int64_overflowing_shape", "name_not_utf8"])
def test_checkpoint_rejects_a_malformed_array_naming_it(tmp_path, arrays, message):
    p = tmp_path / "hand.ckpt"
    p.write_bytes(_checkpoint_bytes(*arrays))
    with pytest.raises(ValueError, match=f"^{p}: {message}$"):
        load_checkpoint(p)


def test_checkpoint_write_failing_midway_keeps_previous(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.ones(3)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        # sorted names: "a" is written before "b" fails to convert
        save_checkpoint(path, {"a": np.zeros(3), "b": "not a number"})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
