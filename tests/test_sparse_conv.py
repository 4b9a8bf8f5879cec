import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxdet.engine import Tape, Tensor, mul, tsum
from voxdet.sparse_conv import (
    STRIDED,
    SUBMANIFOLD,
    build_rulebook,
    sparse_conv_forward,
    to_dense,
)
from voxdet.verify import gradient_check
from helpers import zero_bias
from oracles import brute_rulebook, dense_conv3d, per_tap_sparse_conv


def densify(coords, feats, shape):
    """(C, nx, ny, nz) volume indexed like the coords, for the dense oracle."""
    vol = np.zeros((feats.shape[1],) + tuple(shape))
    for coord, f in zip(coords, feats):
        vol[:, coord[0], coord[1], coord[2]] = f
    return vol


def tap_pairs(rb):
    """The rulebook's pair list cut into one (input rows, output rows) pair per tap."""
    bounds = rb.starts[1:-1]
    return list(zip(np.split(rb.in_rows, bounds), np.split(rb.out_rows, bounds)))


def random_pattern(rng, n, shape):
    total = shape[0] * shape[1] * shape[2]
    flat = rng.choice(total, size=min(n, total), replace=False)
    nx, ny, nz = shape
    coords = np.column_stack([flat // (ny * nz), (flat // nz) % ny, flat % nz])
    keys = (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]
    return coords[np.argsort(keys)]


# ---------------------------------------------------------------------------
# rulebook construction


def test_single_voxel_submanifold():
    rb = build_rulebook(np.array([[2, 2, 1]]), (5, 5, 3), 3)
    assert len(rb.out_coords) == 1
    assert rb.num_pairs == 1  # only the center tap lands on an active site
    center = 13  # tap (1,1,1) in 3x3x3 nested order
    assert rb.starts[center + 1] - rb.starts[center] == 1
    np.testing.assert_array_equal(rb.starts, [0] * 14 + [1] * 14)
    assert rb.in_rows.tolist() == rb.out_rows.tolist() == [0]


def test_two_adjacent_voxels_submanifold():
    rb = build_rulebook(np.array([[1, 1, 1], [2, 1, 1]]), (5, 5, 3), 3)
    assert len(rb.out_coords) == 2
    assert rb.num_pairs == 4  # two center taps plus one cross pair each way


def test_submanifold_output_coords_equal_input():
    rng = np.random.default_rng(0)
    coords = random_pattern(rng, 30, (8, 8, 4))
    rb = build_rulebook(coords, (8, 8, 4), 3)
    np.testing.assert_array_equal(rb.out_coords, coords)
    assert rb.num_pairs <= len(coords) * 27


def test_rulebook_errors():
    coords = np.array([[0, 0, 0]])
    with pytest.raises(ValueError, match="odd"):
        build_rulebook(coords, (4, 4, 4), 2, mode=SUBMANIFOLD)
    with pytest.raises(ValueError, match="stride"):
        build_rulebook(coords, (4, 4, 4), 3, stride=0, mode=STRIDED)
    with pytest.raises(ValueError, match="stride 1"):
        build_rulebook(coords, (4, 4, 4), 3, stride=2, mode=SUBMANIFOLD)
    with pytest.raises(ValueError, match="mode"):
        build_rulebook(coords, (4, 4, 4), 3, mode="banana")


def test_strided_support_matches_occupancy_oracle():
    rng = np.random.default_rng(1)
    shape = (8, 8, 4)
    coords = random_pattern(rng, 30, shape)
    rb = build_rulebook(coords, shape, 3, stride=2, mode=STRIDED)
    occ = np.zeros((1,) + shape)
    occ[0, coords[:, 0], coords[:, 1], coords[:, 2]] = 1.0
    support = dense_conv3d(occ, np.ones((1, 1, 3, 3, 3)), None, (2, 2, 2), (1, 1, 1))[0]
    want = np.argwhere(support > 0)
    got = {tuple(c) for c in rb.out_coords}
    assert got == {tuple(c) for c in want}
    assert rb.out_spatial_shape == (4, 4, 2)


# (mode, spatial shape, active sites, kernel, stride, padding)
RULEBOOK_CASES = {
    "sub_3x3x3": (SUBMANIFOLD, (5, 4, 3), 12, (3, 3, 3), (1, 1, 1), None),
    "sub_1x3x5": (SUBMANIFOLD, (6, 5, 4), 20, (1, 3, 5), (1, 1, 1), None),
    "sub_1x1x1": (SUBMANIFOLD, (4, 4, 4), 10, (1, 1, 1), (1, 1, 1), None),
    "sub_empty": (SUBMANIFOLD, (4, 4, 4), 0, (3, 3, 3), (1, 1, 1), None),
    "strided_3x3x3": (STRIDED, (6, 6, 4), 15, (3, 3, 3), (2, 2, 2), (1, 1, 1)),
    "strided_even": (STRIDED, (7, 5, 5), 20, (2, 3, 2), (2, 1, 3), (0, 1, 1)),
    "strided_z_collapse": (STRIDED, (4, 4, 5), 12, (1, 1, 3), (1, 1, 2), (0, 0, 0)),
    "strided_1x1x1": (STRIDED, (4, 4, 4), 8, (1, 1, 1), (1, 1, 1), (0, 0, 0)),
    "strided_empty": (STRIDED, (4, 4, 4), 0, (3, 3, 3), (2, 2, 2), (1, 1, 1)),
}


@pytest.mark.parametrize("case", RULEBOOK_CASES)
def test_rulebook_pairs_match_brute_force(case):
    # pins the pair set and the pair order; the weight gradient sums in that order
    mode, shape, n, kernel, stride, padding = RULEBOOK_CASES[case]
    rng = np.random.default_rng(0)
    flat = rng.choice(np.prod(shape), size=n, replace=False)  # unsorted sites
    coords = np.column_stack(np.unravel_index(flat, shape)).astype(np.int64).reshape(-1, 3)
    rb = build_rulebook(coords, shape, kernel, stride=stride, mode=mode, padding=padding)
    want, out_coords = brute_rulebook(coords, shape, kernel, stride, padding, mode == SUBMANIFOLD)
    np.testing.assert_array_equal(rb.out_coords, out_coords)
    assert rb.in_rows.dtype == rb.out_rows.dtype == np.int64
    assert len(rb.in_rows) == len(rb.out_rows) == rb.starts[-1] == rb.num_pairs
    assert len(rb.starts) == len(want) + 1 and rb.starts[0] == 0
    for (got_in, got_out), (want_in, want_out) in zip(tap_pairs(rb), want):
        assert got_in.dtype == got_out.dtype == np.int64
        np.testing.assert_array_equal(got_in, want_in)
        np.testing.assert_array_equal(got_out, want_out)


@st.composite
def rulebook_cases(draw):
    """Small grids with 1-cell axes allowed, anisotropic kernels, strides 1-2
    and paddings 0-1; sites drawn anywhere on the grid, edges included, in
    any order, possibly none."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    total = shape[0] * shape[1] * shape[2]
    flat = draw(st.lists(st.integers(0, total - 1), unique=True, max_size=min(total, 10)))
    coords = np.column_stack(np.unravel_index(np.array(flat, dtype=np.int64), shape))
    if draw(st.booleans()):
        kernel = tuple(draw(st.sampled_from([1, 3])) for _ in range(3))
        return SUBMANIFOLD, shape, coords.reshape(-1, 3), kernel, (1, 1, 1), None
    kernel, stride, padding = (), (), ()
    for n in shape:
        p = draw(st.integers(0, 1))
        kernel += (draw(st.integers(1, n + 2 * p)),)  # leaves at least one output cell
        stride += (draw(st.integers(1, 2)),)
        padding += (p,)
    return STRIDED, shape, coords.reshape(-1, 3), kernel, stride, padding


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=rulebook_cases())
def test_rulebook_equals_brute_force_in_every_field(case):
    mode, shape, coords, kernel, stride, padding = case
    rb = build_rulebook(coords, shape, kernel, stride=stride, mode=mode, padding=padding)
    taps, out_coords = brute_rulebook(coords, shape, kernel, stride, padding, mode == SUBMANIFOLD)
    want_in = np.concatenate([i for i, _ in taps])
    want_out = np.concatenate([o for _, o in taps])
    want_starts = np.concatenate([[0], np.cumsum([len(i) for i, _ in taps])])
    if mode == SUBMANIFOLD:
        want_shape = shape
    else:
        want_shape = tuple((n + 2 * p - k) // s + 1
                           for n, k, s, p in zip(shape, kernel, stride, padding))
    for got, want in ((rb.in_rows, want_in), (rb.out_rows, want_out),
                      (rb.starts, want_starts), (rb.out_coords, out_coords)):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    assert rb.out_spatial_shape == want_shape
    assert all(type(v) is int for v in rb.out_spatial_shape)
    assert rb.kernel == kernel and rb.in_count == len(coords)


# ---------------------------------------------------------------------------
# forward semantics


def test_identity_center_tap():
    rng = np.random.default_rng(2)
    shape = (6, 6, 3)
    coords = random_pattern(rng, 12, shape)
    feats = rng.uniform(-1, 1, (12, 4))
    rb = build_rulebook(coords, shape, 3)
    w = np.zeros((4, 4, 3, 3, 3))
    for c in range(4):
        w[c, c, 1, 1, 1] = 1.0
    out = sparse_conv_forward(Tensor(feats), Tensor(w), zero_bias(w), rb)
    np.testing.assert_array_equal(out.data, feats)
    np.testing.assert_array_equal(rb.out_coords, coords)


def test_zero_weight_gives_bias():
    rng = np.random.default_rng(3)
    shape = (6, 6, 3)
    coords = random_pattern(rng, 9, shape)
    feats = rng.uniform(-1, 1, (9, 2))
    rb = build_rulebook(coords, shape, 3)
    bias = np.array([0.5, -1.25])
    out = sparse_conv_forward(Tensor(feats), Tensor(np.zeros((2, 2, 3, 3, 3))), Tensor(bias), rb)
    np.testing.assert_array_equal(out.data, np.tile(bias, (9, 1)))


@pytest.mark.parametrize("kernel", [1, 3])
def test_submanifold_matches_dense_oracle(kernel):
    rng = np.random.default_rng(4)
    shape = (7, 6, 4)
    coords = random_pattern(rng, 25, shape)
    feats = rng.uniform(-1, 1, (25, 3))
    rb = build_rulebook(coords, shape, kernel)
    w = rng.uniform(-1, 1, (5, 3, kernel, kernel, kernel))
    b = rng.uniform(-1, 1, 5)
    out = sparse_conv_forward(Tensor(feats), Tensor(w), Tensor(b), rb)
    p = kernel // 2
    dense = dense_conv3d(densify(coords, feats, shape), w, b, (1, 1, 1), (p, p, p))
    for coord, f in zip(rb.out_coords, out.data):
        np.testing.assert_allclose(f, dense[:, coord[0], coord[1], coord[2]], atol=1e-12)


def test_strided_matches_dense_oracle():
    rng = np.random.default_rng(5)
    shape = (8, 8, 4)
    coords = random_pattern(rng, 30, shape)
    feats = rng.uniform(-1, 1, (30, 2))
    rb = build_rulebook(coords, shape, 3, stride=2, mode=STRIDED)
    w = rng.uniform(-1, 1, (4, 2, 3, 3, 3))
    b = rng.uniform(-1, 1, 4)
    out = sparse_conv_forward(Tensor(feats), Tensor(w), Tensor(b), rb)
    dense = dense_conv3d(densify(coords, feats, shape), w, b, (2, 2, 2), (1, 1, 1))
    for coord, f in zip(rb.out_coords, out.data):
        np.testing.assert_allclose(f, dense[:, coord[0], coord[1], coord[2]], atol=1e-12)


def test_z_collapse_configuration():
    # kernel (1,1,3), stride (1,1,2), no padding: the height-flattening layer
    rng = np.random.default_rng(6)
    shape = (4, 4, 5)
    coords = random_pattern(rng, 20, shape)
    feats = rng.uniform(-1, 1, (20, 2))
    rb = build_rulebook(coords, shape, (1, 1, 3), stride=(1, 1, 2), padding=(0, 0, 0), mode=STRIDED)
    assert rb.out_spatial_shape == (4, 4, 2)
    w = rng.uniform(-1, 1, (3, 2, 1, 1, 3))
    out = sparse_conv_forward(Tensor(feats), Tensor(w), zero_bias(w), rb)
    dense = dense_conv3d(densify(coords, feats, shape), w, None, (1, 1, 2), (0, 0, 0))
    for coord, f in zip(rb.out_coords, out.data):
        np.testing.assert_allclose(f, dense[:, coord[0], coord[1], coord[2]], atol=1e-12)


# (mode, spatial shape, active sites, kernel, stride, padding, c_in, c_out,
# random bias; else a zero one)
PER_TAP_CASES = {
    "sub_3x3x3": (SUBMANIFOLD, (6, 5, 4), 40, 3, 1, None, 5, 4, True),
    "sub_sparse_empty_taps": (SUBMANIFOLD, (9, 9, 6), 6, 3, 1, None, 3, 2, True),
    "sub_no_bias": (SUBMANIFOLD, (5, 5, 3), 30, 3, 1, None, 4, 6, False),
    "sub_wide": (SUBMANIFOLD, (10, 10, 6), 300, 3, 1, None, 128, 16, True),
    "sub_1x1x1": (SUBMANIFOLD, (4, 4, 4), 10, 1, 1, None, 3, 3, True),
    "strided_3x3x3": (STRIDED, (8, 8, 4), 50, 3, 2, 1, 4, 5, True),
    "strided_z_collapse": (STRIDED, (4, 4, 5), 30, (1, 1, 3), (1, 1, 2), 0, 6, 3, True),
    "sub_empty": (SUBMANIFOLD, (4, 4, 4), 0, 3, 1, None, 2, 3, True),
    "strided_empty": (STRIDED, (4, 4, 4), 0, 3, 2, 1, 2, 3, True),
}


@pytest.mark.parametrize("case", PER_TAP_CASES)
def test_forward_and_backward_match_per_tap_oracle_bit_for_bit(case):
    # the one gather per layer keeps every product, operand and add order of
    # the per-tap loop, so outputs and gradients keep their bytes
    mode, shape, n, kernel, stride, padding, c_in, c_out, with_bias = PER_TAP_CASES[case]
    rng = np.random.default_rng(21)
    coords = random_pattern(rng, n, shape)
    rb = build_rulebook(coords, shape, kernel, stride=stride, mode=mode, padding=padding)
    taps = tap_pairs(rb)
    if case == "sub_sparse_empty_taps":
        assert any(len(i) == 0 for i, _ in taps)
    kx, ky, kz = rb.kernel
    feat = Tensor(rng.uniform(-1, 1, (n, c_in)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (c_out, c_in, kx, ky, kz)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, c_out) if with_bias else np.zeros(c_out), requires_grad=True)
    g = rng.uniform(-1, 1, (len(rb.out_coords), c_out))
    with Tape() as tape:
        out = sparse_conv_forward(feat, w, b, rb)
        tape.backward(out, seed=g)
    want_out, want_feat, want_w, want_b = per_tap_sparse_conv(
        feat.data, w.data, b.data, taps, len(rb.out_coords), g)
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(feat.grad, want_feat)
    assert np.array_equal(w.grad, want_w)
    assert np.array_equal(b.grad, want_b)


def test_linearity_without_bias():
    rng = np.random.default_rng(7)
    shape = (6, 6, 3)
    coords = random_pattern(rng, 10, shape)
    fx = rng.uniform(-1, 1, (10, 3))
    fy = rng.uniform(-1, 1, (10, 3))
    rb = build_rulebook(coords, shape, 3)
    w = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3, 3)))
    a, b = 2.5, -1.25
    out_combo = sparse_conv_forward(Tensor(a * fx + b * fy), w, zero_bias(w), rb)
    out_x = sparse_conv_forward(Tensor(fx), w, zero_bias(w), rb)
    out_y = sparse_conv_forward(Tensor(fy), w, zero_bias(w), rb)
    np.testing.assert_allclose(out_combo.data, a * out_x.data + b * out_y.data, atol=1e-12)


def test_empty_input_flows_through():
    rb = build_rulebook(np.zeros((0, 3)), (4, 4, 4), 3, stride=2, mode=STRIDED)
    out = sparse_conv_forward(Tensor(np.zeros((0, 2))), Tensor(np.zeros((3, 2, 3, 3, 3))),
                              Tensor(np.zeros(3)), rb)
    assert out.data.shape == (0, 3)
    dense = to_dense(np.zeros((0, 3), dtype=np.int64), Tensor(np.zeros((0, 2))), (4, 4, 4))
    assert dense.data.shape == (8, 4, 4)
    assert not dense.data.any()


def test_forward_errors():
    coords = np.array([[1, 1, 1]])
    rb = build_rulebook(coords, (4, 4, 4), 3)
    with pytest.raises(ValueError, match="channel mismatch"):
        sparse_conv_forward(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4, 3, 3, 3))),
                            Tensor(np.zeros(2)), rb)
    with pytest.raises(ValueError, match="kernel"):
        sparse_conv_forward(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 3, 1, 1, 1))),
                            Tensor(np.zeros(2)), rb)
    with pytest.raises(ValueError, match="rulebook built for"):
        sparse_conv_forward(Tensor(np.zeros((5, 3))), Tensor(np.zeros((2, 3, 3, 3, 3))),
                            Tensor(np.zeros(2)), rb)


# ---------------------------------------------------------------------------
# backward


def test_single_pair_chain_rule():
    coords = np.array([[1, 1, 1]])
    rb = build_rulebook(coords, (4, 4, 4), 1)
    feat = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    w = Tensor(np.arange(6.0).reshape(3, 2, 1, 1, 1), requires_grad=True)
    with Tape() as tape:
        out = sparse_conv_forward(feat, w, zero_bias(w), rb)
        g = np.array([[1.0, -2.0, 0.5]])
        tape.backward(out, seed=g)
    np.testing.assert_allclose(feat.grad, g @ w.data.reshape(3, 2))
    np.testing.assert_allclose(w.grad.reshape(3, 2), g.T @ feat.data)


def test_zero_grad_out_gives_zero_grads():
    rng = np.random.default_rng(8)
    shape = (6, 6, 3)
    coords = random_pattern(rng, 8, shape)
    feat = Tensor(rng.uniform(-1, 1, (8, 2)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3, 3)), requires_grad=True)
    rb = build_rulebook(coords, shape, 3)
    with Tape() as tape:
        out = sparse_conv_forward(feat, w, zero_bias(w), rb)
        tape.backward(out, seed=np.zeros_like(out.data))
    assert not feat.grad.any()
    assert not w.grad.any()


@pytest.mark.parametrize("mode,stride", [(SUBMANIFOLD, 1), (STRIDED, 2)])
def test_backward_gradient_check(mode, stride):
    rng = np.random.default_rng(9)
    shape = (6, 6, 4)
    coords = random_pattern(rng, 10, shape)
    rb = build_rulebook(coords, shape, 3, stride=stride, mode=mode)
    feat = Tensor(rng.uniform(-1, 1, (10, 2)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)

    def f(feat, w, b):
        out = sparse_conv_forward(feat, w, b, rb)
        return tsum(mul(out, out))

    assert gradient_check(f, [feat, w, b]) < 1e-5


# ---------------------------------------------------------------------------
# densify


def test_to_dense_and_roundtrip():
    rng = np.random.default_rng(10)
    shape = (5, 4, 3)
    coords = random_pattern(rng, 9, shape)
    feats = rng.uniform(0.5, 1.0, (9, 2))  # nonzero so occupancy is detectable
    dense = to_dense(coords, Tensor(feats), shape)
    assert dense.data.shape == (2 * 3, 4, 5)  # (C*Z, Y, X)
    for coord, f in zip(coords, feats):
        np.testing.assert_array_equal(dense.data[[coord[2], 3 + coord[2]], coord[1], coord[0]], f)
    assert np.count_nonzero(dense.data) == 9 * 2
    # back to sites: nonzero over the (X, Y, Z) view lists them in (ix, iy, iz) order
    volume = dense.data.reshape(2, 3, 4, 5)
    back_coords = np.argwhere((volume != 0).any(axis=0).T)
    np.testing.assert_array_equal(back_coords, coords)
    back_feats = volume[:, back_coords[:, 2], back_coords[:, 1], back_coords[:, 0]].T
    np.testing.assert_array_equal(back_feats, feats)


def test_to_dense_gradient_flows():
    rng = np.random.default_rng(11)
    shape = (4, 4, 2)
    coords = random_pattern(rng, 5, shape)
    feat = Tensor(rng.uniform(0.1, 1, (5, 2)), requires_grad=True)

    def f(feat):
        d = to_dense(coords, feat, shape)
        return tsum(mul(d, d))

    assert gradient_check(f, [feat]) < 1e-6


def test_to_dense_z1_identity():
    rng = np.random.default_rng(12)
    shape = (5, 4, 1)
    coords = random_pattern(rng, 20, shape)
    feats = rng.uniform(-1, 1, (20, 3))
    out = to_dense(coords, Tensor(feats), shape)
    want = np.zeros((3, 4, 5))
    want[:, coords[:, 1], coords[:, 0]] = feats.T
    np.testing.assert_array_equal(out.data, want)


def test_to_dense_channel_order():
    coords = np.array([[0, 0, 0], [0, 0, 1]])
    feats = np.array([[0.0, 10.0], [1.0, 11.0]])  # 10 * c + z
    out = to_dense(coords, Tensor(feats), (2, 2, 2))
    assert out.data.shape == (4, 2, 2)
    np.testing.assert_array_equal(out.data[:, 0, 0], [0, 1, 10, 11])


def test_to_dense_exhaustive_bijection():
    rng = np.random.default_rng(13)
    shape = (5, 4, 2)
    coords = random_pattern(rng, 40, shape)  # every site
    feats = rng.uniform(-1, 1, (40, 3))
    out = to_dense(coords, Tensor(feats), shape).data
    for (xx, y, z), f in zip(coords, feats):
        for c in range(3):
            assert out[c * 2 + z, y, xx] == f[c]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 1000), k=st.sampled_from([1, 3]))
def test_pair_count_bound_property(n, seed, k):
    rng = np.random.default_rng(seed)
    shape = (7, 7, 4)
    coords = random_pattern(rng, n, shape)
    rb = build_rulebook(coords, shape, k)
    assert rb.num_pairs <= len(coords) * k ** 3
    # center tap always pairs every site with itself
    assert rb.num_pairs >= len(coords)
