import math

import numpy as np
import pytest

from voxdet import verify
from voxdet.adaptation import (
    COUNT_NONZERO,
    ReweightingMap,
    association_loss,
    foreground_mask,
    offset_length_map,
    reweighting_map,
)
from voxdet.engine import Tape, Tensor
from voxdet.geometry import Box3D, PointCloud, points_in_box
from voxdet.voxelizer import GridConfig


def small_grid():
    # 16 x 16 x 4 cells of 0.5 m
    return GridConfig((0, -4, -2), (8, 4, 0), (0.5, 0.5, 0.5))


def test_foreground_mask_no_objects_all_zero():
    grid = small_grid()
    pts = PointCloud(np.random.default_rng(0).uniform(0, 4, (20, 4)))
    mask = foreground_mask([], pts, grid, downsample=2)
    assert mask.shape == (8, 8)
    assert not mask.any()


def test_foreground_mask_single_point_pixel_arithmetic():
    grid = small_grid()
    box = Box3D(3.0, 1.0, -1.0, 2.0, 2.0, 1.0, 0.0)
    pts = PointCloud(np.array([[3.2, 0.6, -1.0, 0.5]]))
    mask = foreground_mask([box], pts, grid, downsample=2)
    # pixel pitch is 1.0 m; x=3.2 -> col 3, y=0.6 -> row (0.6 - -4)/1 = 4
    want = np.zeros((8, 8))
    want[4, 3] = 1.0
    np.testing.assert_array_equal(mask, want)


def test_foreground_mask_matches_brute_force_raster():
    rng = np.random.default_rng(1)
    grid = small_grid()
    boxes = [Box3D(2.5, -1.0, -1.0, 2.5, 1.5, 1.2, 0.4),
             Box3D(6.0, 2.0, -1.2, 1.8, 1.8, 1.0, -1.1)]
    pts = PointCloud(np.column_stack([
        rng.uniform(-1, 9, 300), rng.uniform(-5, 5, 300),
        rng.uniform(-2.2, 0.2, 300), rng.uniform(0, 1, 300)]))
    ds = 2
    mask = foreground_mask(boxes, pts, grid, downsample=ds)

    want = np.zeros_like(mask)
    for row in pts.data:
        single = PointCloud(row.reshape(1, 4))
        if not any(len(points_in_box(single, b)) for b in boxes):
            continue
        col = math.floor((row[0] - grid.range_min[0]) / (0.5 * ds))
        r = math.floor((row[1] - grid.range_min[1]) / (0.5 * ds))
        if 0 <= col < want.shape[1] and 0 <= r < want.shape[0]:
            want[r, col] = 1.0
    np.testing.assert_array_equal(mask, want)


def test_foreground_mask_downsample_must_divide():
    with pytest.raises(ValueError, match="divide"):
        foreground_mask([], PointCloud(np.zeros((0, 4))), small_grid(), downsample=3)


def test_offset_length_map_fixtures():
    assert not offset_length_map(np.zeros((8, 4, 5))).any()
    pairs = np.zeros((6, 3, 3))
    pairs[0::2] = 3.0
    pairs[1::2] = 4.0
    np.testing.assert_array_equal(offset_length_map(pairs), np.full((3, 3), 5.0))
    with pytest.raises(ValueError, match="odd"):
        offset_length_map(np.zeros((5, 2, 2)))


def test_offset_length_map_matches_loop_oracle():
    rng = np.random.default_rng(2)
    off = rng.normal(size=(10, 4, 6))
    got = offset_length_map(off)
    for y in range(4):
        for x in range(6):
            acc = 0.0
            for n in range(5):
                acc += math.hypot(off[2 * n, y, x], off[2 * n + 1, y, x])
            assert got[y, x] == pytest.approx(acc / 5, abs=1e-12)


def test_offset_length_map_detaches_tensors():
    t = Tensor(np.ones((2, 2, 2)), requires_grad=True)
    out = offset_length_map(t)
    assert isinstance(out, np.ndarray)


def test_reweighting_map_fixtures():
    fg = np.array([[1.0, 1.0], [0.0, 1.0]])
    rw = reweighting_map(np.zeros((2, 2)), fg)
    assert not rw.values.any()

    single = np.array([[0.0, 0.0], [0.0, 7.5]])
    rw = reweighting_map(single, fg)
    np.testing.assert_array_equal(rw.values, [[0, 0], [0, 1.0]])


def test_reweighting_map_normalization_properties():
    rng = np.random.default_rng(3)
    off = rng.uniform(0, 9, (12, 12))
    fg = (rng.uniform(size=(12, 12)) < 0.4).astype(float)
    rw = reweighting_map(off, fg)
    masked = off * fg
    assert rw.values.max() == 1.0
    assert rw.values.min() >= 0.0
    assert not rw.values[fg == 0].any()
    np.testing.assert_allclose(rw.values * masked.max(), masked, atol=1e-12)


def test_reweighting_map_validates():
    with pytest.raises(ValueError, match="shapes differ"):
        reweighting_map(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="support"):
        ReweightingMap(np.array([[0.5]]), np.array([[0.0]]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ReweightingMap(np.array([[1.5]]), np.array([[1.0]]))


def _random_case(seed, c=4, h=5, w=6):
    rng = np.random.default_rng(seed)
    f_p = Tensor(rng.normal(size=(c, h, w)), requires_grad=True)
    f_c = rng.normal(size=(c, h, w))
    fg = (rng.uniform(size=(h, w)) < 0.5).astype(float)
    off = rng.uniform(0, 3, (h, w))
    return f_p, f_c, reweighting_map(off, fg)


def loss_oracle(f_p, f_c, rw, nonzero_count=False):
    h, w = rw.values.shape
    total, count = 0.0, 0
    for y in range(h):
        for x in range(w):
            if nonzero_count:
                count += rw.values[y, x] != 0
            else:
                count += rw.foreground[y, x] != 0
            if rw.foreground[y, x]:
                d = f_p[:, y, x] - f_c[:, y, x]
                total += math.sqrt(float(d @ d)) * (1.0 + rw.values[y, x])
    return total / count if count else 0.0


def test_association_loss_identity_is_zero():
    f_p, f_c, rw = _random_case(4)
    loss = association_loss(Tensor(f_c.copy(), requires_grad=True), f_c, rw)
    assert loss.item() == 0.0


def test_association_loss_single_pixel_3_4_5():
    fg = np.array([[1.0]])
    rw = ReweightingMap(np.array([[1.0]]), fg)
    f_p = Tensor(np.array([3.0, 4.0]).reshape(2, 1, 1), requires_grad=True)
    f_c = np.zeros((2, 1, 1))
    loss = association_loss(f_p, f_c, rw)
    assert loss.item() == pytest.approx(10.0, abs=1e-10)


def test_association_loss_matches_loop_oracle():
    for seed in range(6):
        f_p, f_c, rw = _random_case(10 + seed)
        got = association_loss(f_p, f_c, rw).item()
        assert got == pytest.approx(loss_oracle(f_p.data, f_c, rw), abs=1e-10)


def test_association_loss_nonzero_count_mode():
    f_p, f_c, rw = _random_case(20)
    # zero out one foreground pixel's reweight so the two counts differ
    vals = rw.values.copy()
    fg_idx = np.argwhere(rw.foreground > 0)
    vals[tuple(fg_idx[0])] = 0.0
    rw2 = ReweightingMap(vals, rw.foreground)
    got = association_loss(f_p, f_c, rw2, count_mode=COUNT_NONZERO).item()
    assert got == pytest.approx(loss_oracle(f_p.data, f_c, rw2, nonzero_count=True),
                                abs=1e-10)
    assert got != pytest.approx(loss_oracle(f_p.data, f_c, rw2), abs=1e-10)


def test_association_loss_gradient_check():
    f_p, f_c, rw = _random_case(5, c=3, h=4, w=4)
    err = verify.gradient_check(lambda t: association_loss(t, f_c, rw), [f_p])
    assert err < 1e-5


def test_association_gradient_zero_on_background():
    f_p, f_c, rw = _random_case(6)
    with Tape() as tape:
        loss = association_loss(f_p, f_c, rw)
        tape.backward(loss)
    bg = rw.foreground == 0
    assert not f_p.grad[:, bg].any()
    assert f_p.grad[:, ~bg].any()


def test_association_loss_ignores_background_features():
    f_p, f_c, rw = _random_case(7)
    base = association_loss(f_p, f_c, rw).item()
    bumped = f_p.data.copy()
    bumped[:, rw.foreground == 0] += 17.0
    again = association_loss(Tensor(bumped, requires_grad=True), f_c, rw).item()
    assert again == base


def test_association_loss_monotone_in_reweight():
    f_p, f_c, rw = _random_case(8)
    base = association_loss(f_p, f_c, rw).item()
    for _ in range(5):
        shrunk = ReweightingMap(rw.values * np.random.default_rng(9).uniform(0, 1),
                                rw.foreground)
        assert association_loss(f_p, f_c, shrunk).item() <= base + 1e-15


def test_association_loss_empty_foreground_returns_zero():
    rw = ReweightingMap(np.zeros((3, 3)), np.zeros((3, 3)))
    f = Tensor(np.ones((2, 3, 3)), requires_grad=True)
    assert association_loss(f, np.zeros((2, 3, 3)), rw).item() == 0.0


def test_association_loss_no_gradient_into_target():
    f_p, f_c, rw = _random_case(11)
    target = Tensor(f_c, requires_grad=True)
    with Tape() as tape:
        loss = association_loss(f_p, target, rw)
        tape.backward(loss)
    assert target.grad is None
    assert f_p.grad is not None
