import numpy as np
import pytest

from voxdet.geometry import Box3D, PointCloud
from voxdet.render import (
    GT_COLOR,
    PRED_COLOR,
    blank_canvas,
    draw_box,
    draw_points,
    heat_overlay,
    render_scene,
    world_to_pixel,
    write_ppm,
)
from voxdet.voxelizer import mini_grid
from helpers import read_ppm


def test_world_to_pixel_corners():
    grid = mini_grid()  # x [0,32), y [-16,16), 0.5 m cells
    row, col = world_to_pixel(0.0, 16.0 - 1e-9, grid, ppm_scale=1)
    assert (row, col) == (0, 0)
    row, col = world_to_pixel(31.99, -15.99, grid, ppm_scale=1)
    assert (row, col) == (63, 63)
    row, col = world_to_pixel(16.0, 0.0, grid, ppm_scale=4)
    assert (row, col) == (128, 128)


def test_canvas_size_scales():
    grid = mini_grid()
    assert blank_canvas(grid, 1).shape == (64, 64, 3)
    assert blank_canvas(grid, 4).shape == (256, 256, 3)


def test_points_land_where_computed():
    grid = mini_grid()
    img = blank_canvas(grid, 4)
    cloud = PointCloud(np.array([[8.0, 4.0, -1.0, 0.0]]))
    draw_points(img, cloud, grid, 4)
    row, col = world_to_pixel(8.0, 4.0, grid, 4)
    assert tuple(img[row, col]) == (150, 150, 150)
    # out-of-range points are clipped, not wrapped
    img2 = blank_canvas(grid, 4)
    draw_points(img2, PointCloud(np.array([[99.0, 99.0, 0.0, 0.0]])), grid, 4)
    np.testing.assert_array_equal(img2, blank_canvas(grid, 4))


def test_box_edges_are_gap_free():
    grid = mini_grid()
    img = blank_canvas(grid, 4)
    box = Box3D(16.0, 0.0, -1.0, 6.0, 3.0, 1.5, 0.7)
    draw_box(img, box, grid, 4, GT_COLOR)
    green = (img == np.array(GT_COLOR, dtype=np.uint8)).all(axis=2)
    # 4-connectivity: edges form one closed ring with no isolated pixels
    assert green.sum() > 40
    rows, cols = np.nonzero(green)
    for r, c in zip(rows, cols):
        neigh = green[max(0, r - 1):r + 2, max(0, c - 1):c + 2]
        assert neigh.sum() >= 2  # every edge pixel touches another


def test_heat_overlay_only_brightens_weighted_cells():
    grid = mini_grid()
    img = blank_canvas(grid, 4)
    before = img.copy()
    weights = np.zeros((8, 8))
    weights[0, 0] = 1.0  # lowest-y, lowest-x corner of the world
    heat_overlay(img, weights)
    h = img.shape[0]
    changed = (img != before).any(axis=2)
    block = changed[h - 32:, :32]
    assert block.all()
    changed[h - 32:, :32] = False
    assert not changed.any()
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        heat_overlay(img, weights + 2.0)
    with pytest.raises(ValueError, match="multiple"):
        heat_overlay(img, np.zeros((7, 7)))


def test_render_scene_layers_gt_over_heat():
    grid = mini_grid()
    cloud = PointCloud(np.array([[8.0, 4.0, -1.0, 0.0]]))
    gt = [Box3D(10.0, 0.0, -1.0, 4.0, 2.0, 1.5, 0.0)]
    pred = [Box3D(20.0, 5.0, -1.0, 4.0, 2.0, 1.5, 0.3)]
    img = render_scene(cloud, gt, pred, grid, 4, weights=np.ones((8, 8)) * 0.5)
    flat = img.reshape(-1, 3)
    assert (flat == GT_COLOR).all(axis=1).any()
    assert (flat == PRED_COLOR).all(axis=1).any()


def test_ppm_roundtrip_and_determinism(tmp_path):
    grid = mini_grid()
    img = render_scene(PointCloud(np.zeros((0, 4))), [], [], grid, 2)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, img)
    write_ppm(p2, img)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"P6\n128 128\n255\n")
    np.testing.assert_array_equal(read_ppm(p1), img)


def test_ppm_reader_rejects_junk(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
    with pytest.raises(ValueError, match="not a binary ppm"):
        read_ppm(bad)
    trunc = tmp_path / "trunc.ppm"
    trunc.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 5)
    with pytest.raises(ValueError, match="truncated"):
        read_ppm(trunc)
    with pytest.raises(ValueError, match="uint8"):
        write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3)))


class _UnwritableImage(np.ndarray):
    """Passes write_ppm's checks, then fails once the header is written."""

    def tobytes(self, order="C"):
        raise OSError("disk full")


def test_ppm_write_failing_midway_keeps_previous(tmp_path):
    path = tmp_path / "bev.ppm"
    img = render_scene(PointCloud(np.zeros((0, 4))), [], [], mini_grid(), 1)
    write_ppm(path, img)
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        write_ppm(path, np.zeros((2, 2, 3), np.uint8).view(_UnwritableImage))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bev.ppm"]
