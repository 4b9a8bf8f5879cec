import numpy as np
import pytest

from voxdet.geometry import PointCloud
from voxdet.voxelizer import GridConfig, mini_grid, voxelize


def small_grid():
    return GridConfig(range_min=(0.0, 0.0, 0.0), range_max=(4.0, 4.0, 2.0),
                      voxel_size=(1.0, 1.0, 1.0))


def test_grid_config_validation():
    with pytest.raises(ValueError, match="integral"):
        GridConfig((0, 0, 0), (4.3, 4, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="positive"):
        GridConfig((0, 0, 0), (4, 4, 2), (1, 0.0, 1))
    assert mini_grid().spatial_shape == (64, 64, 8)


@pytest.mark.parametrize("field,value", [
    ("range_min", (0, 0, 0, 7)), ("range_max", (4, 4)), ("voxel_size", (1, None, 1)),
])
def test_grid_axis_fields_need_three_numbers(field, value):
    axes = dict(range_min=(0, 0, 0), range_max=(4, 4, 2), voxel_size=(1, 1, 1))
    with pytest.raises(ValueError, match=field):
        GridConfig(**dict(axes, **{field: value}))


def test_single_point():
    cloud = PointCloud.from_xyz(np.array([[1.5, 2.5, 0.5]]))
    coords, feats = voxelize(cloud, small_grid())
    assert coords.dtype == np.int64
    assert coords.tolist() == [[1, 2, 0]]
    assert feats.shape == (1, 3)
    np.testing.assert_allclose(feats[0], [1.5, 2.5, 0.5])


def test_seven_points_takes_first_five():
    pts = np.column_stack([
        np.linspace(1.1, 1.9, 7), np.full(7, 0.5), np.full(7, 0.5),
    ])
    coords, feats = voxelize(PointCloud.from_xyz(pts), small_grid())
    assert len(coords) == 1
    np.testing.assert_allclose(feats[0], pts[:5].mean(axis=0), atol=1e-12)


def test_matches_dictionary_oracle():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 5.0, size=(200, 3))  # some points fall outside on purpose
    grid = small_grid()
    coords, feats = voxelize(PointCloud.from_xyz(pts), grid)

    buckets: dict[tuple, list] = {}
    for p in pts:
        idx = tuple(int(np.floor(v)) for v in p)
        if not all(0 <= idx[a] < grid.spatial_shape[a] for a in range(3)):
            continue
        buckets.setdefault(idx, []).append(p)
    want = {k: np.mean(v[:5], axis=0) for k, v in buckets.items()}
    assert len(coords) == len(feats) == len(want)
    for coord, feat in zip(coords, feats):
        np.testing.assert_allclose(feat, want[tuple(coord)], atol=1e-12)
    # lexicographic coord order, so the sites are also unique
    keys = [tuple(c) for c in coords]
    assert keys == sorted(keys)


def test_translation_by_one_pitch():
    rng = np.random.default_rng(1)
    pts = rng.uniform(1.0, 2.9, size=(50, 3)) * [1, 1, 0.3]  # strictly interior
    grid = small_grid()
    a = voxelize(PointCloud.from_xyz(pts), grid)
    b = voxelize(PointCloud.from_xyz(pts + np.array(grid.voxel_size)), grid)
    np.testing.assert_array_equal(b[0], a[0] + 1)
    np.testing.assert_allclose(b[1], a[1] + grid.voxel_size, atol=1e-12)


def test_permutation_stable_when_under_cap():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 4.0, size=(30, 3)) * [1, 1, 0.5]
    perm = rng.permutation(30)
    a = voxelize(PointCloud.from_xyz(pts), small_grid())
    b = voxelize(PointCloud.from_xyz(pts[perm]), small_grid())
    if all(c <= 5 for c in _voxel_counts(pts)):
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)


def _voxel_counts(pts):
    from collections import Counter

    return Counter(tuple(int(np.floor(v)) for v in p) for p in pts).values()


def test_range_boundaries_half_open():
    grid = small_grid()
    cloud = PointCloud.from_xyz(np.array([
        [0.0, 0.0, 0.0],   # at min corner: kept
        [4.0, 1.0, 1.0],   # at max x: dropped
        [1.0, 4.0, 1.0],   # at max y: dropped
        [-0.001, 1.0, 1.0],  # below min: dropped
    ]))
    coords, _ = voxelize(cloud, grid)
    assert coords.tolist() == [[0, 0, 0]]


def test_empty_cloud_and_all_out_of_range():
    grid = small_grid()
    far = PointCloud.from_xyz(np.array([[100.0, 100.0, 100.0]]))
    for cloud in (PointCloud(np.zeros((0, 4))), far):
        coords, feats = voxelize(cloud, grid)
        assert coords.shape == feats.shape == (0, 3)
