"""Point cloud to sparse voxel tensor conversion.

Each occupied voxel keeps at most a fixed number of points (the first ones
in cloud order, for determinism) and its feature is the plain mean of the
kept x, y, z coordinates: three channels, no learned per-point encoder.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .engine import Tensor
from .geometry import PointCloud


def require_int(name: str, value, minimum: int) -> None:
    """Reject a config value that is not an integer (bools included) or is below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_float(name: str, value) -> None:
    """Reject a config value that is not a finite number (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class GridConfig:
    """Axis-aligned voxel grid; ranges are half-open [min, max) per axis."""

    range_min: tuple[float, float, float]
    range_max: tuple[float, float, float]
    voxel_size: tuple[float, float, float]
    max_points_per_voxel: int = 5

    def __post_init__(self) -> None:
        object.__setattr__(self, "range_min", tuple(float(v) for v in self.range_min))
        object.__setattr__(self, "range_max", tuple(float(v) for v in self.range_max))
        object.__setattr__(self, "voxel_size", tuple(float(v) for v in self.voxel_size))
        require_int("max_points_per_voxel", self.max_points_per_voxel, 1)
        for lo, hi, vs in zip(self.range_min, self.range_max, self.voxel_size):
            if vs <= 0:
                raise ValueError("voxel_size must be positive")
            cells = (hi - lo) / vs
            if abs(cells - round(cells)) > 1e-6 or round(cells) < 1:
                raise ValueError(f"range extent {hi - lo} not an integral number of voxels of {vs}")

    @property
    def spatial_shape(self) -> tuple[int, int, int]:
        """Cell counts (nx, ny, nz)."""
        return tuple(
            int(round((hi - lo) / vs))
            for lo, hi, vs in zip(self.range_min, self.range_max, self.voxel_size)
        )


def voxel_keys(coords: np.ndarray, shape) -> np.ndarray:
    """Row-major linear key of each (ix, iy, iz) row: sorting keys sorts sites
    lexicographically."""
    _, ny, nz = shape
    return (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]


def voxel_coords(keys: np.ndarray, shape) -> np.ndarray:
    """Inverse of voxel_keys: the (K, 3) (ix, iy, iz) rows of the keys."""
    _, ny, nz = shape
    return np.column_stack([keys // (ny * nz), (keys // nz) % ny, keys % nz])


@dataclass
class SparseVoxelTensor:
    """Active voxel sites plus their feature rows.

    coords is (N, 3) integer (ix, iy, iz); features is a Tensor of shape
    (N, C) so gradients can flow through sparse convolutions.
    """

    coords: np.ndarray
    features: Tensor
    spatial_shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        self.coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.int64).reshape(-1, 3))
        if not isinstance(self.features, Tensor):
            self.features = Tensor(self.features)
        if self.features.data.ndim != 2 or self.features.data.shape[0] != len(self.coords):
            raise ValueError(
                f"features shape {self.features.data.shape} does not match {len(self.coords)} coords"
            )
        shape = np.asarray(self.spatial_shape, dtype=np.int64)
        if len(self.coords):
            if (self.coords < 0).any() or (self.coords >= shape).any():
                raise ValueError("voxel coords outside spatial_shape")
            keys = voxel_keys(self.coords, self.spatial_shape)
            if len(np.unique(keys)) != len(keys):
                raise ValueError("duplicate voxel coords")

    @property
    def num_voxels(self) -> int:
        return len(self.coords)

    @property
    def num_channels(self) -> int:
        return self.features.data.shape[1]


def voxelize(cloud: PointCloud, grid: GridConfig) -> SparseVoxelTensor:
    """Bin points into voxels; feature = mean xyz of the first few points per voxel.

    Points outside the half-open range are dropped. Output voxels are sorted
    lexicographically by (ix, iy, iz) so the result is deterministic.
    """
    lo = np.asarray(grid.range_min)
    vs = np.asarray(grid.voxel_size)
    idx = np.floor((cloud.xyz - lo) / vs).astype(np.int64)
    keep = ((idx >= 0) & (idx < np.asarray(grid.spatial_shape))).all(axis=1)
    idx = idx[keep]
    xyz = cloud.xyz[keep]

    keys = voxel_keys(idx, grid.spatial_shape)
    order = np.argsort(keys, kind="stable")  # stable keeps cloud order inside each voxel
    keys_sorted = keys[order]
    xyz_sorted = xyz[order]
    uniq_keys, starts, counts = np.unique(keys_sorted, return_index=True, return_counts=True)
    group = np.repeat(np.arange(len(uniq_keys)), counts)
    rank = np.arange(len(keys_sorted)) - starts[group]
    kept = rank < grid.max_points_per_voxel

    feats = np.zeros((len(uniq_keys), 3))
    np.add.at(feats, group[kept], xyz_sorted[kept])
    feats /= np.minimum(counts, grid.max_points_per_voxel)[:, None]

    return SparseVoxelTensor(voxel_coords(uniq_keys, grid.spatial_shape), Tensor(feats),
                             grid.spatial_shape)


def default_grid() -> GridConfig:
    """Full-scale grid: 1408 x 1600 x 40 cells over the forward fan."""
    return GridConfig(range_min=(0.0, -40.0, -3.0), range_max=(70.4, 40.0, 1.0),
                      voxel_size=(0.05, 0.05, 0.1))


def mini_grid() -> GridConfig:
    """Desk-scale grid for tests: 64 x 64 x 8 cells."""
    return GridConfig(range_min=(0.0, -16.0, -2.0), range_max=(32.0, 16.0, 2.0),
                      voxel_size=(0.5, 0.5, 0.5))
