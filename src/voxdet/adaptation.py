"""Foreground-restricted feature alignment between the two detector branches.

The live branch is trained to imitate a frozen reference branch, but only on
pixels that actually contain object points.  Pixels where the live branch
learned large sampling offsets mark regions it had to reach across to
describe; those get extra weight through a normalized reweighting map.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .engine import Tensor
from .geometry import Box3D, PointCloud, points_in_box
from .voxelizer import GridConfig

COUNT_FOREGROUND = "foreground"
COUNT_NONZERO = "nonzero"


@dataclass(frozen=True)
class ReweightingMap:
    """Per-pixel alignment emphasis in [0, 1], zero outside the foreground."""

    values: np.ndarray
    foreground: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        fg = (np.asarray(self.foreground) != 0).astype(np.float64)
        if values.ndim != 2 or values.shape != fg.shape:
            raise ValueError("values and foreground must be equal 2-d maps")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("reweighting values must lie in [0, 1]")
        if np.any((values > 0) & (fg == 0)):
            raise ValueError("reweighting support must lie inside the foreground")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "foreground", fg)


def foreground_mask(gt_boxes: Sequence[Box3D], points: PointCloud,
                    grid: GridConfig, downsample: int) -> np.ndarray:
    """Binary H x W bird's-eye map of pixels holding at least one object point.

    H spans the grid's y extent and W its x extent, each shrunk by
    `downsample`, matching the backbone output layout.
    """
    if downsample < 1:
        raise ValueError("downsample must be a positive integer")
    nx, ny, _ = grid.spatial_shape
    if nx % downsample or ny % downsample:
        raise ValueError(
            f"downsample {downsample} must divide the grid dims {nx}x{ny}")
    h, w = ny // downsample, nx // downsample
    mask = np.zeros((h, w), dtype=np.float64)
    if len(points) == 0 or not gt_boxes:
        return mask

    keep = np.zeros(len(points), dtype=bool)
    for box in gt_boxes:
        keep[points_in_box(points, box)] = True
    if not keep.any():
        return mask

    xy = points.xyz[keep, :2]
    px = np.floor((xy[:, 0] - grid.range_min[0]) / (grid.voxel_size[0] * downsample))
    py = np.floor((xy[:, 1] - grid.range_min[1]) / (grid.voxel_size[1] * downsample))
    ok = (px >= 0) & (px < w) & (py >= 0) & (py < h)
    mask[py[ok].astype(np.int64), px[ok].astype(np.int64)] = 1.0
    return mask


def offset_length_map(offsets) -> np.ndarray:
    """Mean per-pixel Euclidean length of the (dy, dx) offset pairs.

    Accepts a Tensor or array of shape (2N, H, W); the result is a plain
    array, deliberately cut off from the gradient path.
    """
    data = np.asarray(offsets.data if isinstance(offsets, Tensor) else offsets,
                      dtype=np.float64)
    if data.ndim != 3:
        raise ValueError("offsets must have shape (2N, H, W)")
    if data.shape[0] % 2:
        raise ValueError(f"offset channel count {data.shape[0]} is odd")
    if data.shape[0] == 0:
        return np.zeros(data.shape[1:], dtype=np.float64)
    dy = data[0::2]
    dx = data[1::2]
    return np.sqrt(dy * dy + dx * dx).mean(axis=0)


def reweighting_map(offset_map: np.ndarray, fg_mask: np.ndarray) -> ReweightingMap:
    """Mask the offset lengths to the foreground and normalize the max to 1.

    An all-zero masked map stays all-zero rather than dividing by zero.
    """
    offset_map = np.asarray(offset_map, dtype=np.float64)
    fg = (np.asarray(fg_mask) != 0).astype(np.float64)
    if offset_map.shape != fg.shape:
        raise ValueError("offset map and foreground mask shapes differ")
    masked = offset_map * fg
    peak = masked.max() if masked.size else 0.0
    values = masked / peak if peak > 0.0 else masked
    return ReweightingMap(values, fg)


def association_loss(f_p: Tensor, f_c, reweight: ReweightingMap,
                     count_mode: str = COUNT_FOREGROUND) -> Tensor:
    """Reweighted mean L2 distance between branch features over the foreground.

    Per foreground pixel: channel-vector L2 norm of (f_p - f_c) scaled by
    (1 + reweight), averaged over the pixel count P.  Gradient flows into
    f_p only; f_c and the reweighting map are treated as constants.
    `count_mode` picks what P counts: foreground pixels (default) or pixels
    with nonzero reweight.
    """
    target = np.asarray(f_c.data if isinstance(f_c, Tensor) else f_c,
                        dtype=np.float64)
    if f_p.data.shape != target.shape:
        raise ValueError("branch feature shapes differ")
    if f_p.data.shape[1:] != reweight.values.shape:
        raise ValueError("feature maps do not align with the reweighting map")

    if count_mode == COUNT_FOREGROUND:
        denom = int(np.count_nonzero(reweight.foreground))
    elif count_mode == COUNT_NONZERO:
        denom = int(np.count_nonzero(reweight.values))
    else:
        raise ValueError(f"unknown count_mode {count_mode!r}")
    if denom == 0:
        return Tensor(np.float64(0.0))

    diff = engine.add(f_p, engine.neg(Tensor(target)))
    norms = engine.sqrt(engine.tsum(engine.mul(diff, diff), axis=0))
    coeff = reweight.foreground * (1.0 + reweight.values) / float(denom)
    return engine.tsum(engine.mul(norms, Tensor(coeff)))
