"""Bird's-eye-view scene renderer emitting binary portable pixmaps.

Ground truth is drawn green, predictions red, raw points grey; an
optional per-pixel weight map blends in as an orange heat layer. PPM
was picked because the writer is ten lines and byte-stable, which keeps
rerun-determinism checks trivial.
"""
from __future__ import annotations

import os

import numpy as np

from .engine import atomic_write
from .geometry import Box3D, PointCloud, box_corners_bev
from .voxelizer import GridConfig

BACKGROUND = (20, 20, 24)
POINT_COLOR = (150, 150, 150)
GT_COLOR = (0, 200, 80)
PRED_COLOR = (230, 50, 50)
HEAT_COLOR = (255, 140, 0)
HEAT_ALPHA = 0.6  # the heat layer's opacity at weight 1


def world_to_pixel(x, y, grid: GridConfig, ppm_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Map world coords to (row, col); row 0 is the max-y edge."""
    res_x = grid.voxel_size[0] / ppm_scale
    res_y = grid.voxel_size[1] / ppm_scale
    col = np.floor((np.asarray(x) - grid.range_min[0]) / res_x).astype(int)
    row = np.floor((grid.range_max[1] - np.asarray(y)) / res_y).astype(int)
    return row, col


def blank_canvas(grid: GridConfig, ppm_scale: int) -> np.ndarray:
    nx, ny, _ = grid.spatial_shape
    img = np.empty((ny * ppm_scale, nx * ppm_scale, 3), dtype=np.uint8)
    img[:] = BACKGROUND
    return img


def _paint(img: np.ndarray, rows, cols, color) -> None:
    h, w = img.shape[:2]
    ok = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    img[rows[ok], cols[ok]] = color


def draw_points(img: np.ndarray, cloud: PointCloud, grid: GridConfig,
                ppm_scale: int) -> None:
    if len(cloud) == 0:
        return
    rows, cols = world_to_pixel(cloud.data[:, 0], cloud.data[:, 1], grid, ppm_scale)
    _paint(img, rows, cols, POINT_COLOR)


def draw_box(img: np.ndarray, box: Box3D, grid: GridConfig,
             ppm_scale: int, color) -> None:
    corners = box_corners_bev(box)
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        # sample the edge densely enough that no pixel gap can open
        n = max(2, int(np.hypot(*(b - a)) * ppm_scale / min(grid.voxel_size[:2]) * 2))
        t = np.linspace(0.0, 1.0, n)
        xs = a[0] + t * (b[0] - a[0])
        ys = a[1] + t * (b[1] - a[1])
        rows, cols = world_to_pixel(xs, ys, grid, ppm_scale)
        _paint(img, rows, cols, color)


def heat_overlay(img: np.ndarray, weights: np.ndarray) -> None:
    """Blend a [0,1] map over the whole canvas, nearest-neighbour upsampled."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError("weights must be 2-d")
    if weights.min() < 0.0 or weights.max() > 1.0:
        raise ValueError("weights must lie in [0, 1]")
    h, w = img.shape[:2]
    if h % weights.shape[0] or w % weights.shape[1]:
        raise ValueError("canvas size must be a multiple of the weight map size")
    reps = (h // weights.shape[0], w // weights.shape[1])
    # weight map rows follow world y ascending; image rows run y descending
    up = np.kron(weights[::-1, :], np.ones(reps))[:, :, None]
    mix = HEAT_ALPHA * up
    img[:] = np.clip((1.0 - mix) * img + mix * np.array(HEAT_COLOR), 0, 255).astype(np.uint8)


def render_scene(cloud: PointCloud, gt_boxes: list[Box3D], pred_boxes: list[Box3D],
                 grid: GridConfig, ppm_scale: int,
                 weights: np.ndarray | None = None) -> np.ndarray:
    img = blank_canvas(grid, ppm_scale)
    draw_points(img, cloud, grid, ppm_scale)
    if weights is not None:
        heat_overlay(img, weights)
    for box in gt_boxes:
        draw_box(img, box, grid, ppm_scale, GT_COLOR)
    for box in pred_boxes:
        draw_box(img, box, grid, ppm_scale, PRED_COLOR)
    return img


def write_ppm(path: str | os.PathLike, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("image must be (H, W, 3) uint8")
    h, w = img.shape[:2]
    with atomic_write(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
