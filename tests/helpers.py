"""Test-side helpers the package does not need: a desk-scale run config, a
reader for the binary pixmaps `voxdet.render.write_ppm` writes, and box pairs
that only touch."""

from __future__ import annotations

import math
import os

import numpy as np

from voxdet.config import RunConfig
from voxdet.engine import Tensor
from voxdet.trainer import TrainConfig
from voxdet.voxelizer import mini_grid


def mini_run_config() -> RunConfig:
    """Desk-scale variant: 64x64x8 grid, short training schedule."""
    return RunConfig(grid=mini_grid(), train=TrainConfig(batch_size=2, epochs=10))


def zero_bias(weight) -> Tensor:
    """A zero bias for a (C_out, ...) convolution weight, array or Tensor."""
    return Tensor(np.zeros(np.shape(getattr(weight, "data", weight))[0]))


def read_ppm(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P6":
            raise ValueError(f"not a binary ppm: {magic!r}")
        dims = fh.readline().split()
        maxval = fh.readline().strip()
        if len(dims) != 2 or maxval != b"255":
            raise ValueError("unsupported ppm header")
        w, h = int(dims[0]), int(dims[1])
        data = fh.read(w * h * 3)
    if len(data) != w * h * 3:
        raise ValueError("truncated ppm payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).copy()


# yaws of the hand-built boxes that only share an edge or a corner
TOUCHING_YAWS = (0.3, 0.7, 1.2)


def moved(row: np.ndarray, along: float, across: float, scale: float = 1.0) -> np.ndarray:
    """A copy of a (7,) box row with its centre moved by (along, across) in the
    row's own frame and its length and width scaled."""
    c, s = math.cos(row[6]), math.sin(row[6])
    out = row.copy()
    out[0] += along * c - across * s
    out[1] += along * s + across * c
    out[3:5] *= scale
    return out


def touching_pairs() -> list[tuple[np.ndarray, np.ndarray]]:
    """(a, b) rows of boxes that only touch: a 3.9 x 1.6 box and its neighbour
    across its long or its short edge, and copies scaled by 0.5, 1 and 2 whose
    corner meets one of its corners."""
    pairs = []
    for cx, cy in ((0.0, 0.0), (12.5, -3.25), (40.0, 7.1)):
        for yaw in TOUCHING_YAWS:
            a = np.array([cx, cy, -1.0, 3.9, 1.6, 1.56, yaw])
            pairs += [(a, moved(a, 0.0, 1.6)), (a, moved(a, 3.9, 0.0))]
            for k in (0.5, 1.0, 2.0):
                for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    pairs.append((a, moved(a, sx * 3.9 * (1 + k) / 2, sy * 1.6 * (1 + k) / 2, k)))
    return pairs
