"""Test-side helpers the package does not need: a desk-scale run config and
a reader for the binary pixmaps `voxdet.render.write_ppm` writes."""

from __future__ import annotations

import os

import numpy as np

from voxdet.config import RunConfig
from voxdet.network import NetworkConfig
from voxdet.trainer import TrainConfig
from voxdet.voxelizer import mini_grid


def mini_run_config() -> RunConfig:
    """Desk-scale variant: 64x64x8 grid, short training schedule."""
    grid = mini_grid()
    return RunConfig(grid=grid, network=NetworkConfig(grid=grid),
                     train=TrainConfig(batch_size=2, epochs=10))


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
