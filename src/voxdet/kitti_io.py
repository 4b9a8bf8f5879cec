"""Velodyne point records and the native scene directory format.

Point clouds are stored as KITTI velodyne files store them: little-endian
float32 x, y, z, intensity records of 16 bytes each. Boxes are plain text,
one "cx cy cz l w h yaw" line each, in the sensor frame with
geometric-center boxes. One directory per scene: points.bin and boxes.txt.
"""

from __future__ import annotations

import os

import numpy as np

from .engine import atomic_write, make_dir
from .geometry import Box3D, PointCloud

POINT_RECORD_BYTES = 16
SCENE_POINTS_FILE = "points.bin"
SCENE_BOXES_FILE = "boxes.txt"


def read_point_cloud(path: str | os.PathLike) -> PointCloud:
    """Read a velodyne-style binary file: little-endian float32 x,y,z,intensity records."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % POINT_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: truncated record, {len(raw)} bytes is not a multiple of {POINT_RECORD_BYTES}"
        )
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    try:  # a NaN or inf coordinate, which PointCloud rejects
        return PointCloud(pts.astype(np.float64))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_point_cloud(path: str | os.PathLike, cloud: PointCloud) -> None:
    """Write the records atomically (see engine.atomic_write)."""
    with atomic_write(path, "wb") as f:
        f.write(cloud.data.astype("<f4").tobytes())


def read_scene_boxes(path: str | os.PathLike) -> list[Box3D]:
    """Read native-format boxes: one 'cx cy cz l w h yaw' line per object."""
    boxes: list[Box3D] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            try:  # a non-numeric field, or a box that Box3D rejects
                boxes.append(Box3D(*(float(v) for v in fields)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return boxes


def write_scene_boxes(path: str | os.PathLike, boxes: list[Box3D]) -> None:
    """Write the box lines atomically (see engine.atomic_write)."""
    with atomic_write(path) as f:
        for b in boxes:
            f.write(f"{b.cx!r} {b.cy!r} {b.cz!r} {b.l!r} {b.w!r} {b.h!r} {b.yaw!r}\n")


def read_scene_dir(path: str | os.PathLike) -> tuple[PointCloud, list[Box3D]]:
    cloud = read_point_cloud(os.path.join(path, SCENE_POINTS_FILE))
    boxes = read_scene_boxes(os.path.join(path, SCENE_BOXES_FILE))
    return cloud, boxes


def write_scene_dir(path: str | os.PathLike, cloud: PointCloud, boxes: list[Box3D]) -> None:
    make_dir(path)
    write_point_cloud(os.path.join(path, SCENE_POINTS_FILE), cloud)
    write_scene_boxes(os.path.join(path, SCENE_BOXES_FILE), boxes)


def list_scene_dirs(root: str | os.PathLike) -> list[str]:
    """Scene directories under root, sorted by name for a stable dataset order."""
    out = []
    for name in sorted(os.listdir(root)):
        full = os.path.join(root, name)
        if os.path.isdir(full) and os.path.isfile(os.path.join(full, SCENE_POINTS_FILE)):
            out.append(full)
    return out
