"""Readers for KITTI-style datasets and the native synthetic scene format.

KITTI annotations live in the rectified camera frame with bottom-center box
locations; everything downstream of this module works in the sensor frame
with geometric-center boxes, so the conversion happens here and nowhere
else.

The native format keeps the same 16-byte point record as KITTI velodyne
files and stores boxes as plain text, one "cx cy cz l w h yaw" line each,
already in the sensor frame. One directory per scene: points.bin and
boxes.txt.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Box3D, PointCloud

POINT_RECORD_BYTES = 16
SCENE_POINTS_FILE = "points.bin"
SCENE_BOXES_FILE = "boxes.txt"


@dataclass(frozen=True)
class Calibration:
    """KITTI calibration matrices: camera projection, rectification, sensor-to-camera."""

    P2: np.ndarray
    R0_rect: np.ndarray
    Tr_velo_to_cam: np.ndarray

    def __post_init__(self) -> None:
        p2 = np.asarray(self.P2, dtype=np.float64).reshape(3, 4)
        r0 = np.asarray(self.R0_rect, dtype=np.float64).reshape(3, 3)
        tr = np.asarray(self.Tr_velo_to_cam, dtype=np.float64).reshape(3, 4)
        for name, rot in (("R0_rect", r0), ("Tr_velo_to_cam rotation", tr[:, :3])):
            err = np.abs(rot @ rot.T - np.eye(3)).max()
            if err > 1e-3:
                raise ValueError(f"{name} is not orthonormal (max deviation {err:.2e})")
        object.__setattr__(self, "P2", p2)
        object.__setattr__(self, "R0_rect", r0)
        object.__setattr__(self, "Tr_velo_to_cam", tr)

    @classmethod
    def identity_permutation(cls) -> "Calibration":
        """The canonical camera axes: x_cam=-y_sensor, y_cam=-z_sensor, z_cam=x_sensor."""
        tr = np.array([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        return cls(P2=np.hstack([np.eye(3), np.zeros((3, 1))]), R0_rect=np.eye(3), Tr_velo_to_cam=tr)


@dataclass(frozen=True)
class CameraBox:
    """A raw KITTI label box: bottom-center location in rectified camera coords."""

    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    rotation_y: float


@dataclass(frozen=True)
class ObjectAnnotation:
    class_name: str
    box: Box3D
    truncated: float
    occluded: int
    ignore: bool
    num_points: int | None = None

    def with_num_points(self, n: int) -> "ObjectAnnotation":
        return replace(self, num_points=n)


def read_point_cloud(path: str | os.PathLike) -> PointCloud:
    """Read a velodyne-style binary file: little-endian float32 x,y,z,intensity records."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % POINT_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: truncated record, {len(raw)} bytes is not a multiple of {POINT_RECORD_BYTES}"
        )
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    return PointCloud(pts.astype(np.float64))


def write_point_cloud(path: str | os.PathLike, cloud: PointCloud) -> None:
    cloud.data.astype("<f4").tofile(path)


def read_calibration(path: str | os.PathLike) -> Calibration:
    """Parse a KITTI calib text file, keeping only the matrices this package uses."""
    fields: dict[str, np.ndarray] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or ":" not in line:
                continue
            key, _, rest = line.partition(":")
            fields[key.strip()] = np.array([float(v) for v in rest.split()])
    try:
        return Calibration(
            P2=fields["P2"].reshape(3, 4),
            R0_rect=fields["R0_rect"].reshape(3, 3),
            Tr_velo_to_cam=fields["Tr_velo_to_cam"].reshape(3, 4),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing calibration entry {exc}") from exc


def camera_box_to_lidar(box_cam: CameraBox, calib: Calibration) -> Box3D:
    """Convert a camera-frame label box into a sensor-frame geometric-center box.

    The location is mapped through the inverse rectification and sensor-to-camera
    transforms, the bottom-center is lifted by h/2, and the heading is carried
    over as a direction vector so the result holds for any calibration, not just
    the axis-permutation one.
    """
    r0_inv = calib.R0_rect.T
    r_tr = calib.Tr_velo_to_cam[:, :3]
    t_tr = calib.Tr_velo_to_cam[:, 3]
    loc_ref = r0_inv @ np.array([box_cam.x, box_cam.y, box_cam.z])
    loc = r_tr.T @ (loc_ref - t_tr)
    heading_cam = np.array([math.cos(box_cam.rotation_y), 0.0, -math.sin(box_cam.rotation_y)])
    heading = r_tr.T @ (r0_inv @ heading_cam)
    yaw = math.atan2(heading[1], heading[0])
    return Box3D(loc[0], loc[1], loc[2] + box_cam.h / 2, box_cam.l, box_cam.w, box_cam.h, yaw)


def lidar_box_to_camera(box: Box3D, calib: Calibration) -> CameraBox:
    """Exact inverse of camera_box_to_lidar."""
    r0 = calib.R0_rect
    r_tr = calib.Tr_velo_to_cam[:, :3]
    t_tr = calib.Tr_velo_to_cam[:, 3]
    loc_sensor = box.center - np.array([0.0, 0.0, box.h / 2])
    loc_cam = r0 @ (r_tr @ loc_sensor + t_tr)
    heading_sensor = np.array([math.cos(box.yaw), math.sin(box.yaw), 0.0])
    heading_cam = r0 @ (r_tr @ heading_sensor)
    rotation_y = math.atan2(-heading_cam[2], heading_cam[0])
    return CameraBox(loc_cam[0], loc_cam[1], loc_cam[2], box.h, box.w, box.l, rotation_y)


IGNORE_CLASS = "DontCare"
# Placeholder extents for ignore-region entries, whose KITTI dims are -1.
_IGNORE_DIMS = (0.5, 0.5, 0.5)


def read_labels(path: str | os.PathLike, calib: Calibration) -> list[ObjectAnnotation]:
    """Parse a KITTI label_2 file into sensor-frame annotations.

    Order-preserving and total: every non-empty line becomes one annotation
    or raises with its 1-based line number.
    """
    out: list[ObjectAnnotation] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 15:
                raise ValueError(f"{path}:{lineno}: expected >=15 fields, got {len(fields)}")
            name = fields[0]
            try:
                truncated = float(fields[1])
                occluded = int(float(fields[2]))
                h, w, l = (float(v) for v in fields[8:11])
                x, y, z = (float(v) for v in fields[11:14])
                rotation_y = float(fields[14])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
            ignore = name == IGNORE_CLASS
            if ignore:
                # ignore regions carry -1 dims; substitute a harmless placeholder box
                l, w, h = _IGNORE_DIMS
            elif min(l, w, h) <= 0:
                raise ValueError(f"{path}:{lineno}: non-positive box dims ({l}, {w}, {h})")
            box = camera_box_to_lidar(CameraBox(x, y, z, h, w, l, rotation_y), calib)
            out.append(ObjectAnnotation(name, box, truncated, occluded, ignore))
    return out


def read_scene_boxes(path: str | os.PathLike) -> list[Box3D]:
    """Read native-format boxes: one 'cx cy cz l w h yaw' line per object."""
    boxes: list[Box3D] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            try:
                cx, cy, cz, l, w, h, yaw = (float(v) for v in fields)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
            boxes.append(Box3D(cx, cy, cz, l, w, h, yaw))
    return boxes


def write_scene_boxes(path: str | os.PathLike, boxes: list[Box3D]) -> None:
    with open(path, "w") as f:
        for b in boxes:
            f.write(f"{b.cx!r} {b.cy!r} {b.cz!r} {b.l!r} {b.w!r} {b.h!r} {b.yaw!r}\n")


def read_scene_dir(path: str | os.PathLike) -> tuple[PointCloud, list[Box3D]]:
    cloud = read_point_cloud(os.path.join(path, SCENE_POINTS_FILE))
    boxes = read_scene_boxes(os.path.join(path, SCENE_BOXES_FILE))
    return cloud, boxes


def write_scene_dir(path: str | os.PathLike, cloud: PointCloud, boxes: list[Box3D]) -> None:
    os.makedirs(path, exist_ok=True)
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
