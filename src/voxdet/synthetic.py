"""Procedural mini-dataset: box-shaped cars scanned from the origin.

Each car is a hollow box shell. Point budget falls off with squared
distance from the sensor and nearer cars cast azimuth shadows over
farther ones, so the generated scenes show the same incompleteness
patterns (sparsity, occlusion) a real scan would. All coordinates are
rounded through float32 at generation time, making in-memory scenes
bit-identical to their on-disk form.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, PointCloud, box_corners_bev, rotated_iou_bev_many, rotation_2d
from .kitti_io import write_scene_dir

CAR_DIMS = (3.9, 1.6, 1.56)
CAR_Z = -1.0
GROUND_Z = CAR_Z - CAR_DIMS[2] / 2.0
REFERENCE_RANGE = 10.0
MIN_CAR_POINTS = 12


@dataclass(frozen=True)
class SceneRecipe:
    """Knobs for one generated scene."""

    n_cars: int = 4
    base_points: int = 320
    ground_points: int = 256
    occlusion: float = 1.0  # probability a shadowed point is dropped
    x_range: tuple[float, float] = (4.0, 28.0)
    y_range: tuple[float, float] = (-12.0, 12.0)

    def __post_init__(self):
        if self.n_cars < 0 or self.base_points < 1:
            raise ValueError("n_cars must be >= 0 and base_points >= 1")
        if not (0.0 <= self.occlusion <= 1.0):
            raise ValueError("occlusion must be in [0, 1]")


# canonical-frame faces: (axis, sign, area weight axes); bottom omitted,
# a sensor at z=0 looks down on car roofs at z<0
_FACES = (
    (0, +1.0), (0, -1.0),  # nose / tail
    (1, +1.0), (1, -1.0),  # flanks
    (2, +1.0),             # roof
)


def _face_area(box: Box3D, axis: int) -> float:
    dims = (box.l, box.w, box.h)
    other = [d for i, d in enumerate(dims) if i != axis]
    return other[0] * other[1]


def _visible_faces(box: Box3D) -> list[tuple[int, float, float]]:
    """Faces whose outward normal points back at the sensor, with areas."""
    rot = rotation_2d(box.yaw)
    center = np.array([box.cx, box.cy, box.cz])
    out = []
    for axis, sign in _FACES:
        normal = np.zeros(3)
        normal[axis] = sign
        if axis != 2:
            normal[:2] = rot @ normal[:2]
        offset = np.zeros(3)
        offset[axis] = sign * (box.l, box.w, box.h)[axis] / 2.0
        if axis != 2:
            offset[:2] = rot @ offset[:2]
        if normal @ (center + offset) < 0.0:  # faces the origin
            out.append((axis, sign, _face_area(box, axis)))
    return out


def car_shell_points(box: Box3D, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample n points on the sensor-facing faces of the box shell."""
    faces = _visible_faces(box)
    areas = np.array([a for _, _, a in faces])
    picks = rng.choice(len(faces), size=n, p=areas / areas.sum())
    dims = np.array([box.l, box.w, box.h])
    local = rng.uniform(-0.5, 0.5, size=(n, 3)) * dims
    for i, (axis, sign, _) in enumerate(faces):
        sel = picks == i
        local[sel, axis] = sign * dims[axis] / 2.0
    world = local.copy()
    world[:, :2] = local[:, :2] @ rotation_2d(box.yaw).T
    world += np.array([box.cx, box.cy, box.cz])
    return world


def points_budget(box: Box3D, base: int) -> int:
    """Squared-range falloff, floored so every car keeps a sketch of itself."""
    dist = math.hypot(box.cx, box.cy)
    scale = min(1.0, (REFERENCE_RANGE / max(dist, 1e-6)) ** 2)
    return max(MIN_CAR_POINTS, int(round(base * scale)))


def _azimuth_interval(box: Box3D) -> tuple[float, float]:
    az = np.arctan2(box_corners_bev(box)[:, 1], box_corners_bev(box)[:, 0])
    return float(az.min()), float(az.max())


def apply_shadows(clouds: list[np.ndarray], boxes: list[Box3D],
                  occlusion: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Drop points of farther cars that sit in a nearer car's azimuth span.

    Intervals are taken straight from corner azimuths, which is exact for
    the forward fan this generator uses (no wrap across +-pi). A shadow is
    never perfect: each car keeps at least MIN_CAR_POINTS survivors (by
    index) so no labeled box ends up empty.
    """
    if occlusion <= 0.0 or len(boxes) < 2:
        return clouds
    ranges = [math.hypot(b.cx, b.cy) for b in boxes]
    spans = [_azimuth_interval(b) for b in boxes]
    out = []
    for i, pts in enumerate(clouds):
        keep = np.ones(len(pts), dtype=bool)
        az = np.arctan2(pts[:, 1], pts[:, 0])
        for j, (lo, hi) in enumerate(spans):
            if j == i or ranges[j] >= ranges[i]:
                continue
            shadowed = (az >= lo) & (az <= hi)
            drop = shadowed & (rng.uniform(size=len(pts)) < occlusion)
            keep &= ~drop
        floor = min(len(pts), MIN_CAR_POINTS)
        if keep.sum() < floor:
            keep[:floor] = True
        out.append(pts[keep])
    return out


def _place_cars(recipe: SceneRecipe, rng: np.random.Generator) -> list[Box3D]:
    boxes: list[Box3D] = []
    attempts = 0
    while len(boxes) < recipe.n_cars and attempts < 200 * max(1, recipe.n_cars):
        attempts += 1
        l, w, h = CAR_DIMS
        scale = rng.uniform(0.95, 1.05)
        cand = Box3D(
            rng.uniform(*recipe.x_range), rng.uniform(*recipe.y_range), CAR_Z,
            l * scale, w * scale, h * scale, rng.uniform(-math.pi, math.pi))
        placed = np.array([b.as_array() for b in boxes]).reshape(-1, 7)
        if not rotated_iou_bev_many(cand.as_array(), placed).any():
            boxes.append(cand)
    if len(boxes) < recipe.n_cars:
        raise ValueError("could not place cars without overlap; shrink n_cars")
    return boxes


def _f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def synth_scene(recipe: SceneRecipe, seed_key: list[int]) -> tuple[PointCloud, list[Box3D]]:
    """One deterministic scene: car shells plus a ground carpet."""
    rng = np.random.default_rng(seed_key)
    boxes = _place_cars(recipe, rng)
    shells = [car_shell_points(b, points_budget(b, recipe.base_points), rng)
              for b in boxes]
    shells = apply_shadows(shells, boxes, recipe.occlusion, rng)
    ground = np.column_stack([
        rng.uniform(*recipe.x_range, recipe.ground_points),
        rng.uniform(*recipe.y_range, recipe.ground_points),
        np.full(recipe.ground_points, GROUND_Z) + rng.uniform(0, 0.04, recipe.ground_points),
    ])
    xyz = np.vstack([ground] + shells) if shells else ground
    intensity = rng.uniform(0.0, 1.0, len(xyz))
    data = _f32(np.column_stack([xyz, intensity]))
    boxes = [Box3D(*(float(np.float32(v)) for v in
                     (b.cx, b.cy, b.cz, b.l, b.w, b.h, b.yaw))) for b in boxes]
    return PointCloud(data), boxes


def make_dataset(out_dir: str | os.PathLike, n_scenes: int, seed: int,
                 recipe: SceneRecipe | None = None) -> list[str]:
    """Write n_scenes native scene directories under out_dir; returns their paths."""
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    recipe = recipe or SceneRecipe()
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for idx in range(n_scenes):
        cloud, boxes = synth_scene(recipe, [seed, idx])
        scene_dir = os.path.join(out_dir, f"scene_{idx:04d}")
        write_scene_dir(scene_dir, cloud, boxes)
        paths.append(scene_dir)
    return paths
