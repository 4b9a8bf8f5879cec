"""Oriented-box and point-set geometry.

Everything here is pure and stateless: BEV corner extraction, point-in-box
tests, rotated IoU (BEV and 3D) on a kernel over pairs of box rows, with
one-against-many and Box3D-pair forms, and the directed average
closest-point distance used to pair sparse objects with dense stand-in
models.

Conventions: sensor frame is x forward, y left, z up; yaw rotates about +z
and is stored in [-pi, pi); boxes are parameterized by their geometric
center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(angle):
    """Wrap an angle, or each of an array of angles, to [-pi, pi).

    On an array `%` is `np.remainder`, which gives the same floats as
    Python's `%` on a float. The second `%` sends a remainder that rounded
    up to 2 pi to 0, so a sum just below -pi gives -pi rather than +pi, and
    a wrapped angle wraps to itself.
    """
    return (angle + math.pi) % TWO_PI % TWO_PI - math.pi


def rotation_2d(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def rotation_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=np.float64)


@dataclass(frozen=True)
class PointCloud:
    """A flat array of sensor points, shape (N, 4): x, y, z, intensity."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"point cloud must have shape (N, 4), got {arr.shape}")
        if arr.shape[0] and not np.isfinite(arr[:, :3]).all():
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "data", arr)

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 4), dtype=np.float64))

    @classmethod
    def from_xyz(cls, xyz: np.ndarray, intensity: np.ndarray | None = None) -> "PointCloud":
        xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        if intensity is None:
            intensity = np.zeros(len(xyz), dtype=np.float64)
        return cls(np.column_stack([xyz, np.asarray(intensity, dtype=np.float64)]))

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.data[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.data[:, 3]


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: geometric center, full extents, yaw about +z."""

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"box field {name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(f"box dimensions must be positive, got l={self.l} w={self.w} h={self.h}")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz], dtype=np.float64)

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.l, self.w, self.h], dtype=np.float64)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz, self.l, self.w, self.h, self.yaw], dtype=np.float64)


def box_corners_bev(box: Box3D) -> np.ndarray:
    """Counter-clockwise BEV corners of the yaw-rotated l-by-w rectangle.

    Returns a (4, 2) array; the first corner is the rotated (+l/2, +w/2).
    """
    half = np.array(
        [[box.l / 2, box.w / 2], [-box.l / 2, box.w / 2], [-box.l / 2, -box.w / 2], [box.l / 2, -box.w / 2]],
        dtype=np.float64,
    )
    return half @ rotation_2d(box.yaw).T + np.array([box.cx, box.cy])


# Absorbs rigid-transform roundoff, so points sitting exactly on a face stay
# inside after the box and its points are moved together.
_POINT_SLACK = 1e-9


def points_in_box(cloud: PointCloud, box: Box3D) -> np.ndarray:
    """Indices of points inside the box, boundary-inclusive, give or take `_POINT_SLACK`."""
    if len(cloud) == 0:
        return np.zeros(0, dtype=np.int64)
    local = (cloud.xyz - box.center) @ rotation_z(box.yaw)
    half = box.dims / 2 + _POINT_SLACK
    mask = (np.abs(local) <= half).all(axis=1)
    return np.nonzero(mask)[0]


# A corner this close outside the other box counts as inside it, so that
# shared corners and edges survive the roundoff of the frame change.
_INSIDE_SLACK = 1e-9
# Edges whose directions' cross product is below this share of their lengths'
# product are parallel: their crossing is ill-conditioned, and when they
# overlap, the corners that bound the overlap are caught as inside points.
_PARALLEL_SINE = 1e-12
# Index of the next corner of a box, and of the next of a pair's 24 points.
_NEXT_CORNER = np.array([1, 2, 3, 0])
_NEXT_POINT = np.roll(np.arange(24), -1)
# Boxes farther apart than this along one of their edge normals have no
# corner within _INSIDE_SLACK of the other box and no edge crossing, even
# after roundoff, so the clip would find no point and give 0.
_APART = 1e-6
# An overlap of at most this share of the smaller box's area is 0: boxes that
# only share a corner or an edge clip to a roundoff sliver, not to nothing.
_SLIVER = 1e-12
# Gated pairs clipped per step. Past about a thousand, the clip's dozens of
# (pairs, 24, 2) temporaries fall out of cache and each pair costs more.
_CLIP_PAIRS = 1024


def _corners_rows(rows: np.ndarray) -> np.ndarray:
    """(M, 4, 2) BEV corners of (M, 7) box rows, in box_corners_bev order."""
    c, s = np.cos(rows[:, 6:7]), np.sin(rows[:, 6:7])
    hl = rows[:, 3:4] / 2 * np.array([1.0, -1.0, -1.0, 1.0])
    hw = rows[:, 4:5] / 2 * np.array([1.0, 1.0, -1.0, -1.0])
    return np.stack([rows[:, 0:1] + hl * c - hw * s,
                     rows[:, 1:2] + hl * s + hw * c], axis=-1)


def _inside(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(M, P) mask of (M, P, 2) points that lie in the matching (M, 7) box rows."""
    c, s = np.cos(rows[:, 6:7]), np.sin(rows[:, 6:7])
    dx = points[..., 0] - rows[:, 0:1]
    dy = points[..., 1] - rows[:, 1:2]
    return ((np.abs(dx * c + dy * s) <= rows[:, 3:4] / 2 + _INSIDE_SLACK)
            & (np.abs(dy * c - dx * s) <= rows[:, 4:5] / 2 + _INSIDE_SLACK))


def circumcircles_meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the box row pairs, broadcast over leading axes, whose
    circumcircles meet: centre distance at most the sum of the half-diagonals.

    A pair outside it cannot overlap; one on its edge shares one point at most.
    """
    reach = (np.hypot(a[..., 3], a[..., 4]) + np.hypot(b[..., 3], b[..., 4])) / 2
    return (b[..., 0] - a[..., 0]) ** 2 + (b[..., 1] - a[..., 1]) ** 2 <= reach * reach


def _apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the pairs of (M, 7) box rows a[i] and b[i] that one of their
    four edge normals separates by more than `_APART`."""
    cos_a, sin_a = np.cos(a[:, 6]), np.sin(a[:, 6])
    cos_b, sin_b = np.cos(b[:, 6]), np.sin(b[:, 6])
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    # |cos| and |sin| of the yaw difference turn one box's half-sizes into
    # its half-extents along the other's axes
    cos_d = np.abs(cos_a * cos_b + sin_a * sin_b)
    sin_d = np.abs(sin_a * cos_b - cos_a * sin_b)
    la, wa, lb, wb = a[:, 3] / 2, a[:, 4] / 2, b[:, 3] / 2, b[:, 4] / 2
    return ((np.abs(dx * cos_a + dy * sin_a) > la + lb * cos_d + wb * sin_d + _APART)
            | (np.abs(dy * cos_a - dx * sin_a) > wa + lb * sin_d + wb * cos_d + _APART)
            | (np.abs(dx * cos_b + dy * sin_b) > lb + la * cos_d + wa * sin_d + _APART)
            | (np.abs(dy * cos_b - dx * sin_b) > wb + la * sin_d + wa * cos_d + _APART))


def _intersection_area_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BEV overlap area of each pair of (M, 7) box rows a[i] and b[i].

    Gates: a pair whose circumcircles are disjoint, or that a separating axis
    parts (`_apart`), gets 0 without more work, as its clip would. The pairs
    that pass are clipped `_CLIP_PAIRS` at a time, which keeps the clip's
    temporaries small enough to stay in cache.
    """
    area = np.zeros(len(a))
    near = np.flatnonzero(circumcircles_meet(a, b))
    near = near[~_apart(a[near], b[near])]
    for lo in range(0, len(near), _CLIP_PAIRS):
        pick = near[lo:lo + _CLIP_PAIRS]
        area[pick] = _clip_area(a[pick], b[pick])
    return area


def _clip_area(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BEV overlap area of each pair of (M, 7) box rows a[i] and b[i]; both
    arrays are the caller's copies and are changed.

    Each pair's overlap is a convex polygon whose vertices are the corners
    of each box inside the other plus the crossings of their 16 edge pairs;
    the points are sorted by angle about their centroid and the shoelace
    formula gives the area, capped at the smaller box's. Masked points sort
    last and are replaced by the first vertex, so they add zero area.
    """
    # Work in a frame centred on each `a` row, where coordinates are small.
    b[:, :2] -= a[:, :2]
    a[:, :2] = 0.0
    ca, cb = _corners_rows(a), _corners_rows(b)

    # Edge i of a is p + t r, edge j of b is q + u s, for t, u in [0, 1].
    p, r = ca[:, :, None], (ca[:, _NEXT_CORNER] - ca)[:, :, None]
    q, s = cb[:, None], (cb[:, _NEXT_CORNER] - cb)[:, None]
    cross = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    lengths = np.hypot(r[..., 0], r[..., 1]) * np.hypot(s[..., 0], s[..., 1])
    parallel = np.abs(cross) <= _PARALLEL_SINE * lengths
    denom = np.where(parallel, 1.0, cross)
    qp = q - p
    t = (qp[..., 0] * s[..., 1] - qp[..., 1] * s[..., 0]) / denom
    u = (qp[..., 0] * r[..., 1] - qp[..., 1] * r[..., 0]) / denom
    hits = ~parallel & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    crossings = p + t[..., None] * r

    points = np.concatenate([ca, cb, crossings.reshape(len(b), 16, 2)], axis=1)
    mask = np.concatenate([_inside(ca, b), _inside(cb, a), hits.reshape(len(b), 16)],
                          axis=1)
    points = np.where(mask[..., None], points, 0.0)
    count = mask.sum(axis=1)
    # a running sum adds the 24 points in order, as a sum over the axis does,
    # in half the time
    centroid = np.cumsum(points, axis=1)[:, -1] / np.maximum(count, 1)[:, None]
    rel = points - centroid[:, None]
    angle = np.where(mask, np.arctan2(rel[..., 1], rel[..., 0]), 4.0)
    # sorted, a pair's `count` unmasked points come first; one flat gather
    # is several times faster than a two-axis fancy index
    order = np.argsort(angle, axis=1, kind="stable") + 24 * np.arange(len(b))[:, None]
    poly = np.take(rel.reshape(-1, 2), order, axis=0)
    poly = np.where((np.arange(24) < count[:, None])[..., None], poly, poly[:, :1])
    x, y = poly[..., 0], poly[..., 1]
    shoelace = 0.5 * np.abs((x * y[:, _NEXT_POINT] - x[:, _NEXT_POINT] * y).sum(axis=1))
    smaller = np.minimum(a[:, 3] * a[:, 4], b[:, 3] * b[:, 4])
    return np.where(shoelace <= _SLIVER * smaller, 0.0, np.minimum(shoelace, smaller))


def rotated_iou_bev_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BEV IoU of each pair of (M, 7) box rows a[i] and b[i], in [0, 1].

    It agrees with a Sutherland-Hodgman polygon clipper to about 1e-14; the
    tests hold it to one. The pair's bits depend on which box is `a`.
    """
    inter = _intersection_area_pairs(a, b)
    return inter / (a[:, 3] * a[:, 4] + b[:, 3] * b[:, 4] - inter)


def rotated_iou_bev_many(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """BEV IoU of one (7,) box row against each of (M, 7) rows, in [0, 1]."""
    box = np.asarray(box, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 7)
    return rotated_iou_bev_pairs(np.broadcast_to(box, boxes.shape), boxes)


def rotated_iou_3d_many(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Volumetric IoU of one (7,) row against each of (M, 7) rows, for upright
    boxes: BEV overlap area times z-interval overlap."""
    box = np.asarray(box, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 7)
    z_lo = np.maximum(box[2] - box[5] / 2, boxes[:, 2] - boxes[:, 5] / 2)
    z_hi = np.minimum(box[2] + box[5] / 2, boxes[:, 2] + boxes[:, 5] / 2)
    area = _intersection_area_pairs(np.broadcast_to(box, boxes.shape), boxes)
    inter = area * np.maximum(z_hi - z_lo, 0.0)
    return inter / (box[3] * box[4] * box[5] + boxes[:, 3] * boxes[:, 4] * boxes[:, 5] - inter)


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """BEV IoU of two oriented boxes, in [0, 1]: one pair of rotated_iou_bev_many."""
    # Canonical argument order makes (a, b) and (b, a) give the same bits.
    if (a.cx, a.cy, a.l, a.w, a.yaw) > (b.cx, b.cy, b.l, b.w, b.yaw):
        a, b = b, a
    return float(rotated_iou_bev_many(a.as_array(), b.as_array())[0])


# Each chunk of the query set holds at most this many (query, model) pairs,
# which bounds the difference array at a few megabytes.
_PAIRS_PER_CHUNK = 1 << 18


def avg_closest_point_distance(a: PointCloud, b: PointCloud) -> float:
    """Mean over points of `a` of the distance to the closest point of `b`.

    Directed from the observed object `a` to the candidate model `b`; a
    sparse observation that is a subset of a dense model scores 0 this way.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("avg_closest_point_distance requires non-empty clouds")
    step = max(1, _PAIRS_PER_CHUNK // len(b))
    closest = np.empty(len(a), dtype=np.float64)
    for lo in range(0, len(a), step):
        diff = a.xyz[lo:lo + step, None, :] - b.xyz[None, :, :]
        closest[lo:lo + step] = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
    return float(closest.mean())
