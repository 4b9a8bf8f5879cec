"""References the benchmark checks voxdet against, written apart from voxdet.

Boxes here are plain tuples (cx, cy, l, w, yaw) in the bird's-eye plane.
The overlap is computed a different way from voxdet's polygon clipper: the
intersection of two convex rectangles is the convex hull of the corners of
each that lie inside the other plus the crossing points of their edges.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

EDGE_TOL = 1e-9


def corners(box) -> np.ndarray:
    cx, cy, l, w, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    local = np.array([[l, w], [-l, w], [-l, -w], [l, -w]]) / 2.0
    return local @ np.array([[c, s], [-s, c]]) + (cx, cy)


def _inside(points: np.ndarray, box) -> np.ndarray:
    cx, cy, l, w, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = points[:, 0] - cx, points[:, 1] - cy
    along = c * dx + s * dy
    across = -s * dx + c * dy
    return (np.abs(along) <= l / 2 + EDGE_TOL) & (np.abs(across) <= w / 2 + EDGE_TOL)


def _edge_crossings(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Points where an edge of polygon a crosses an edge of polygon b."""
    a0, da = pa, np.roll(pa, -1, axis=0) - pa
    b0, db = pb, np.roll(pb, -1, axis=0) - pb
    out = []
    for i in range(len(pa)):
        for j in range(len(pb)):
            den = da[i, 0] * db[j, 1] - da[i, 1] * db[j, 0]
            if abs(den) < 1e-15:
                continue  # parallel edges: their shared points are corners
            rel = b0[j] - a0[i]
            t = (rel[0] * db[j, 1] - rel[1] * db[j, 0]) / den
            u = (rel[0] * da[i, 1] - rel[1] * da[i, 0]) / den
            if -EDGE_TOL <= t <= 1 + EDGE_TOL and -EDGE_TOL <= u <= 1 + EDGE_TOL:
                out.append(a0[i] + t * da[i])
    return np.array(out).reshape(-1, 2)


def iou_bev(a, b) -> float:
    """Rotated bird's-eye IoU of two (cx, cy, l, w, yaw) rectangles."""
    reach = (math.hypot(a[2], a[3]) + math.hypot(b[2], b[3])) / 2.0
    if math.hypot(a[0] - b[0], a[1] - b[1]) > reach:
        return 0.0
    pa, pb = corners(a), corners(b)
    pts = np.vstack([pa[_inside(pa, b)], pb[_inside(pb, a)], _edge_crossings(pa, pb)])
    if len(pts) < 3:
        return 0.0
    try:
        inter = ConvexHull(pts).volume  # in 2-d, volume is the area
    except QhullError:  # all points on one line: the boxes only touch
        return 0.0
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def mean_closest_distance(query: np.ndarray, model: np.ndarray) -> float:
    """Mean over query points of the distance to the nearest model point."""
    return float(cKDTree(model).query(query)[0].mean())


def greedy_match(dets, scores, gts, threshold: float) -> list[tuple[float, bool, int, int]]:
    """Score-descending matching: each detection claims the unmatched box it
    overlaps most. Returns (score, hit, claimed box or -1, detection index)
    in rank order."""
    order = sorted(range(len(dets)), key=lambda i: (-scores[i], i))
    taken = set()
    out = []
    for i in order:
        best, best_g = 0.0, -1
        for g, gt in enumerate(gts):
            if g in taken:
                continue
            iou = iou_bev(dets[i], gt)
            if iou > best:
                best, best_g = iou, g
        hit = best_g >= 0 and best >= threshold
        if hit:
            taken.add(best_g)
        out.append((float(scores[i]), hit, best_g if hit else -1, i))
    return out


def ap40(samples: list[tuple[float, bool]], n_gt: int) -> float:
    """40-point interpolated AP in percent over (score, hit) samples."""
    if n_gt == 0:
        return 0.0
    ranked = sorted(samples, key=lambda s: -s[0])
    tp = 0
    curve = []  # (recall, precision) at each rank
    for rank, (_, hit) in enumerate(ranked, start=1):
        tp += hit
        curve.append((tp / n_gt, tp / rank))
    total = 0.0
    for k in range(1, 41):
        r = k / 40.0
        total += max((p for rec, p in curve if rec >= r - 1e-12), default=0.0)
    return 100.0 * total / 40.0


def central_difference(f, x0: float, h: float) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def self_check() -> list[tuple[str, bool, str]]:
    """Hand cases each reference must reproduce before it judges voxdet."""
    results = []
    got = iou_bev((0, 0, 2, 2, 0.0), (1, 0, 2, 2, 0.0))
    results.append(("ref.iou_squares", abs(got - 1 / 3) < 1e-12, f"iou {got!r}"))
    got = iou_bev((0, 0, 2, 2, 0.3), (0, 0, 2, 2, 0.3 + math.pi / 2))
    results.append(("ref.iou_self", abs(got - 1.0) < 1e-12, f"iou {got!r}"))
    got = iou_bev((0, 0, 2, 2, 0.0), (0, 0, 2, 2, math.pi / 4))
    inter = 8 * (math.sqrt(2) - 1)  # regular octagon of inradius 1
    want = inter / (8 - inter)
    results.append(("ref.iou_octagon", abs(got - want) < 1e-12, f"iou {got!r}"))
    # two boxes, ranked hit, miss, hit: precision 1 up to recall 1/2, then 2/3
    got = ap40([(0.9, True), (0.8, False), (0.7, True)], 2)
    want = 100.0 * (20 * 1.0 + 20 * (2 / 3)) / 40
    results.append(("ref.ap40_hand_ranked", abs(got - want) < 1e-9, f"ap {got!r}"))
    got = mean_closest_distance(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([[0.0, 0, 1]]))
    want = (1.0 + math.sqrt(2.0)) / 2
    results.append(("ref.closest_distance", abs(got - want) < 1e-12, f"mean {got!r}"))
    got = central_difference(lambda x: x ** 3, 2.0, 1e-4)
    results.append(("ref.central_difference", abs(got - 12.0) < 1e-6, f"d {got!r}"))
    return results
