"""Independent reference implementations used to check the package.

Everything here is deliberately naive: double loops, Monte Carlo sampling,
polygon clipping one box pair at a time, dense arrays. Slow but obviously
correct, so the fast code in the package can be validated against it. The
dense conv3d and Monte-Carlo IoU oracles live in `voxdet.verify`, which
`voxdet selftest` runs too, and are re-exported here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from voxdet.detection_head import CONVENTION_LINEAGE, CONVENTION_PRINTED
from voxdet.geometry import Box3D, box_corners_bev
from voxdet.verify import dense_conv3d, mc_iou_bev  # noqa: F401  (re-exported)


def brute_mean_closest(a: np.ndarray, b: np.ndarray) -> float:
    """Double-loop directed mean closest-point distance from a to b."""
    total = 0.0
    for p in a:
        best = math.inf
        for q in b:
            d = math.dist(p, q)
            if d < best:
                best = d
        total += best
    return total / len(a)


def brute_rulebook(coords, spatial_shape, kernel, stride, padding, submanifold):
    """Rulebook by exhaustive search over taps x input sites x output sites.

    A pair links input row i and output row o of a tap when
    input site = output site * stride + tap - padding. Submanifold output
    sites are the input sites and padding is kernel // 2; strided output
    sites are the grid sites some pair reaches, in (ix, iy, iz) order.
    Within a tap, pairs run in ascending output row (submanifold) or
    ascending input row (strided). Returns (taps, out_coords).
    """
    coords = [tuple(int(v) for v in c) for c in coords]
    if submanifold:
        padding = tuple(k // 2 for k in kernel)
        out_shape = spatial_shape
    else:
        out_shape = tuple((n + 2 * p - k) // s + 1
                          for n, k, s, p in zip(spatial_shape, kernel, stride, padding))

    def links(site, out, tap):
        return all(site[d] == out[d] * stride[d] + tap[d] - padding[d] for d in range(3))

    taps = list(itertools.product(*(range(k) for k in kernel)))
    if submanifold:
        out_sites = coords
    else:
        grid = list(itertools.product(*(range(n) for n in out_shape)))
        out_sites = sorted({o for tap in taps for c in coords for o in grid if links(c, o, tap)})
    pairs = []
    for tap in taps:
        found = [(i, o) for i, c in enumerate(coords)
                 for o, q in enumerate(out_sites) if links(c, q, tap)]
        found.sort(key=lambda pair: pair[1] if submanifold else pair[0])
        pairs.append((np.array([i for i, _ in found], dtype=np.int64),
                      np.array([o for _, o in found], dtype=np.int64)))
    return pairs, np.array(out_sites, dtype=np.int64).reshape(-1, 3)


def dense_conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 stride: int = 1, padding: int = 0) -> np.ndarray:
    """Plain nested-loop 2D convolution, NCHW single-image (C,H,W) input."""
    c_in, h, width = x.shape
    c_out, c_in2, kh, kw = w.shape
    assert c_in == c_in2
    xp = np.zeros((c_in, h + 2 * padding, width + 2 * padding))
    xp[:, padding:padding + h, padding:padding + width] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[co, i, j] = float((patch * w[co]).sum())
        if b is not None:
            out[co] += b[co]
    return out


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f(x)
        flat[i] = old - eps
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2 * eps)
    return g


def loop_deform_input_grad(d_sampled: np.ndarray, offsets: np.ndarray, shape,
                           stride: int = 1, padding: int = 0) -> np.ndarray:
    """Input gradient of a deformable convolution, one bilinear read at a time.

    `d_sampled` is (C_in, kH*kW, H_out, W_out), the gradient of each sampled
    value; `offsets` is laid out as in `deform_conv2d`, and `shape` is the
    square-kernel input's (C_in, H, W). Loops over corner (00, 01, 10, 11),
    then channel, tap and output pixel, adding each weighted gradient into
    the corner pixel when that pixel is on the grid. This is the summation
    order `deform_conv2d` keeps, so the two agree bit for bit.
    """
    c_in, h, w = shape
    _, n_taps, ho, wo = d_sampled.shape
    k = math.isqrt(n_taps)
    d_x = np.zeros(shape)
    for cy, cx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for c in range(c_in):
            for n in range(n_taps):
                ky, kx = divmod(n, k)
                for oy in range(ho):
                    for ox in range(wo):
                        y = (oy * stride + ky - padding) + offsets[2 * n, oy, ox]
                        x = (ox * stride + kx - padding) + offsets[2 * n + 1, oy, ox]
                        y0, x0 = math.floor(y), math.floor(x)
                        yy, xx = y0 + cy, x0 + cx
                        if not (0 <= yy < h and 0 <= xx < w):
                            continue
                        wy = y - y0 if cy else 1.0 - (y - y0)
                        wx = x - x0 if cx else 1.0 - (x - x0)
                        d_x[c, yy, xx] += d_sampled[c, n, oy, ox] * (wy * wx)
    return d_x


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a polygon given as an (N, 2) vertex array."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of `subject` by convex CCW polygon `clip`."""
    output = subject
    n = len(clip)
    for i in range(n):
        if len(output) == 0:
            break
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        rel = output - a
        d = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
        new_pts = []
        m = len(output)
        for j in range(m):
            k = (j + 1) % m
            if d[j] >= 0:
                new_pts.append(output[j])
            if (d[j] > 0 and d[k] < 0) or (d[j] < 0 and d[k] > 0):
                t = d[j] / (d[j] - d[k])
                new_pts.append(output[j] + t * (output[k] - output[j]))
        output = np.array(new_pts, dtype=np.float64) if new_pts else np.zeros((0, 2))
    return output


def clip_area_bev(a: Box3D, b: Box3D) -> float:
    """BEV overlap area of two boxes by clipping one's corners with the other's."""
    # Canonical argument order makes (a, b) and (b, a) give the same bits.
    if (a.cx, a.cy, a.l, a.w, a.yaw) > (b.cx, b.cy, b.l, b.w, b.yaw):
        a, b = b, a
    return polygon_area(clip_polygon(box_corners_bev(a), box_corners_bev(b)))


def clip_iou_bev(a: Box3D, b: Box3D) -> float:
    """Rotated BEV IoU from the clipped overlap polygon."""
    inter = clip_area_bev(a, b)
    if inter <= 0.0:
        return 0.0
    return inter / (a.l * a.w + b.l * b.w - inter)


def clip_iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU of upright boxes: clipped BEV overlap times z-interval overlap."""
    z_overlap = min(a.cz + a.h / 2, b.cz + b.h / 2) - max(a.cz - a.h / 2, b.cz - b.h / 2)
    inter = clip_area_bev(a, b) * max(z_overlap, 0.0)
    if inter <= 0.0:
        return 0.0
    return inter / (a.l * a.w * a.h + b.l * b.w * b.h - inter)


def decode_box(anchor: Box3D, deltas, convention: str = CONVENTION_PRINTED) -> Box3D:
    """The box codec's inverse for one anchor, one scalar at a time."""
    dx, dy, dz, dl, dw, dh, dyaw = (float(v) for v in deltas)
    d_a = math.hypot(anchor.l, anchor.w)
    if convention == CONVENTION_PRINTED:
        cx, cy, cz = anchor.cx - dx * d_a, anchor.cy - dy * anchor.h, anchor.cz - dz * d_a
    elif convention == CONVENTION_LINEAGE:
        cx, cy, cz = anchor.cx + dx * d_a, anchor.cy + dy * d_a, anchor.cz + dz * anchor.h
    else:
        raise ValueError(f"unknown codec convention {convention!r}")
    yaw = (anchor.yaw + dyaw + math.pi) % (2.0 * math.pi) - math.pi
    return Box3D(cx, cy, cz, anchor.l * math.exp(dl), anchor.w * math.exp(dw),
                 anchor.h * math.exp(dh), yaw)


def greedy_match(dets, scores, gts, threshold: float, iou=clip_iou_bev):
    """Score-descending matching by double loop, as (order, tp, gt_idx) lists.

    Each detection, best score first and the lower index on a tie, takes the
    untaken box it overlaps most (the first on an IoU tie) when that overlap
    is above 0 and reaches the threshold.
    """
    order = sorted(range(len(dets)), key=lambda i: (-scores[i], i))
    taken = set()
    tp, gt_idx = [], []
    for i in order:
        best, best_g = 0.0, -1
        for g, gt in enumerate(gts):
            if g not in taken:
                value = iou(dets[i], gt)
                if value > best:
                    best, best_g = value, g
        hit = best_g >= 0 and best >= threshold
        if hit:
            taken.add(best_g)
        tp.append(hit)
        gt_idx.append(best_g if hit else -1)
    return order, tp, gt_idx
