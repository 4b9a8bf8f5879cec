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


def per_tap_sparse_conv(feat: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                        taps, num_out: int, g: np.ndarray):
    """Sparse convolution one kernel tap at a time, forward and backward.

    `taps` lists one (input rows, output rows) pair per tap, in the nested
    (dx, dy, dz) order. Each tap gathers its own input rows; output rows
    add the taps in tap order, and the feature and weight gradients are
    summed tap by tap. Returns (out, d_feat, d_w, d_b) for the upstream
    gradient g; d_b is None without a bias.
    """
    c_out, c_in = weight.shape[:2]
    w_taps = weight.reshape(c_out, c_in, -1)
    out = np.zeros((num_out, c_out))
    gathered_cache = []
    for t, (in_idx, out_idx) in enumerate(taps):
        if len(in_idx) == 0:
            gathered_cache.append(None)
            continue
        gathered = feat[in_idx]
        gathered_cache.append(gathered)
        out[out_idx] += gathered @ w_taps[:, :, t].T
    if bias is not None:
        out += bias
    d_feat = np.zeros_like(feat)
    d_w = np.zeros_like(w_taps)
    for t, (in_idx, out_idx) in enumerate(taps):
        if len(in_idx) == 0:
            continue
        g_rows = g[out_idx]
        d_feat[in_idx] += g_rows @ w_taps[:, :, t]
        d_w[:, :, t] += g_rows.T @ gathered_cache[t]
    d_b = None if bias is None else g.sum(axis=0)
    return out, d_feat, d_w.reshape(weight.shape), d_b


def im2col_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                  stride: int, padding: int, g: np.ndarray):
    """2D convolution that stores its patch matrix, forward and backward.

    The (C_in*kH*kW, H_out*W_out) patch matrix is built once and serves
    the forward product and the weight gradient; the input gradient adds
    the patch gradient back tap by tap in (ky, kx) order. Returns
    (out, d_x, d_w, d_b) for the upstream gradient g; d_b is None without
    a bias.
    """
    c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride][:, :ho, :wo]
    patches = windows.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, ho * wo)
    w_mat = weight.reshape(c_out, -1)
    out = w_mat @ patches
    if bias is not None:
        out = out + bias[:, None]
    g_mat = g.reshape(c_out, -1)
    d_w = (g_mat @ patches.T).reshape(weight.shape)
    dp = (w_mat.T @ g_mat).reshape(c_in, kh, kw, ho, wo)
    d_xp = np.zeros_like(xp)
    for ky in range(kh):
        for kx in range(kw):
            d_xp[:, ky:ky + stride * ho:stride, kx:kx + stride * wo:stride] += dp[:, ky, kx]
    d_b = None if bias is None else g_mat.sum(axis=1)
    return (out.reshape(c_out, ho, wo), d_xp[:, padding:padding + h, padding:padding + w],
            d_w, d_b)


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


def _deform_point(offsets: np.ndarray, n: int, oy: int, ox: int,
                  stride: int, padding: int) -> tuple[float, float]:
    """Where tap n of output pixel (oy, ox) samples, for a square kernel."""
    ky, kx = divmod(n, math.isqrt(offsets.shape[0] // 2))
    return ((oy * stride + ky - padding) + offsets[2 * n, oy, ox],
            (ox * stride + kx - padding) + offsets[2 * n + 1, oy, ox])


def _deform_corner(y: float, x: float, cy: int, cx: int) -> tuple[int, int, float]:
    """Pixel (row, col) of corner (cy, cx) of the bilinear read at (y, x),
    and its weight wy*wx."""
    y0, x0 = math.floor(y), math.floor(x)
    wy = y - y0 if cy else 1.0 - (y - y0)
    wx = x - x0 if cx else 1.0 - (x - x0)
    return y0 + cy, x0 + cx, wy * wx


def _pixel(plane: np.ndarray, yy: int, xx: int) -> float:
    """plane[yy, xx], or 0.0 off the grid."""
    h, w = plane.shape
    return plane[yy, xx] if 0 <= yy < h and 0 <= xx < w else 0.0


_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def loop_deform_samples(x: np.ndarray, offsets: np.ndarray,
                        stride: int = 1, padding: int = 0) -> np.ndarray:
    """Sampled values of a deformable convolution, one bilinear read at a time.

    `x` is (C_in, H, W) and `offsets` is laid out as in `deform_conv2d` for a
    square kernel. Returns (C_in, kH*kW, H_out, W_out): for each channel, tap
    and output pixel, a sum that starts from 0.0 and adds value * weight of
    corners 00, 01, 10 and 11 in that order, an off-grid corner's value being
    0.0. This is the summation order `deform_conv2d` keeps.
    """
    n_taps, ho, wo = offsets.shape[0] // 2, *offsets.shape[1:]
    out = np.empty((x.shape[0], n_taps, ho, wo))
    for c, n, oy, ox in itertools.product(range(x.shape[0]), range(n_taps), range(ho), range(wo)):
        y, x_ = _deform_point(offsets, n, oy, ox, stride, padding)
        total = 0.0
        for cy, cx in _CORNERS:
            yy, xx, wgt = _deform_corner(y, x_, cy, cx)
            total += _pixel(x[c], yy, xx) * wgt
        out[c, n, oy, ox] = total
    return out


def loop_deform_offset_grad(x: np.ndarray, d_sampled: np.ndarray, offsets: np.ndarray,
                            stride: int = 1, padding: int = 0) -> np.ndarray:
    """Offset gradient of a deformable convolution, one bilinear read at a time.

    `d_sampled` is (C_in, kH*kW, H_out, W_out), the gradient of each sampled
    value. For each tap and output pixel, the y and x slopes of channel 0's
    read start the sum and channels 1, 2, ... are added in order, the order
    `deform_conv2d` keeps. Returns an array shaped like `offsets`.
    """
    _, n_taps, ho, wo = d_sampled.shape
    d_off = np.empty(offsets.shape)
    for n, oy, ox in itertools.product(range(n_taps), range(ho), range(wo)):
        y, x_ = _deform_point(offsets, n, oy, ox, stride, padding)
        wy1, wx1 = y - math.floor(y), x_ - math.floor(x_)
        wy0, wx0 = 1.0 - wy1, 1.0 - wx1
        for c in range(x.shape[0]):
            v00, v01, v10, v11 = (_pixel(x[c], *_deform_corner(y, x_, cy, cx)[:2])
                                  for cy, cx in _CORNERS)
            g = d_sampled[c, n, oy, ox]
            g_y = g * ((v10 - v00) * wx0 + (v11 - v01) * wx1)
            g_x = g * ((v01 - v00) * wy0 + (v11 - v10) * wy1)
            acc = (g_y, g_x) if c == 0 else (acc[0] + g_y, acc[1] + g_x)
        d_off[2 * n, oy, ox], d_off[2 * n + 1, oy, ox] = acc
    return d_off


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
    d_x = np.zeros(shape)
    for cy, cx in _CORNERS:
        for c, n, oy, ox in itertools.product(range(c_in), range(n_taps), range(ho), range(wo)):
            y, x_ = _deform_point(offsets, n, oy, ox, stride, padding)
            yy, xx, wgt = _deform_corner(y, x_, cy, cx)
            if 0 <= yy < h and 0 <= xx < w:
                d_x[c, yy, xx] += d_sampled[c, n, oy, ox] * wgt
    return d_x


def loop_deform_conv2d(x: np.ndarray, weight: np.ndarray, offsets: np.ndarray,
                       bias: np.ndarray | None, stride: int, padding: int, g: np.ndarray):
    """Deformable convolution forward and backward from the loop oracles.

    The samples come from `loop_deform_samples`; the output, the weight and
    bias gradients and the sample gradient are the products over them that
    `deform_conv2d` forms, and the input and offset gradients come from
    `loop_deform_input_grad` and `loop_deform_offset_grad`. Returns
    (out, d_x, d_w, d_off, d_b); d_b is None without a bias.
    """
    c_out, c_in, kh, kw = weight.shape
    ho, wo = offsets.shape[1:]
    s_mat = loop_deform_samples(x, offsets, stride, padding).reshape(c_in * kh * kw, ho * wo)
    w_mat = weight.reshape(c_out, -1)
    out = w_mat @ s_mat
    if bias is not None:
        out = out + bias[:, None]
    g_mat = g.reshape(c_out, -1)
    d_w = (g_mat @ s_mat.T).reshape(weight.shape)
    d_sampled = (w_mat.T @ g_mat).reshape(c_in, kh * kw, ho, wo)
    d_x = loop_deform_input_grad(d_sampled, offsets, x.shape, stride, padding)
    d_off = loop_deform_offset_grad(x, d_sampled, offsets, stride, padding)
    d_b = None if bias is None else g_mat.sum(axis=1)
    return out.reshape(c_out, ho, wo), d_x, d_w, d_off, d_b


def whole_deform_conv2d(x: np.ndarray, weight: np.ndarray, offsets: np.ndarray,
                        bias: np.ndarray | None, stride: int, padding: int, g: np.ndarray):
    """Deformable convolution that builds its whole sample matrix, forward and backward.

    The loop oracles' formulas, evaluated for every channel, tap and output
    pixel at once: each sample starts from 0.0 and adds value * weight of
    corners 00, 01, 10 and 11; the whole (C_in*kH*kW, H_out*W_out) sample
    matrix serves the output and the weight gradient; the input gradient
    adds corner by corner and, within a corner, in (tap, pixel) order; the
    offset gradient adds channel by channel. Returns (out, d_x, d_w, d_off,
    d_b) for the upstream gradient g; d_b is None without a bias.
    """
    c_out, c_in, kh, kw = weight.shape
    h, w = x.shape[1:]
    ho, wo = offsets.shape[1:]
    ky, kx = np.divmod(np.arange(kh * kw), kw)
    oy, ox = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    y = (oy * stride + ky[:, None, None] - padding) + offsets[0::2]
    x_ = (ox * stride + kx[:, None, None] - padding) + offsets[1::2]
    y0, x0 = np.floor(y), np.floor(x_)
    wy1, wx1 = y - y0, x_ - x0
    wy0, wx0 = 1.0 - wy1, 1.0 - wx1
    corners = []  # (rows, cols, on grid, weight), each (taps, H_out, W_out)
    for cy, cx in _CORNERS:
        yy, xx = y0.astype(np.int64) + cy, x0.astype(np.int64) + cx
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        corners.append((np.where(inside, yy, 0), np.where(inside, xx, 0), inside,
                        (wy1 if cy else wy0) * (wx1 if cx else wx0)))
    values = [np.where(inside, x[:, yy, xx], 0.0) for yy, xx, inside, _ in corners]
    samples = np.zeros((c_in, kh * kw, ho, wo))
    for v, (_, _, _, wgt) in zip(values, corners):
        samples = samples + v * wgt
    s_mat = samples.reshape(c_in * kh * kw, ho * wo)
    w_mat = weight.reshape(c_out, -1)
    out = w_mat @ s_mat
    if bias is not None:
        out = out + bias[:, None]
    g_mat = g.reshape(c_out, -1)
    d_w = (g_mat @ s_mat.T).reshape(weight.shape)
    d_s = (w_mat.T @ g_mat).reshape(samples.shape)
    d_x = np.zeros(x.shape)
    for yy, xx, inside, wgt in corners:
        for c in range(c_in):
            np.add.at(d_x[c], (yy[inside], xx[inside]), (d_s[c] * wgt)[inside])
    v00, v01, v10, v11 = values
    g_y = d_s * ((v10 - v00) * wx0 + (v11 - v01) * wx1)
    g_x = d_s * ((v01 - v00) * wy0 + (v11 - v10) * wy1)
    acc_y, acc_x = g_y[0], g_x[0]
    for c in range(1, c_in):
        acc_y, acc_x = acc_y + g_y[c], acc_x + g_x[c]
    d_off = np.empty(offsets.shape)
    d_off[0::2], d_off[1::2] = acc_y, acc_x
    d_b = None if bias is None else g_mat.sum(axis=1)
    return out.reshape(c_out, ho, wo), d_x, d_w, d_off, d_b


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


# --- the one-box-against-many IoU kernel and the per-box NMS loop that the
# pair kernel and the blocked NMS replaced; the package must match their bits

_NEXT_CORNER = np.array([1, 2, 3, 0])
_NEXT_POINT = np.roll(np.arange(24), -1)


def _corners_rows(rows: np.ndarray) -> np.ndarray:
    c, s = np.cos(rows[:, 6:7]), np.sin(rows[:, 6:7])
    hl = rows[:, 3:4] / 2 * np.array([1.0, -1.0, -1.0, 1.0])
    hw = rows[:, 4:5] / 2 * np.array([1.0, 1.0, -1.0, -1.0])
    return np.stack([rows[:, 0:1] + hl * c - hw * s,
                     rows[:, 1:2] + hl * s + hw * c], axis=-1)


def _inside(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    c, s = np.cos(rows[:, 6:7]), np.sin(rows[:, 6:7])
    dx = points[..., 0] - rows[:, 0:1]
    dy = points[..., 1] - rows[:, 1:2]
    return ((np.abs(dx * c + dy * s) <= rows[:, 3:4] / 2 + 1e-9)
            & (np.abs(dy * c - dx * s) <= rows[:, 4:5] / 2 + 1e-9))


def one_to_many_area(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """BEV overlap of one (7,) row with each of (M, 7) rows, in a frame
    centred on `box`, behind a circumcircle gate: the 24-point clip."""
    area = np.zeros(len(boxes))
    reach = (math.hypot(box[3], box[4]) + np.hypot(boxes[:, 3], boxes[:, 4])) / 2
    near = np.flatnonzero((boxes[:, 0] - box[0]) ** 2 + (boxes[:, 1] - box[1]) ** 2
                          <= reach * reach)
    if not len(near):
        return area
    a = np.concatenate([[0.0, 0.0], box[2:]])[None]
    b = boxes[near]
    b[:, :2] -= box[:2]
    ca, cb = _corners_rows(a), _corners_rows(b)
    ca_all = np.broadcast_to(ca, cb.shape)
    p, r = ca[:, :, None], (ca[:, _NEXT_CORNER] - ca)[:, :, None]
    q, s = cb[:, None], (cb[:, _NEXT_CORNER] - cb)[:, None]
    cross = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    lengths = np.hypot(r[..., 0], r[..., 1]) * np.hypot(s[..., 0], s[..., 1])
    parallel = np.abs(cross) <= 1e-12 * lengths
    denom = np.where(parallel, 1.0, cross)
    qp = q - p
    t = (qp[..., 0] * s[..., 1] - qp[..., 1] * s[..., 0]) / denom
    u = (qp[..., 0] * r[..., 1] - qp[..., 1] * r[..., 0]) / denom
    hits = ~parallel & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    crossings = p + t[..., None] * r
    points = np.concatenate([ca_all, cb, crossings.reshape(len(b), 16, 2)], axis=1)
    mask = np.concatenate([_inside(ca_all, b), _inside(cb, a), hits.reshape(len(b), 16)],
                          axis=1)
    points = np.where(mask[..., None], points, 0.0)
    count = np.maximum(mask.sum(axis=1), 1)
    centroid = points.sum(axis=1) / count[:, None]
    rel = points - centroid[:, None]
    angle = np.where(mask, np.arctan2(rel[..., 1], rel[..., 0]), 4.0)
    pair = np.arange(len(b))[:, None]
    order = np.argsort(angle, axis=1, kind="stable")
    poly = np.where(mask[pair, order, None], rel[pair, order], rel[pair, order[:, :1]])
    x, y = poly[..., 0], poly[..., 1]
    shoelace = 0.5 * np.abs((x * y[:, _NEXT_POINT] - x[:, _NEXT_POINT] * y).sum(axis=1))
    area[near] = np.minimum(shoelace, np.minimum(box[3] * box[4], b[:, 3] * b[:, 4]))
    return area


def one_to_many_iou_bev(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    inter = one_to_many_area(box, boxes)
    return inter / (box[3] * box[4] + boxes[:, 3] * boxes[:, 4] - inter)


def one_to_many_iou_3d(box: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    z_lo = np.maximum(box[2] - box[5] / 2, boxes[:, 2] - boxes[:, 5] / 2)
    z_hi = np.minimum(box[2] + box[5] / 2, boxes[:, 2] + boxes[:, 5] / 2)
    inter = one_to_many_area(box, boxes) * np.maximum(z_hi - z_lo, 0.0)
    return inter / (box[3] * box[4] * box[5] + boxes[:, 3] * boxes[:, 4] * boxes[:, 5] - inter)


def per_box_nms(boxes: np.ndarray, scores, iou_threshold: float) -> np.ndarray:
    """Greedy NMS one kept box at a time: each kept box suppresses, in one
    one_to_many_iou_bev call, every later live box."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 7)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    rows = boxes[order]
    alive = np.ones(len(order), dtype=bool)
    kept: list[int] = []
    for rank in range(len(order)):
        if not alive[rank]:
            continue
        kept.append(int(order[rank]))
        later = rank + 1 + np.flatnonzero(alive[rank + 1:])
        alive[later[one_to_many_iou_bev(rows[rank], rows[later]) > iou_threshold]] = False
    return np.asarray(kept, dtype=np.int64)


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


def allocating_adam_step(data: dict, grads: dict, m: dict, v: dict, t: int, lr: float,
                         beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam step as whole-array expressions, each allocating its result.

    Takes name -> array dicts (a None gradient steps as zeros) and the step
    count t after incrementing; returns the new (data, m, v) dicts.
    """
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    new_data, new_m, new_v = {}, {}, {}
    for name in sorted(data):
        g = grads[name] if grads[name] is not None else np.zeros_like(data[name])
        new_m[name] = beta1 * m[name] + (1 - beta1) * g
        new_v[name] = beta2 * v[name] + (1 - beta2) * g * g
        m_hat = new_m[name] / bias1
        v_hat = new_v[name] / bias2
        new_data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_data, new_m, new_v
