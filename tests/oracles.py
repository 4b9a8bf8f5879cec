"""Independent reference implementations used to check the package.

Everything here is deliberately naive: double loops, Monte Carlo sampling,
dense arrays. Slow but obviously correct, so the fast code in the package
can be validated against it. The dense conv3d and Monte-Carlo IoU oracles
live in `voxdet.verify`, which `voxdet selftest` runs too, and are
re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

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
