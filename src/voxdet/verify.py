"""Verification suites behind `voxdet gradcheck` and `voxdet selftest`.

`gradient_check` compares one function's tape gradients with central
finite differences, and `run_gradient_suite` runs it on every
differentiable building block. `run_selftest` replays the oracle-equivalence
suites (dense convolution, codec roundtrip, Monte-Carlo IoU, reweighting
properties, brute-force model matching) and returns one result per suite.

The two oracles here, `dense_conv3d` and `mc_iou_bev`, are also the
references the test suite checks the package against, so they share no
code with what they check: plain dense loops and point sampling, with
their own box corner and point-in-rectangle formulas.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import adaptation, conceptual, engine
from .detection_head import (
    CONVENTION_LINEAGE,
    CONVENTION_PRINTED,
    TargetAssignment,
    decode_rows,
    encode_rows,
    focal_loss,
    smooth_l1_loss,
)
from .engine import Tape, Tensor
from .geometry import (
    Box3D,
    PointCloud,
    avg_closest_point_distance,
    points_in_box,
    rotated_iou_bev,
)
from .sparse_conv import STRIDED, SUBMANIFOLD, build_rulebook, sparse_conv_forward
from .synthetic import SceneRecipe, synth_scene

GRAD_TOL = 1e-5


# ---------------------------------------------------------------------------
# gradient suite

def gradient_check(f: Callable[..., Tensor], inputs: Sequence[Tensor],
                   eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    Relative error divides by max(1, |analytic|, |numeric|) so tiny gradients
    are compared absolutely.
    """
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = f(*inputs)
        if out.data.size != 1:
            raise ValueError("gradient_check needs a scalar-valued function")
        tape.backward(out)
    if not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite forward value")
    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.isfinite(analytic).all():
            raise FloatingPointError("non-finite analytic gradient")
        flat = t.data.reshape(-1)
        a_flat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f(*inputs).data.item()
            flat[i] = orig - eps
            fm = f(*inputs).data.item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            if not np.isfinite(numeric):
                raise FloatingPointError("non-finite numeric gradient")
            denom = max(1.0, abs(a_flat[i]), abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def _scalarize(t: Tensor, coeff: np.ndarray) -> Tensor:
    # random fixed projection so sign errors cannot cancel inside a plain sum
    return engine.tsum(engine.mul(t, Tensor(coeff)))


def run_gradient_suite(seed: int = 0) -> dict[str, float]:
    """Max relative finite-difference error for each differentiable block."""
    rng = np.random.default_rng(seed)
    errs: dict[str, float] = {}

    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=5) * 0.1, requires_grad=True)
    c = rng.normal(size=(3, 5))
    errs["linear"] = gradient_check(
        lambda x, w, b: _scalarize(engine.linear(x, w, b), c), [x, w, b])

    x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.4, requires_grad=True)
    b = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    c = rng.normal(size=(2, 4, 6))
    errs["conv2d"] = gradient_check(
        lambda x, w, b: _scalarize(engine.conv2d(x, w, b), c), [x, w, b])

    x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.4, requires_grad=True)
    off = Tensor(rng.normal(size=(18, 4, 4)) * 0.3, requires_grad=True)
    b = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    c = rng.normal(size=(2, 4, 4))
    errs["deform_conv2d"] = gradient_check(
        lambda x, w, off, b: _scalarize(
            engine.deform_conv2d(x, w, off, b), c), [x, w, off, b])

    shape = (5, 5, 4)
    flat = rng.choice(np.prod(shape), size=12, replace=False)
    coords = np.column_stack(np.unravel_index(flat, shape)).astype(np.int64)
    feats = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(3, 2, 3, 3, 3)) * 0.3, requires_grad=True)
    b1 = Tensor(rng.normal(size=3) * 0.1, requires_grad=True)
    rb1 = build_rulebook(coords, shape, (3, 3, 3), mode=SUBMANIFOLD)
    rb2 = build_rulebook(coords, shape, (3, 3, 3), stride=2, mode=STRIDED)
    w2 = Tensor(rng.normal(size=(2, 3, 3, 3, 3)) * 0.3, requires_grad=True)
    c = rng.normal(size=(len(rb2.out_coords), 2))
    errs["sparse_conv"] = gradient_check(
        lambda f, w1, b1, w2: _scalarize(sparse_conv_forward(
            sparse_conv_forward(f, w1, b1, rb1), w2, Tensor(np.zeros(2)), rb2), c),
        [feats, w1, b1, w2])

    labels = np.array([1, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0, 1])
    logits = Tensor(rng.normal(size=12), requires_grad=True)
    errs["focal_loss"] = gradient_check(
        lambda z: focal_loss(z, labels), [logits])

    deltas = rng.normal(size=(12, 7))
    deltas[labels != 1] = 0.0
    matched = np.where(labels == 1, 0, -1).astype(np.int64)
    assignment = TargetAssignment(labels, matched, deltas)
    pred = Tensor(rng.normal(size=(12, 7)), requires_grad=True)
    errs["smooth_l1"] = gradient_check(
        lambda p: smooth_l1_loss(p, assignment), [pred])

    fg = (rng.uniform(size=(4, 4)) < 0.5).astype(np.float64)
    fg[0, 0] = 1.0
    values = rng.uniform(size=(4, 4)) * fg
    values /= values.max()
    rw = adaptation.ReweightingMap(values, fg)
    f_p = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    f_c = Tensor(rng.normal(size=(3, 4, 4)))
    errs["association_loss"] = gradient_check(
        lambda fp: adaptation.association_loss(fp, f_c, rw), [f_p])
    return {name: float(err) for name, err in errs.items()}


# ---------------------------------------------------------------------------
# oracle suites

def dense_conv3d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 stride, padding) -> np.ndarray:
    """Plain dense 3-d cross-correlation of a (C, D0, D1, D2) volume.

    The ground truth for sparse convolution.
    """
    c_out, _, kx, ky, kz = w.shape
    _, nx, ny, nz = x.shape
    sx, sy, sz = stride
    px, py, pz = padding
    xp = np.pad(x, ((0, 0), (px, px), (py, py), (pz, pz)))
    ox = (nx + 2 * px - kx) // sx + 1
    oy = (ny + 2 * py - ky) // sy + 1
    oz = (nz + 2 * pz - kz) // sz + 1
    out = np.zeros((c_out, ox, oy, oz))
    for dx in range(kx):
        for dy in range(ky):
            for dz in range(kz):
                block = xp[:, dx:dx + ox * sx:sx, dy:dy + oy * sy:sy,
                           dz:dz + oz * sz:sz]
                out += np.einsum("oi,ixyz->oxyz", w[:, :, dx, dy, dz], block)
    if b is not None:
        out += b.reshape(-1, 1, 1, 1)
    return out


def run_sparse_oracle(n_cases: int = 200, seed: int = 0) -> float:
    """Random sparse convolutions vs the dense reference; max abs deviation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(n_cases):
        shape = tuple(int(v) for v in rng.integers(3, 8, size=3))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n_active = int(rng.integers(1, min(11, np.prod(shape) + 1)))
        flat = rng.choice(np.prod(shape), size=n_active, replace=False)
        coords = np.column_stack(np.unravel_index(flat, shape)).astype(np.int64)
        mode = SUBMANIFOLD if case % 2 == 0 else STRIDED
        if mode == SUBMANIFOLD:
            kernel = tuple(int(v) for v in rng.choice([1, 3], size=3))
            stride = (1, 1, 1)
            padding = tuple(k // 2 for k in kernel)
        else:
            kernel = tuple(int(v) for v in rng.integers(1, 4, size=3))
            stride = tuple(int(v) for v in rng.integers(1, 4, size=3))
            padding = tuple(int(rng.integers(0, k + 1)) for k in kernel)
        weight = rng.normal(size=(c_out, c_in, *kernel))
        bias = rng.normal(size=c_out) if case % 3 else np.zeros(c_out)
        feats = rng.normal(size=(n_active, c_in))
        rb = build_rulebook(coords, shape, kernel, stride=stride, mode=mode,
                            padding=padding)
        got = sparse_conv_forward(Tensor(feats), Tensor(weight), Tensor(bias), rb)
        dense = np.zeros((c_in, *shape))
        dense[:, coords[:, 0], coords[:, 1], coords[:, 2]] = feats.T
        want = dense_conv3d(dense, weight, bias, stride, padding)
        oc = rb.out_coords
        ref = want[:, oc[:, 0], oc[:, 1], oc[:, 2]].T
        if len(oc):
            worst = max(worst, float(np.abs(got.data - ref).max()))
    return worst


def run_codec_roundtrip(n_pairs: int = 10000, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    rows = np.array([Box3D(*rng.uniform(-40, 40, size=3), *rng.uniform(0.5, 5.0, size=3),
                           rng.uniform(-math.pi, math.pi) * 0.999).as_array()
                     for _ in range(2 * n_pairs)]).reshape(-1, 7)
    anchors, gts = rows[0::2], rows[1::2]  # each anchor is drawn just before its box
    worst = 0.0
    for convention in (CONVENTION_PRINTED, CONVENTION_LINEAGE):
        back = decode_rows(anchors, encode_rows(anchors, gts, convention), convention)
        worst = max(worst, float(np.abs(gts - back).max(initial=0.0)))
    return worst


def _corners_bev(box: Box3D) -> np.ndarray:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    r = np.array([[c, -s], [s, c]])
    half = np.array([[box.l / 2, box.w / 2], [-box.l / 2, box.w / 2],
                     [-box.l / 2, -box.w / 2], [box.l / 2, -box.w / 2]])
    return half @ r.T + np.array([box.cx, box.cy])


def _points_in_bev_rect(px: np.ndarray, py: np.ndarray, box: Box3D) -> np.ndarray:
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * (px - box.cx) - s * (py - box.cy)
    ly = s * (px - box.cx) + c * (py - box.cy)
    return (np.abs(lx) <= box.l / 2) & (np.abs(ly) <= box.w / 2)


def mc_iou_bev(a: Box3D, b: Box3D, n_samples: int, seed: int) -> float:
    """Monte-Carlo IoU over the union's bounding rectangle."""
    corners = np.vstack([_corners_bev(a), _corners_bev(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)
    px = rng.uniform(lo[0], hi[0], n_samples)
    py = rng.uniform(lo[1], hi[1], n_samples)
    in_a = _points_in_bev_rect(px, py, a)
    in_b = _points_in_bev_rect(px, py, b)
    union = (in_a | in_b).sum()
    return float((in_a & in_b).sum() / union) if union else 0.0


def _random_box(rng, span=6.0) -> Box3D:
    return Box3D(rng.uniform(-span, span), rng.uniform(-span, span), 0.0,
                 rng.uniform(0.8, 5.0), rng.uniform(0.8, 5.0), 1.0,
                 rng.uniform(-math.pi, math.pi))


def _suite_iou(rng) -> tuple[bool, str]:
    box = _random_box(rng)
    if abs(rotated_iou_bev(box, box) - 1.0) > 1e-9:
        return False, "self IoU != 1"
    far = Box3D(box.cx + 100.0, box.cy, 0.0, 1.0, 1.0, 1.0, 0.3)
    if rotated_iou_bev(box, far) != 0.0:
        return False, "disjoint IoU != 0"
    a = Box3D(0, 0, 0, 3.9, 1.6, 1, 0.3)
    if rotated_iou_bev(a, Box3D(-1.6 * math.sin(0.3), 1.6 * math.cos(0.3), 0, 3.9, 1.6, 1, 0.3)):
        return False, "shared-edge IoU != 0"
    a = Box3D(0, 0, 0, 2, 2, 1, 0.0)
    b = Box3D(1.0, 0, 0, 2, 2, 1, 0.0)
    if abs(rotated_iou_bev(a, b) - 1.0 / 3.0) > 1e-9:
        return False, "half-overlap square IoU != 1/3"
    dev = 0.0
    for i in range(20):
        a, b = _random_box(rng), _random_box(rng)
        dev = max(dev, abs(rotated_iou_bev(a, b) - mc_iou_bev(a, b, 200000, i)))
    return dev < 2e-2, f"max_mc_dev {dev!r}"


def _suite_reweighting(rng) -> tuple[bool, str]:
    for _ in range(100):
        h, w = rng.integers(2, 9, size=2)
        fg = (rng.uniform(size=(h, w)) < 0.4).astype(np.float64)
        offsets = rng.normal(size=(2 * 9, h, w))
        rw = adaptation.reweighting_map(adaptation.offset_length_map(offsets), fg)
        if (rw.values > 0).any() and rw.values.max() != 1.0:
            return False, "nonzero map not max-normalized"
    return True, "cases 100"


def _suite_matcher(seed: int = 0) -> tuple[bool, str]:
    scenes = [synth_scene(SceneRecipe(n_cars=3, base_points=160), [seed, i])
              for i in range(3)]
    bank = conceptual.build_instance_bank(scenes, m_bins=24, k_percent=20.0)
    checked = 0
    for cloud, boxes in scenes:
        for box in boxes:
            crop = PointCloud(cloud.data[points_in_box(cloud, box)])
            got = conceptual.match_candidate(crop, box, bank)
            ids = bank.candidate_ids_for_bin(
                conceptual.bin_index(box.yaw, bank.m_bins))
            if len(crop) == 0:
                want_id, want_d = ids[0], math.inf
            else:
                local = conceptual.to_canonical(crop, box)
                dists = [avg_closest_point_distance(local, bank.instances[i].local_points)
                         for i in ids]
                best = int(np.argmin(dists))
                want_id, want_d = ids[best], dists[best]
            if got.candidate_id != want_id or got.distance != want_d:
                return False, f"mismatch on a box with {len(crop)} points"
            checked += 1
    for cloud, boxes in scenes:
        composed, matches = conceptual.compose_conceptual_scene(cloud, list(boxes), bank)
        for box, m in zip(boxes, matches):
            got = {tuple(r) for r in
                   np.round(composed.data[points_in_box(composed, box)], 9)}
            want = {tuple(r) for r in np.round(m.model_points.data, 9)}
            if got != want:  # nothing of the original may outlive the swap
                return False, "composed box content differs from the placed model"
    return True, f"objects {checked}"


def run_selftest(seed: int = 0) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    results = []
    err = run_sparse_oracle(200, seed)
    results.append(("sparse_conv_oracle", err < 1e-12, f"max_abs_err {err!r}"))
    err = run_codec_roundtrip(10000, seed)
    results.append(("codec_roundtrip", err < 1e-9, f"max_err {err!r}"))
    ok, detail = _suite_iou(rng)
    results.append(("rotated_iou", ok, detail))
    ok, detail = _suite_reweighting(rng)
    results.append(("reweighting", ok, detail))
    ok, detail = _suite_matcher(seed)
    results.append(("conceptual_matcher", ok, detail))
    return results
