"""Command line front end: data prep, training phases, eval, rendering.

Also home to the verification subcommands. `gradcheck` compares every
differentiable building block against central finite differences;
`selftest` replays the oracle-equivalence suites (dense convolution,
codec roundtrip, Monte-Carlo IoU, reweighting properties, brute-force
model matching) and reports one line per suite.

Exit codes: 0 success, 2 usage, 3 missing file, 4 failed validation.
"""
from __future__ import annotations

import os


def _apply_thread_env() -> str | None:
    """Propagate VOXDET_THREADS to the BLAS pools before numpy loads."""
    raw = os.environ.get("VOXDET_THREADS")
    if raw is not None and raw.isdigit() and int(raw) >= 1:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, raw)
    return raw


_RAW_THREADS = _apply_thread_env()

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import adaptation, conceptual, engine
from .config import RunConfig, default_run_config, dumps_config, load_config
from .detection_head import (
    CONVENTION_LINEAGE,
    CONVENTION_PRINTED,
    TargetAssignment,
    decode_box,
    encode_box,
    focal_loss,
    smooth_l1_loss,
)
from .engine import Tensor, gradient_check
from .evaluation import decode_detections, evaluate, format_report, run_branch
from .geometry import (
    Box3D,
    PointCloud,
    avg_closest_point_distance,
    box_corners_bev,
    points_in_box,
    rotated_iou_bev,
)
from .kitti_io import list_scene_dirs, read_scene_dir, write_scene_dir
from .network import SPATIAL_DOWNSAMPLE
from .render import render_scene, write_ppm
from .sparse_conv import STRIDED, SUBMANIFOLD, build_rulebook, sparse_conv_forward
from .synthetic import SceneRecipe, make_dataset
from .trainer import ScenePair, format_loss_log, train_associate, train_cfg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_VALIDATION = 4

GRAD_TOL = 1e-5


# ---------------------------------------------------------------------------
# gradient suite

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

    x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.4, requires_grad=True)
    b = Tensor(rng.normal(size=3) * 0.1, requires_grad=True)
    c = rng.normal(size=(3, 3, 3))
    errs["conv2d"] = gradient_check(
        lambda x, w, b: _scalarize(engine.conv2d(x, w, b, stride=2, padding=1), c),
        [x, w, b])

    x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.4, requires_grad=True)
    off = Tensor(rng.normal(size=(18, 4, 4)) * 0.3, requires_grad=True)
    b = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    c = rng.normal(size=(2, 4, 4))
    errs["deform_conv2d"] = gradient_check(
        lambda x, w, off, b: _scalarize(
            engine.deform_conv2d(x, w, off, b, padding=1), c), [x, w, off, b])

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
            sparse_conv_forward(f, w1, b1, rb1), w2, None, rb2), c),
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

def dense_conv3d_reference(coords: np.ndarray, feats: np.ndarray,
                           shape, weight: np.ndarray, bias,
                           stride, padding) -> np.ndarray:
    """Plain dense 3-d cross-correlation; the ground truth for sparse conv."""
    c_in = feats.shape[1]
    c_out, _, kx, ky, kz = weight.shape
    nx, ny, nz = shape
    sx, sy, sz = stride
    px, py, pz = padding
    dense = np.zeros((c_in, nx, ny, nz))
    dense[:, coords[:, 0], coords[:, 1], coords[:, 2]] = feats.T
    xp = np.pad(dense, ((0, 0), (px, px), (py, py), (pz, pz)))
    ox = (nx + 2 * px - kx) // sx + 1
    oy = (ny + 2 * py - ky) // sy + 1
    oz = (nz + 2 * pz - kz) // sz + 1
    out = np.zeros((c_out, ox, oy, oz))
    for dx in range(kx):
        for dy in range(ky):
            for dz in range(kz):
                block = xp[:, dx:dx + ox * sx:sx, dy:dy + oy * sy:sy,
                           dz:dz + oz * sz:sz]
                out += np.einsum("oi,ixyz->oxyz", weight[:, :, dx, dy, dz], block)
    if bias is not None:
        out += bias.reshape(-1, 1, 1, 1)
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
        bias = rng.normal(size=c_out) if case % 3 else None
        feats = rng.normal(size=(n_active, c_in))
        rb = build_rulebook(coords, shape, kernel, stride=stride, mode=mode,
                            padding=padding)
        got = sparse_conv_forward(Tensor(feats), Tensor(weight),
                                  Tensor(bias) if bias is not None else None, rb)
        want = dense_conv3d_reference(coords, feats, shape, weight, bias,
                                      stride, padding)
        oc = rb.out_coords
        ref = want[:, oc[:, 0], oc[:, 1], oc[:, 2]].T
        if len(oc):
            worst = max(worst, float(np.abs(got.data - ref).max()))
    return worst


def run_codec_roundtrip(n_pairs: int = 10000, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        anchor = Box3D(*rng.uniform(-40, 40, size=3), *rng.uniform(0.5, 5.0, size=3),
                       rng.uniform(-math.pi, math.pi) * 0.999)
        gt = Box3D(*rng.uniform(-40, 40, size=3), *rng.uniform(0.5, 5.0, size=3),
                   rng.uniform(-math.pi, math.pi) * 0.999)
        for convention in (CONVENTION_PRINTED, CONVENTION_LINEAGE):
            back = decode_box(anchor, encode_box(anchor, gt, convention), convention)
            for a, bb in zip(gt.as_array(), back.as_array()):
                worst = max(worst, abs(float(a) - float(bb)))
    return worst


def _points_in_bev_rect(px: np.ndarray, py: np.ndarray, box: Box3D) -> np.ndarray:
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * (px - box.cx) - s * (py - box.cy)
    ly = s * (px - box.cx) + c * (py - box.cy)
    return (np.abs(lx) <= box.l / 2) & (np.abs(ly) <= box.w / 2)


def mc_iou_bev(a: Box3D, b: Box3D, n_samples: int, seed: int) -> float:
    """Monte-Carlo IoU over the union's bounding rectangle."""
    corners = np.vstack([box_corners_bev(a), box_corners_bev(b)])
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
        if ((rw.values > 0) & (fg == 0)).any():
            return False, "support escapes the foreground"
        if rw.values.min() < 0.0 or rw.values.max() > 1.0:
            return False, "values leave [0, 1]"
        if (rw.values > 0).any() and rw.values.max() != 1.0:
            return False, "nonzero map not max-normalized"
    return True, "cases 100"


def _suite_matcher(seed: int = 0) -> tuple[bool, str]:
    scenes = [conceptual_scene_inputs(seed, i) for i in range(3)]
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


def conceptual_scene_inputs(seed: int, idx: int):
    from .synthetic import synth_scene
    return synth_scene(SceneRecipe(n_cars=3, base_points=160), [seed, idx])


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


# ---------------------------------------------------------------------------
# dataset plumbing

def _load_dataset(root) -> list[tuple[str, PointCloud, list[Box3D]]]:
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset directory not found: {root}")
    dirs = list_scene_dirs(root)
    if not dirs:
        raise ValueError(f"no scenes under {root}")
    out = []
    for d in dirs:
        cloud, boxes = read_scene_dir(d)
        out.append((os.path.basename(d), cloud, boxes))
    return out


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, data=replace(cfg.data, out=args.out))
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def _cmd_make_data(args) -> int:
    recipe = SceneRecipe(n_cars=args.cars, base_points=args.base_points,
                         occlusion=args.occlusion)
    paths = make_dataset(args.out, args.scenes, args.seed or 0, recipe)
    print(f"wrote {len(paths)} scenes to {args.out}")
    return EXIT_OK


def _cmd_build_conceptual(args) -> int:
    cfg = _resolve_config(args)
    scenes = _load_dataset(cfg.data.scenes)
    bank = conceptual.build_instance_bank(
        [(c, b) for _, c, b in scenes], m_bins=cfg.conceptual.m_bins,
        k_percent=cfg.conceptual.k_percent, min_points=cfg.conceptual.min_points)
    os.makedirs(cfg.data.conceptual, exist_ok=True)
    lines = ["scene objects fallbacks mean_distance"]
    for name, cloud, boxes in scenes:
        composed, matches = conceptual.compose_conceptual_scene(cloud, boxes, bank)
        write_scene_dir(os.path.join(cfg.data.conceptual, name), composed, boxes)
        finite = [m.distance for m in matches if math.isfinite(m.distance)]
        mean_d = float(np.mean(finite)) if finite else 0.0
        fallbacks = sum(1 for m in matches if not math.isfinite(m.distance))
        lines.append(f"{name} {len(matches)} {fallbacks} {mean_d!r}")
    report = "\n".join(lines) + "\n"
    with open(os.path.join(cfg.data.conceptual, "report.txt"), "w") as fh:
        fh.write(report)
    print(report, end="")
    return EXIT_OK


def _cmd_train_cfg(args) -> int:
    cfg = _resolve_config(args)
    scenes = [(c, b) for _, c, b in _load_dataset(cfg.data.conceptual)]
    os.makedirs(cfg.data.out, exist_ok=True)
    params, log = train_cfg(scenes, cfg.network, cfg.train,
                            checkpoint_dir=cfg.data.out
                            if cfg.train.checkpoint_every else None,
                            anchors=cfg.anchors)
    engine.save_checkpoint(os.path.join(cfg.data.out, "cfg.ckpt"), params)
    with open(os.path.join(cfg.data.out, "cfg_log.txt"), "w") as fh:
        fh.write(format_loss_log(log))
    last = log[-1]
    print(f"trained reference branch: {len(log)} epochs, "
          f"final total {float(last.total)!r}")
    return EXIT_OK


def _load_pairs(cfg: RunConfig) -> list[ScenePair]:
    real = _load_dataset(cfg.data.scenes)
    composed = {name: (c, b) for name, c, b in _load_dataset(cfg.data.conceptual)}
    pairs = []
    for name, cloud, boxes in real:
        if name not in composed:
            raise ValueError(f"no composed twin for scene {name}; "
                             "run build-conceptual first")
        pairs.append(ScenePair(cloud, composed[name][0], tuple(boxes)))
    return pairs


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ckpt = args.cfg_checkpoint or os.path.join(cfg.data.out, "cfg.ckpt")
    if not os.path.isfile(ckpt):
        raise FileNotFoundError(f"reference checkpoint not found: {ckpt}")
    cfg_params = {k: Tensor(v) for k, v in engine.load_checkpoint(ckpt).items()}
    pairs = _load_pairs(cfg)
    os.makedirs(cfg.data.out, exist_ok=True)
    params, log = train_associate(pairs, cfg_params, cfg.network, cfg.train,
                                  checkpoint_dir=cfg.data.out
                                  if cfg.train.checkpoint_every else None,
                                  anchors=cfg.anchors)
    engine.save_checkpoint(os.path.join(cfg.data.out, "pfe.ckpt"), params)
    with open(os.path.join(cfg.data.out, "train_log.txt"), "w") as fh:
        fh.write(format_loss_log(log))
    last = log[-1]
    print(f"trained live branch: {len(log)} epochs, "
          f"final total {float(last.total)!r}, final assoc {float(last.assoc)!r}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    ckpt = args.checkpoint or os.path.join(cfg.data.out, "pfe.ckpt")
    if not os.path.isfile(ckpt):
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    params = engine.load_checkpoint(ckpt)
    root = cfg.data.conceptual if args.dataset == "conceptual" else cfg.data.scenes
    scenes = [(c, b) for _, c, b in _load_dataset(root)]
    report = evaluate(params, scenes, cfg.network, cfg.eval.iou_threshold,
                      cfg.eval.interpolation, cfg.eval.metric,
                      cfg.eval.score_threshold, cfg.eval.nms_iou, cfg.train.codec,
                      anchors=cfg.anchors)
    text = format_report(report)
    os.makedirs(cfg.data.out, exist_ok=True)
    with open(os.path.join(cfg.data.out, f"eval_{args.dataset}.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def _cmd_render_bev(args) -> int:
    cfg = _resolve_config(args)
    root = cfg.data.conceptual if args.dataset == "conceptual" else cfg.data.scenes
    scenes = _load_dataset(root)
    if args.scene is not None:
        if not (0 <= args.scene < len(scenes)):
            raise ValueError(f"scene index {args.scene} out of range "
                             f"(dataset has {len(scenes)})")
        scenes = [scenes[args.scene]]
    params = None
    if args.checkpoint:
        if not os.path.isfile(args.checkpoint):
            raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
        params = engine.load_checkpoint(args.checkpoint)
    anchors = cfg.anchors.generate(cfg.network.bev_shape, cfg.grid)
    os.makedirs(cfg.data.out, exist_ok=True)
    for name, cloud, boxes in scenes:
        preds, weights = [], None
        if params is not None:
            out = run_branch(params, cloud, cfg.network)
            preds, _ = decode_detections(out, anchors, cfg.eval.score_threshold,
                                         cfg.eval.nms_iou, cfg.train.codec)
            if out.offsets is not None:
                fg = adaptation.foreground_mask(boxes, cloud, cfg.grid,
                                                SPATIAL_DOWNSAMPLE)
                weights = adaptation.reweighting_map(
                    adaptation.offset_length_map(out.offsets), fg).values
        img = render_scene(cloud, boxes, preds, cfg.grid, args.scale, weights)
        path = os.path.join(cfg.data.out, f"bev_{name}.ppm")
        write_ppm(path, img)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    errs = run_gradient_suite(args.seed or 0)
    failed = []
    for name, err in errs.items():
        print(f"op {name} max_rel_err {err!r}")
        if err >= GRAD_TOL:
            failed.append(name)
    if failed:
        print(f"error: gradient check failed for {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all ops within {GRAD_TOL!r}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest(args.seed or 0)
    bad = False
    for name, ok, detail in results:
        print(f"suite {name} {'ok' if ok else 'FAIL'} {detail}")
        bad = bad or not ok
    if bad:
        print("error: self test failed", file=sys.stderr)
        return EXIT_VALIDATION
    print("all suites passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxdet", description="desk-scale LiDAR 3D object detector")
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print the default config as YAML and exit")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config YAML")
    common.add_argument("--seed", type=int, default=None,
                        help="override train.seed")
    common.add_argument("--out", default=None, help="override the output dir")

    p = sub.add_parser("make-data", help="generate a synthetic mini-dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cars", type=int, default=4)
    p.add_argument("--base-points", type=int, default=320)
    p.add_argument("--occlusion", type=float, default=1.0)
    p.set_defaults(fn=_cmd_make_data)

    p = sub.add_parser("build-conceptual", parents=[common],
                       help="compose dense twin scenes from the dataset")
    p.set_defaults(fn=_cmd_build_conceptual)

    p = sub.add_parser("train-cfg", parents=[common],
                       help="phase 1: fit the reference branch on composed scenes")
    p.set_defaults(fn=_cmd_train_cfg)

    p = sub.add_parser("train", parents=[common],
                       help="phase 2: fit the live branch against the frozen reference")
    p.add_argument("--cfg-checkpoint", default=None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="report average precision")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", choices=("real", "conceptual"), default="real")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("render-bev", parents=[common],
                       help="emit top-down scene images")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", choices=("real", "conceptual"), default="real")
    p.add_argument("--scene", type=int, default=None)
    p.add_argument("--scale", type=int, default=4)
    p.set_defaults(fn=_cmd_render_bev)

    p = sub.add_parser("gradcheck", help="finite-difference check every op")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("selftest", help="run the oracle-equivalence suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    if _RAW_THREADS is not None and not (_RAW_THREADS.isdigit() and int(_RAW_THREADS) >= 1):
        print(f"error: VOXDET_THREADS must be a positive integer, "
              f"got {_RAW_THREADS!r}", file=sys.stderr)
        return EXIT_VALIDATION
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        print(dumps_config(default_run_config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
