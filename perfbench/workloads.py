"""The benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one round of
identical operations per `round` call, and checks the program's outputs in
`check`, outside the timed rounds. A round returns (operation, ok, seconds)
for every operation it attempted.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
import time

import numpy as np
import yaml

# timed rounds call voxdet through module attributes (trainer.train_cfg, not
# a local name), so a traced run sees the wrappers installed there
from voxdet import cli, conceptual, engine, evaluation, trainer
from voxdet.adaptation import association_loss, foreground_mask, offset_length_map, reweighting_map
from voxdet.config import load_config
from voxdet.detection_head import (
    assign_targets,
    associate_total_loss,
    decode_box,
    flatten_cls_map,
    flatten_reg_map,
    focal_loss,
    generate_anchors,
    smooth_l1_loss,
)
from voxdet.evaluation import infer_detections
from voxdet.geometry import Box3D, PointCloud, points_in_box
from voxdet.network import (
    SPATIAL_DOWNSAMPLE,
    NetworkConfig,
    cfg_forward,
    copy_shared_into,
    init_params,
    pfe_forward,
)
from voxdet.synthetic import SceneRecipe, synth_scene
from voxdet.trainer import ScenePair, TrainConfig
from voxdet.voxelizer import GridConfig

import refs

# The ROADMAP's mid grid: the mini grid's 32 m x 32 m x 4 m patch at
# 0.0625 x 0.0625 x 0.5 m voxels, 512 x 512 x 8 cells, 64 x 64 BEV, 8192 anchors.
MID_GRID = GridConfig(range_min=(0.0, -16.0, -2.0), range_max=(32.0, 16.0, 2.0),
                      voxel_size=(0.0625, 0.0625, 0.5))
BANK_SCENES = 4          # scenes mid_train builds its instance bank from
PARAMS_SEED = 0          # fixed: the untrained live-branch parameters mid_train scores with
SCORE_THRESHOLD = 0.1    # mini.yaml eval settings, used on the mid grid too
NMS_IOU = 0.1
IOU_THRESHOLD = 0.7
TIE = 1e-9               # slack on IoU thresholds between two IoU implementations


def _box(b: Box3D) -> tuple:
    return (b.cx, b.cy, b.l, b.w, b.yaw)


def _timed(ops: list, name: str, fn):
    """Run one operation, recording (name, ok, seconds); returns its result."""
    t0 = time.perf_counter()
    try:
        out = fn()
        ok = out is not False
    except Exception as exc:  # an operation that raises counts as failed
        print(f"operation {name} failed: {exc!r}", file=sys.stderr)
        out, ok = None, False
    ops.append((name, ok, time.perf_counter() - t0))
    return out


def _scene_files(root: str) -> list[tuple[str, np.ndarray, list[tuple]]]:
    """Read the native scene layout directly: float32 x,y,z,i and box lines."""
    out = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if not os.path.isdir(path):
            continue
        points = np.fromfile(os.path.join(path, "points.bin"), dtype="<f4").reshape(-1, 4)
        with open(os.path.join(path, "boxes.txt")) as fh:
            boxes = [tuple(float(v) for v in line.split()) for line in fh if line.strip()]
        out.append((name, points.astype(np.float64), boxes))
    return out


def _canonical(xyz: np.ndarray, box: tuple) -> np.ndarray:
    cx, cy, cz, _, _, _, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = xyz[:, 0] - cx, xyz[:, 1] - cy
    return np.column_stack([c * dx + s * dy, -s * dx + c * dy, xyz[:, 2] - cz])


def _report_lines(path: str) -> dict[str, tuple]:
    """eval_*.txt: name -> (ap, det, tp, fp) for the overall and bucket lines."""
    out = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] in ("overall", "bucket"):
                at = parts.index("ap")
                f = dict(zip(parts[at::2], parts[at + 1::2]))
                out[" ".join(parts[:at])] = (float(f["ap"]), int(f["det"]), int(f["tp"]),
                                             int(f["fp"]))
    return out


def _bucket(x: float, y: float) -> str:
    reach = math.hypot(x, y)
    return "0-20" if reach < 20.0 else "20-40" if reach < 40.0 else "40+"


def recount(per_scene, threshold: float) -> dict[str, tuple]:
    """Naive recount of an eval report from (dets, scores, gts) per scene."""
    pooled, buckets = [], {"0-20": [], "20-40": [], "40+": []}
    n_gt = {"0-20": 0, "20-40": 0, "40+": 0}
    total_gt = 0
    for dets, scores, gts in per_scene:
        total_gt += len(gts)
        for g in gts:
            n_gt[_bucket(g[0], g[1])] += 1
        for score, hit, g, i in refs.greedy_match(dets, scores, gts, threshold):
            home = gts[g] if hit else dets[i]
            pooled.append((score, hit))
            buckets[_bucket(home[0], home[1])].append((score, hit))

    def row(samples, gt):
        tp = sum(hit for _, hit in samples)
        return (refs.ap40(samples, gt), len(samples), tp, len(samples) - tp)

    out = {"overall": row(pooled, total_gt)}
    out.update({f"bucket {k}": row(v, n_gt[k]) for k, v in buckets.items()})
    return out


def _same_report(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        abs(got[k][0] - want[k][0]) < 1e-9 and got[k][1:] == want[k][1:] for k in got)


# ---------------------------------------------------------------------------

class MiniPipeline:
    """The README quickstart on configs/mini.yaml, driven through voxdet.cli."""

    SCENES = 8
    EPOCHS = 2  # the reference loss must fall from the first epoch to the last
    SCALE = 4   # render-bev's default pixels per voxel

    def __init__(self, root: str, work: str, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.scenes = os.path.join(work, "data", "scenes")
        self.composed = os.path.join(work, "data", "conceptual")
        self.out = os.path.join(work, "runs")
        self.config = os.path.join(work, "run.yaml")

    def _cli(self, argv: list[str]) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == cli.EXIT_OK

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if not self._cli(["make-data", "--out", self.scenes, "--scenes", str(self.SCENES),
                          "--seed", str(self.seed)]):
            raise RuntimeError("make-data failed")
        with open(os.path.join(self.root, "configs", "mini.yaml")) as fh:
            cfg = yaml.safe_load(fh)
        cfg["data"] = {"scenes": self.scenes, "conceptual": self.composed, "out": self.out}
        cfg["train"]["epochs"] = self.EPOCHS
        with open(self.config, "w") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)

    def steps(self) -> list[tuple[str, list[str]]]:
        c = ["--config", self.config]
        return [
            ("build-conceptual", ["build-conceptual", *c]),
            ("train-cfg", ["train-cfg", *c]),
            ("train", ["train", *c]),
            ("eval", ["eval", *c]),
            ("eval", ["eval", *c, "--dataset", "conceptual",
                      "--checkpoint", os.path.join(self.out, "cfg.ckpt")]),
            ("render-bev", ["render-bev", *c, "--checkpoint",
                            os.path.join(self.out, "pfe.ckpt")]),
        ]

    def round(self, tracer) -> list:
        ops = []
        for name, argv in self.steps():
            with tracer.span("cli." + name):
                _timed(ops, name, lambda: self._cli(argv))
        return ops

    # per-step throughput: scenes each step handles
    def items(self) -> dict[str, int]:
        return {"build-conceptual": self.SCENES, "train-cfg": self.SCENES * self.EPOCHS,
                "train": self.SCENES * self.EPOCHS, "eval": self.SCENES,
                "render-bev": self.SCENES}

    def check(self) -> list[tuple[str, bool, str]]:
        cfg = load_config(self.config)
        real = _scene_files(self.scenes)
        composed = {name: pts for name, pts, _ in _scene_files(self.composed)}
        clouds = [(PointCloud(pts), [Box3D(*b) for b in boxes]) for _, pts, boxes in real]
        results = [self._check_report(cfg, real, clouds)]

        ok, detail = True, ""
        for (name, pts, boxes), (cloud, vboxes) in zip(real, clouds):
            mask = np.zeros(len(pts), dtype=bool)
            for b in vboxes:
                mask[points_in_box(cloud, b)] = True
            background = pts[~mask]
            got = composed.get(name)
            if got is None or len(got) < len(background) or not np.array_equal(
                    got[:len(background)], background):
                ok, detail = False, f"{name}: background changed"
        results.append(("mini.background_unchanged", ok, detail or f"scenes {len(real)}"))

        results.append(self._check_losses())
        for dataset, root, ckpt in (("real", self.scenes, "pfe.ckpt"),
                                    ("conceptual", self.composed, "cfg.ckpt")):
            results.append(self._check_eval(cfg, dataset, root, ckpt))
        results.append(self._check_ppms(cfg))
        return results

    def _check_report(self, cfg, real, clouds):
        bank = conceptual.build_instance_bank(
            clouds, m_bins=cfg.conceptual.m_bins, k_percent=cfg.conceptual.k_percent,
            min_points=cfg.conceptual.min_points)
        with open(os.path.join(self.composed, "report.txt")) as fh:
            rows = [line.split() for line in fh.read().splitlines()[1:]]
        if len(rows) != len(real):
            return ("mini.report_distances", False, f"{len(rows)} rows for {len(real)} scenes")
        worst = 0.0
        for row, (name, pts, boxes), (cloud, vboxes) in zip(rows, real, clouds):
            dists = []
            for box, vbox in zip(boxes, vboxes):
                crop = pts[points_in_box(cloud, vbox), :3]
                if not len(crop):
                    continue
                ids = bank.candidate_ids_for_bin(conceptual.bin_index(vbox.yaw, bank.m_bins))
                local = _canonical(crop, box)
                dists.append(min(refs.mean_closest_distance(
                    local, bank.instances[i].local_points.xyz) for i in ids))
            want = float(np.mean(dists)) if dists else 0.0
            if (row[0] != name or int(row[1]) != len(boxes)
                    or int(row[2]) != len(boxes) - len(dists)):
                return ("mini.report_distances", False, f"{name}: counts differ")
            worst = max(worst, abs(float(row[3]) - want) / max(1.0, abs(want)))
        return ("mini.report_distances", worst < 1e-9, f"max_rel_dev {worst!r}")

    def _check_losses(self):
        logs = {}
        for name in ("cfg_log.txt", "train_log.txt"):
            with open(os.path.join(self.out, name)) as fh:
                logs[name] = [[float(v) for v in line.split()[1:]]
                              for line in fh.read().splitlines()[1:]]
        finite = all(math.isfinite(v) for rows in logs.values() for row in rows for v in row)
        totals = [row[-1] for row in logs["cfg_log.txt"]]
        falls = len(totals) >= 2 and totals[-1] < totals[0]
        return ("mini.losses", finite and falls,
                f"finite {finite} cfg_total {totals[0]!r} -> {totals[-1]!r}")

    def _check_eval(self, cfg, dataset, root, ckpt):
        params = engine.load_checkpoint(os.path.join(self.out, ckpt))
        anchors = generate_anchors(cfg.network.bev_shape, cfg.grid, dims=cfg.anchors.dims,
                                   z_center=cfg.anchors.z_center)
        per_scene = []
        for _, pts, boxes in _scene_files(root):
            dets, scores = infer_detections(params, PointCloud(pts), cfg.network, anchors,
                                            cfg.eval.score_threshold, cfg.eval.nms_iou,
                                            cfg.train.codec)
            per_scene.append(([_box(d) for d in dets], list(scores),
                              [(b[0], b[1], b[3], b[4], b[6]) for b in boxes]))
        want = recount(per_scene, cfg.eval.iou_threshold)
        got = _report_lines(os.path.join(self.out, f"eval_{dataset}.txt"))
        return (f"mini.eval_{dataset}", _same_report(got, want), f"overall {got.get('overall')}")

    def _check_ppms(self, cfg):
        nx, ny, _ = cfg.grid.spatial_shape
        names = sorted(f for f in os.listdir(self.out) if f.endswith(".ppm"))
        ok = len(names) == self.SCENES
        for name in names:
            with open(os.path.join(self.out, name), "rb") as fh:
                magic, dims, maxval = fh.readline(), fh.readline().split(), fh.readline()
                payload = fh.read()
            w, h = int(dims[0]), int(dims[1])
            ok = ok and magic == b"P6\n" and maxval == b"255\n" and (w, h) == (
                nx * self.SCALE, ny * self.SCALE) and len(payload) == w * h * 3
        return ("mini.ppm", ok, f"files {len(names)}")


class MidTrain:
    """One round on the mid grid: a reference step on a composed scene, a live
    step on its (real, composed) pair, and detect-and-score of the real scene
    with untrained live-branch weights."""

    TRAIN = TrainConfig(batch_size=1, epochs=1)
    FD_STEP = 1e-5  # along a unit direction over every weight
    FD_TOL = 1e-5   # relative, as voxdet's own gradcheck

    def __init__(self, root: str, work: str, seed: int):
        self.seed = seed
        self.net = NetworkConfig(grid=MID_GRID)

    def setup(self) -> None:
        scenes = [synth_scene(SceneRecipe(), [self.seed, i]) for i in range(BANK_SCENES)]
        bank = conceptual.build_instance_bank(scenes)
        self.real, self.boxes = scenes[0]
        self.composed, _ = conceptual.compose_conceptual_scene(self.real, self.boxes, bank)
        self.anchors = generate_anchors(self.net.bev_shape, self.net.grid)
        self.eval_params = init_params(self.net, seed=PARAMS_SEED, with_offsets=True)

    def round(self, tracer) -> list:
        ops = []
        out = _timed(ops, "train-cfg", lambda: trainer.train_cfg(
            [(self.composed, self.boxes)], self.net, self.TRAIN))
        self.cfg_params = out and out[0]
        pair = ScenePair(self.real, self.composed, tuple(self.boxes))
        out = _timed(ops, "train", lambda: trainer.train_associate(
            [pair], self.cfg_params, self.net, self.TRAIN))
        self.pfe_params = out and out[0]

        def score():
            boxes, scores = evaluation.infer_detections(
                self.eval_params, self.real, self.net, self.anchors, SCORE_THRESHOLD, NMS_IOU)
            report = evaluation.evaluate_detections([(boxes, scores, self.boxes)],
                                                    IOU_THRESHOLD, 40)
            self.result = (boxes, scores, report)

        _timed(ops, "eval", score)
        return ops

    def items(self) -> dict[str, int]:
        return {"train-cfg": 1, "train": 1, "eval": 1}

    def check(self) -> list[tuple[str, bool, str]]:
        return [self._check_zero_offsets(), self._check_gradient(), *self._check_scoring()]

    def _check_zero_offsets(self):
        live = init_params(self.net, seed=self.TRAIN.seed, with_offsets=True)
        copy_shared_into(live, self.cfg_params)
        got = pfe_forward(self.real, live, self.net)
        want = cfg_forward(self.real, self.cfg_params, self.net)
        dev = float(np.abs(got.adapt_feature.data - want.adapt_feature.data).max())
        scale = max(1.0, float(np.abs(want.adapt_feature.data).max()))
        zero = not np.any(got.offsets.data)
        return ("mid_train.zero_offsets_equal_rigid", zero and dev <= 1e-12 * scale,
                f"offsets_zero {zero} max_dev {dev!r}")

    def _check_gradient(self):
        """Central difference of the live loss along one random direction."""
        params, tc = self.pfe_params, self.TRAIN
        ref = cfg_forward(self.composed, self.cfg_params, self.net).adapt_feature
        fg = foreground_mask(self.boxes, self.composed, self.net.grid, SPATIAL_DOWNSAMPLE)
        assignment = assign_targets(self.anchors, self.boxes, convention=tc.codec)

        def loss(reweight=None):
            out = pfe_forward(self.real, params, self.net)
            if reweight is None:  # held fixed: training treats it as a constant
                reweight = reweighting_map(offset_length_map(out.offsets), fg)
            cls = focal_loss(flatten_cls_map(out.cls_map), assignment.labels)
            bbox = smooth_l1_loss(flatten_reg_map(out.reg_map), assignment)
            assoc = association_loss(out.adapt_feature, ref, reweight, tc.count_mode)
            return associate_total_loss(bbox, cls, assoc, tc.sigma), out, reweight

        for p in params.values():
            p.zero_grad()
        with engine.Tape() as tape:
            total, out, reweight = loss()
            tape.backward(total)
        offsets = float(np.abs(out.offsets.data).max())
        # Weights only: after one Adam step from the shared start some biases
        # sit within 1e-10 of 0, which puts the pre-activations of empty BEV
        # pixels on a ReLU kink, where the loss has no derivative to compare.
        rng = np.random.default_rng([self.seed, 7])
        direction = {k: rng.normal(size=p.data.shape) for k, p in params.items()
                     if k.endswith(".weight")}
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        analytic = sum(float((params[k].grad * d).sum()) for k, d in direction.items()) / norm
        base = {k: p.data.copy() for k, p in params.items()}

        def along(t):
            for k, d in direction.items():
                params[k].data = base[k] + (t / norm) * d
            return loss(reweight)[0].item()

        numeric = refs.central_difference(along, 0.0, self.FD_STEP)
        for k, p in params.items():
            p.data = base[k]
            p.zero_grad()
        err = abs(numeric - analytic) / max(1.0, abs(analytic))
        return ("mid_train.gradient_central_difference", offsets > 0 and err < self.FD_TOL,
                f"max_offset {offsets!r} analytic {analytic!r} numeric {numeric!r}")

    def _check_scoring(self) -> list[tuple[str, bool, str]]:
        kept, kept_scores, report = self.result
        out = pfe_forward(self.real, self.eval_params, self.net)
        logits = flatten_cls_map(out.cls_map).data
        deltas = flatten_reg_map(out.reg_map).data
        scores = 1.0 / (1.0 + np.exp(-logits))
        keep = np.flatnonzero(scores >= SCORE_THRESHOLD)
        cands = [_box(decode_box(Box3D(*self.anchors[i]), deltas[i])) for i in keep]
        cand_scores = scores[keep]
        rank = np.empty(len(keep), dtype=np.int64)
        rank[np.argsort(-cand_scores, kind="stable")] = np.arange(len(keep))
        index = {c: i for i, c in enumerate(cands)}
        kept_idx = [index.get(_box(b), -1) for b in kept]
        found = -1 not in kept_idx and np.array_equal(cand_scores[kept_idx], kept_scores)
        results = [("mid_train.kept_are_candidates", found,
                    f"candidates {len(cands)} kept {len(kept)}")]
        if not found:
            return results

        centers = np.array([c[:2] for c in cands])
        radius = np.hypot([c[2] for c in cands], [c[3] for c in cands]) / 2.0

        def near(i, among):
            among = np.asarray(among, dtype=np.int64)
            d = np.hypot(*(centers[among] - centers[i]).T)
            close = d <= radius[among] + radius[i]
            return among[close][np.argsort(d[close], kind="stable")]

        worst = 0.0
        for a in kept_idx:
            for b in near(a, kept_idx):
                if b != a:
                    worst = max(worst, refs.iou_bev(cands[a], cands[b]))
        results.append(("mid_train.kept_overlap_below_nms_iou", worst <= NMS_IOU + TIE,
                        f"max_kept_iou {worst!r}"))

        kept_set = set(kept_idx)
        kept_arr = np.array(kept_idx)
        unexplained = 0
        for j in range(len(cands)):
            if j in kept_set:
                continue
            earlier = kept_arr[rank[kept_arr] < rank[j]]
            if not any(refs.iou_bev(cands[j], cands[k]) > NMS_IOU - TIE
                       for k in near(j, earlier)):
                unexplained += 1
        results.append(("mid_train.dropped_overlap_a_kept_box", unexplained == 0,
                        f"dropped {len(cands) - len(kept)} unexplained {unexplained}"))

        # The untrained detector hits nothing, so AP is also recounted on the
        # kept boxes plus the labelled boxes, each moved a little, at scores
        # drawn among theirs: a ranked list with hits and misses.
        rng = np.random.default_rng([self.seed, 11])
        moved = [Box3D(b.cx + rng.normal(0.0, 0.1), b.cy + rng.normal(0.0, 0.1), b.cz,
                       b.l, b.w, b.h, b.yaw) for b in self.boxes]
        lists = {"ap_recount": (list(kept), np.asarray(kept_scores)),
                 "ap_recount_with_hits": (list(kept) + moved, np.concatenate([
                     kept_scores, rng.uniform(kept_scores.min(), kept_scores.max(),
                                              len(moved))]))}
        gts = [_box(b) for b in self.boxes]
        for name, (boxes, box_scores) in lists.items():
            r = evaluation.evaluate_detections([(boxes, box_scores, self.boxes)],
                                               IOU_THRESHOLD, 40).overall
            want = recount([([_box(b) for b in boxes], list(box_scores), gts)],
                           IOU_THRESHOLD)["overall"]
            got = (r.ap, r.n_detections, r.true_positives, r.false_positives)
            ok = abs(got[0] - want[0]) < 1e-9 and got[1:] == want[1:]
            results.append((f"mid_train.{name}", ok, f"ap {r.ap!r} det {r.n_detections} "
                            f"tp {r.true_positives}"))
        return results


WORKLOADS = {"mini_pipeline": MiniPipeline, "mid_train": MidTrain}
