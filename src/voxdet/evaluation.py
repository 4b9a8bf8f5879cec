"""Average-precision scoring of detections against labeled boxes.

Matching is greedy in score order: a detection claims the unmatched box it
overlaps most, and counts as a true positive when that overlap reaches the
threshold.  AP interpolates the precision envelope over a fixed recall
grid (11- or 40-point).  The "bev" metric uses rotated bird's-eye IoU; the
"3d" metric scales it by vertical extent overlap (polygon x interval).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection_head import (
    CONVENTION_PRINTED,
    NMS_IOU_DEFAULT,
    AnchorConfig,
    decode_rows,
    flatten_cls_map,
    flatten_reg_map,
    nms_bev,
)
from .geometry import Box3D, PointCloud, rotated_iou_3d_many, rotated_iou_bev_many
from .engine import Tensor
from .network import ForwardOutput, NetworkConfig, cfg_forward, pfe_forward

METRIC_BEV = "bev"
METRIC_3D = "3d"

BUCKET_EDGES = (20.0, 40.0)
BUCKET_NAMES = ("0-20", "20-40", "40+")


_OVERLAP = {METRIC_BEV: rotated_iou_bev_many, METRIC_3D: rotated_iou_3d_many}


@dataclass(frozen=True)
class EvalResult:
    ap: float                 # percent
    precision: np.ndarray
    recall: np.ndarray
    n_gt: int
    n_detections: int
    true_positives: int
    false_positives: int
    undefined: bool = False   # zero gts and zero detections

    def __post_init__(self):
        assert 0.0 <= self.ap <= 100.0
        if len(self.precision):
            assert 0.0 <= self.precision.min() and self.precision.max() <= 1.0
            assert 0.0 <= self.recall.min() and self.recall.max() <= 1.0


def match_detections(det_boxes: Sequence[Box3D], scores, gts: Sequence[Box3D],
                     iou_threshold: float, metric: str = METRIC_BEV):
    """Greedy score-descending matching within one scene.

    Returns (order, tp_flags, gt_idx): detection indices sorted by falling
    score (ties keep input order), a parallel bool array marking matches,
    and the matched ground-truth index per rank (-1 where unmatched). Each
    detection takes the unmatched box it overlaps most, the lowest index on
    a tie, and matches when that overlap is above 0 and reaches the
    threshold. The (rank, box) IoU matrix takes one kernel call per box.
    """
    if metric not in _OVERLAP:
        raise ValueError(f"unknown metric {metric!r}")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    rows = np.array([det_boxes[i].as_array() for i in order]).reshape(-1, 7)
    iou = np.zeros((len(order), len(gts)))
    for g, gt in enumerate(gts):
        iou[:, g] = _OVERLAP[metric](gt.as_array(), rows)
    gt_idx = np.full(len(order), -1, dtype=np.int64)
    for rank in range(len(order) if len(gts) else 0):
        g = int(iou[rank].argmax())
        if iou[rank, g] > 0.0 and iou[rank, g] >= iou_threshold:
            gt_idx[rank] = g
            iou[:, g] = -1.0  # taken
    return order, gt_idx >= 0, gt_idx


def interpolated_ap(precision: np.ndarray, recall: np.ndarray,
                    interpolation: int) -> float:
    """Mean of the precision envelope over the chosen recall grid, percent."""
    if interpolation == 11:
        grid = np.linspace(0.0, 1.0, 11)
    elif interpolation == 40:
        grid = np.arange(1, 41) / 40.0
    else:
        raise ValueError("interpolation must be 11 or 40")
    total = 0.0
    for r in grid:
        at_least = precision[recall >= r - 1e-12]
        total += at_least.max() if len(at_least) else 0.0
    return float(100.0 * total / len(grid))


def _result_from_samples(samples: list[tuple[float, bool]], n_gt: int,
                         interpolation: int) -> EvalResult:
    n_det = len(samples)
    if n_gt == 0 and n_det == 0:
        empty = np.zeros(0)
        return EvalResult(0.0, empty, empty, 0, 0, 0, 0, undefined=True)
    samples = sorted(samples, key=lambda s: -s[0])
    tp_cum = np.cumsum([1.0 if hit else 0.0 for _, hit in samples])
    fp_cum = np.cumsum([0.0 if hit else 1.0 for _, hit in samples])
    ranks = np.arange(1, n_det + 1)
    precision = tp_cum / ranks if n_det else np.zeros(0)
    recall = tp_cum / n_gt if n_gt else np.zeros(n_det)
    ap = interpolated_ap(precision, recall, interpolation) if n_gt else 0.0
    return EvalResult(ap, precision, recall, n_gt, n_det,
                      int(tp_cum[-1]) if n_det else 0,
                      int(fp_cum[-1]) if n_det else 0)


def distance_bucket(box: Box3D) -> str:
    reach = math.hypot(box.cx, box.cy)
    if reach < BUCKET_EDGES[0]:
        return BUCKET_NAMES[0]
    if reach < BUCKET_EDGES[1]:
        return BUCKET_NAMES[1]
    return BUCKET_NAMES[2]


# --- whole-dataset evaluation -------------------------------------------------

def run_branch(params: dict, cloud: PointCloud, net_config: NetworkConfig) -> ForwardOutput:
    """Forward one scene through the branch the parameter set belongs to.

    Offset parameters mean the deformable live branch, otherwise the rigid
    reference branch.
    """
    params = {k: v if isinstance(v, Tensor) else Tensor(v) for k, v in params.items()}
    forward = pfe_forward if "offsets.weight" in params else cfg_forward
    return forward(cloud, params, net_config)


def decode_detections(out: ForwardOutput, anchors: np.ndarray,
                      score_threshold: float, nms_iou: float, codec: str):
    """Score, decode and suppress one forward's anchors; (boxes, scores) best-first."""
    logits = flatten_cls_map(out.cls_map).data
    deltas = flatten_reg_map(out.reg_map).data
    scores = 1.0 / (1.0 + np.exp(-logits))
    keep = np.flatnonzero(scores >= score_threshold)
    if not len(keep):
        return [], np.zeros(0)
    rows = decode_rows(anchors[keep], deltas[keep], codec)
    kept_scores = scores[keep]
    survivors = nms_bev(rows, kept_scores, nms_iou)
    return [Box3D(*rows[i]) for i in survivors], kept_scores[survivors]


def infer_detections(params: dict, cloud: PointCloud, net_config: NetworkConfig,
                     anchors: np.ndarray,
                     score_threshold: float = 0.1,
                     nms_iou: float = NMS_IOU_DEFAULT,
                     codec: str = CONVENTION_PRINTED):
    """Run the detector on one scene; returns (boxes, scores) best-first."""
    return decode_detections(run_branch(params, cloud, net_config), anchors,
                             score_threshold, nms_iou, codec)


@dataclass(frozen=True)
class EvalReport:
    overall: EvalResult
    buckets: dict[str, EvalResult]
    n_scenes: int = 0
    iou_threshold: float = 0.7
    interpolation: int = 40
    metric: str = METRIC_BEV


def evaluate_detections(per_scene: Sequence[tuple[Sequence[Box3D], np.ndarray, Sequence[Box3D]]],
                        iou_threshold: float = 0.7, interpolation: int = 40,
                        metric: str = METRIC_BEV) -> EvalReport:
    """Pool (detections, scores, gts) triples into one report.

    Matching stays inside each scene; the precision/recall sweep ranks all
    detections globally by score.
    """
    pooled: list[tuple[float, bool]] = []
    bucket_samples = {name: [] for name in BUCKET_NAMES}
    n_gt = 0
    bucket_gts = dict.fromkeys(BUCKET_NAMES, 0)
    for det_boxes, scores, gts in per_scene:
        scores = np.asarray(scores, dtype=np.float64)
        order, tp, gt_idx = match_detections(det_boxes, scores, gts,
                                             iou_threshold, metric)
        n_gt += len(gts)
        for gt in gts:
            bucket_gts[distance_bucket(gt)] += 1
        for i, hit, g in zip(order, tp, gt_idx):
            sample = (float(scores[i]), bool(hit))
            pooled.append(sample)
            # hits count toward the matched object's bucket so that per-bucket
            # recall stays bounded; misses go by where the detector claimed
            home = gts[g] if hit else det_boxes[i]
            bucket_samples[distance_bucket(home)].append(sample)

    overall = _result_from_samples(pooled, n_gt, interpolation)
    buckets = {name: _result_from_samples(bucket_samples[name], bucket_gts[name],
                                          interpolation)
               for name in BUCKET_NAMES}
    return EvalReport(overall, buckets, len(per_scene), iou_threshold,
                      interpolation, metric)


def evaluate(params: dict, scenes: Sequence[tuple[PointCloud, Sequence[Box3D]]],
             net_config: NetworkConfig, iou_threshold: float = 0.7,
             interpolation: int = 40, metric: str = METRIC_BEV,
             score_threshold: float = 0.1, nms_iou: float = NMS_IOU_DEFAULT,
             codec: str = CONVENTION_PRINTED,
             anchors: AnchorConfig = AnchorConfig()) -> EvalReport:
    """Detect on every scene and aggregate AP; deterministic end to end."""
    anchor_grid = anchors.generate(net_config.bev_shape, net_config.grid)
    per_scene = []
    for cloud, gts in scenes:
        boxes, scores = infer_detections(params, cloud, net_config, anchor_grid,
                                         score_threshold, nms_iou, codec)
        per_scene.append((boxes, scores, list(gts)))
    return evaluate_detections(per_scene, iou_threshold, interpolation, metric)


def format_report(report: EvalReport) -> str:
    """Stable plain-text rendering of an EvalReport."""
    def line(name: str, r: EvalResult) -> str:
        flag = " undefined" if r.undefined else ""
        return (f"{name} ap {r.ap!r} gt {r.n_gt} det {r.n_detections} "
                f"tp {r.true_positives} fp {r.false_positives}{flag}")

    out = [
        f"scenes {report.n_scenes}",
        f"metric {report.metric} iou {report.iou_threshold!r} "
        f"interpolation {report.interpolation}",
        line("overall", report.overall),
    ]
    for name in BUCKET_NAMES:
        out.append(line(f"bucket {name}", report.buckets[name]))
    return "\n".join(out) + "\n"
