"""Anchor-based single-class detection: anchors, box codec, losses, NMS.

Anchors tile the bird's-eye feature map, one per (pixel, yaw).  Box
regression uses normalized deltas relative to the matched anchor; the
codec ships in two conventions (see _centre_terms).  Classification is a
sigmoid focal loss over positive/negative anchors with ignored ones
excluded.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .engine import Tensor
from .geometry import (Box3D, circumcircles_meet, normalize_angle, rotated_iou_bev_many,
                       rotated_iou_bev_pairs)
from .voxelizer import GridConfig, require_float

ANCHOR_DIMS = (3.9, 1.6, 1.56)
ANCHOR_Z_CENTER = -1.0
ANCHOR_YAWS = (0.0, math.pi / 2)
POSITIVE_IOU = 0.6  # anchor labelling thresholds (assign_targets), SECOND's
NEGATIVE_IOU = 0.45
NMS_IOU_DEFAULT = 0.1

POSITIVE = 1
NEGATIVE = 0
IGNORED = -1

# focal loss (Lin et al. 2017) at SECOND's settings
_FOCAL_ALPHA = 0.25
_FOCAL_GAMMA = 2.0

# delta conventions: "printed" divides dy by anchor height and dz by the
# base diagonal with anchor-minus-gt centers; "lineage" is the usual
# gt-minus-anchor with dz over anchor height.
CONVENTION_PRINTED = "printed"
CONVENTION_LINEAGE = "lineage"


def generate_anchors(feature_shape: tuple[int, int], grid: GridConfig,
                     dims: tuple[float, float, float] = ANCHOR_DIMS,
                     z_center: float = ANCHOR_Z_CENTER) -> np.ndarray:
    """One anchor per (pixel, yaw in ANCHOR_YAWS) at the pixel's BEV center.

    Returns (H*W*len(ANCHOR_YAWS), 7) rows (cx, cy, cz, l, w, h, yaw),
    ordered row-major over pixels with yaw fastest, matching the head's map
    layout.
    """
    h, w = feature_shape
    pitch_x = (grid.range_max[0] - grid.range_min[0]) / w
    pitch_y = (grid.range_max[1] - grid.range_min[1]) / h
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))
    cx = grid.range_min[0] + (cols.ravel() + 0.5) * pitch_x
    cy = grid.range_min[1] + (rows.ravel() + 0.5) * pitch_y

    n_yaw = len(ANCHOR_YAWS)
    anchors = np.empty((h * w * n_yaw, 7), dtype=np.float64)
    for j, yaw in enumerate(ANCHOR_YAWS):
        block = anchors[j::n_yaw]
        block[:, 0] = cx
        block[:, 1] = cy
        block[:, 2] = z_center
        block[:, 3:6] = dims
        block[:, 6] = yaw
    return anchors


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor size and height."""

    dims: tuple[float, float, float] = ANCHOR_DIMS
    z_center: float = ANCHOR_Z_CENTER

    def __post_init__(self):
        for i, value in enumerate(self.dims):
            require_float(f"dims[{i}]", value)
        require_float("z_center", self.z_center)
        object.__setattr__(self, "dims", tuple(float(v) for v in self.dims))
        if len(self.dims) != 3 or min(self.dims) <= 0:
            raise ValueError("anchor dims must be three positive numbers")

    def generate(self, feature_shape: tuple[int, int], grid: GridConfig) -> np.ndarray:
        """The anchors of a feature map, sized and placed by this config."""
        return generate_anchors(feature_shape, grid, dims=self.dims,
                                z_center=self.z_center)


def flatten_cls_map(cls_map: Tensor) -> Tensor:
    """(n_yaw, H, W) logits -> (A,) in generate_anchors order."""
    n_yaw, h, w = cls_map.data.shape
    return engine.reshape(engine.transpose(cls_map, (1, 2, 0)), (h * w * n_yaw,))


def flatten_reg_map(reg_map: Tensor) -> Tensor:
    """(n_yaw*7, H, W) deltas -> (A, 7) in generate_anchors order."""
    c, h, w = reg_map.data.shape
    if c % 7:
        raise ValueError("regression map channels must be a multiple of 7")
    n_yaw = c // 7
    split = engine.reshape(reg_map, (n_yaw, 7, h, w))
    return engine.reshape(engine.transpose(split, (2, 3, 0, 1)), (h * w * n_yaw, 7))


def _centre_terms(anchors: np.ndarray, convention: str) -> tuple[float, np.ndarray]:
    """The sign and (K, 3) divisors of the centre deltas of (K, 7) anchor rows."""
    d_a = np.array([math.hypot(l, w) for l, w in anchors[:, 3:5].tolist()])
    if convention == CONVENTION_PRINTED:
        return -1.0, np.column_stack([d_a, anchors[:, 5], d_a])
    if convention == CONVENTION_LINEAGE:
        return 1.0, np.column_stack([d_a, d_a, anchors[:, 5]])
    raise ValueError(f"unknown codec convention {convention!r}")


def encode_rows(anchors: np.ndarray, gts: np.ndarray,
                convention: str = CONVENTION_PRINTED) -> np.ndarray:
    """Deltas (dx, dy, dz, dl, dw, dh, dyaw) of (K, 7) gt rows relative to
    (K, 7) anchor rows; the sizes take `math.log`, as decode_rows `math.exp`."""
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 7)
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 7)
    sign, norm = _centre_terms(anchors, convention)
    ratios = (gts[:, 3:6] / anchors[:, 3:6]).ravel().tolist()
    # signing both terms gives a-minus-g exactly, with +0.0 for equal centres
    return np.column_stack([(sign * gts[:, :3] - sign * anchors[:, :3]) / norm,
                            np.reshape([math.log(v) for v in ratios], (-1, 3)),
                            gts[:, 6] - anchors[:, 6]])


_BAD_DECODE = "decoded boxes must be finite, with positive dimensions"


def decode_rows(anchors: np.ndarray, deltas: np.ndarray,
                convention: str = CONVENTION_PRINTED) -> np.ndarray:
    """Exact inverse of encode_rows on (K, 7) anchor rows and deltas; (K, 7) box rows.

    Each row holds the floats `Box3D` would store for it. So the sizes take
    `math.exp` and the anchor diagonal `math.hypot`, which numpy does not
    match bit for bit. A row that `Box3D` would reject raises ValueError.
    """
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 7)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 7)
    # no non-finite input decodes to a valid row; rejecting it here keeps
    # the yaw wrap from warning on inf first
    if not (np.isfinite(anchors).all() and np.isfinite(deltas).all()):
        raise ValueError(_BAD_DECODE)
    sign, norm = _centre_terms(anchors, convention)
    try:
        scale = np.reshape([math.exp(v) for v in deltas[:, 3:6].ravel().tolist()], (-1, 3))
    except OverflowError:  # a size delta above log(float max), about 709.78
        raise ValueError(_BAD_DECODE) from None
    out = np.column_stack([anchors[:, :3] + sign * deltas[:, :3] * norm,
                           anchors[:, 3:6] * scale,
                           normalize_angle(anchors[:, 6] + deltas[:, 6])])
    if not np.isfinite(out).all() or (out[:, 3:6] <= 0).any():
        raise ValueError(_BAD_DECODE)
    return out


def decode_box(anchor: Box3D, deltas,
               convention: str = CONVENTION_PRINTED) -> Box3D:
    """Exact inverse of encode_rows for one anchor; yaw renormalized to [-pi, pi)."""
    return Box3D(*decode_rows(anchor.as_array(), deltas, convention)[0])


@dataclass(frozen=True)
class TargetAssignment:
    """Per-anchor labels, matched box index, and encoded regression targets."""

    labels: np.ndarray      # (A,) ints: POSITIVE / NEGATIVE / IGNORED
    matched_gt: np.ndarray  # (A,) int64, -1 where not positive
    deltas: np.ndarray      # (A, 7), zero rows where not positive

    @property
    def num_positive(self) -> int:
        return int((self.labels == POSITIVE).sum())


def assign_targets(anchors: np.ndarray, gts: Sequence[Box3D],
                   convention: str = CONVENTION_PRINTED) -> TargetAssignment:
    """Label anchors against ground truth by rotated BEV IoU.

    An anchor is positive when its best IoU reaches POSITIVE_IOU, negative
    when below NEGATIVE_IOU, ignored between.  Each box additionally forces its
    highest-IoU anchor positive (if that IoU is nonzero) so no box goes
    unclaimed; boxes are processed in order and a later box may retarget
    an anchor forced by an earlier one, but never one already positive by
    threshold.  Each box's IoU column comes from one `rotated_iou_bev_many`
    call, which gives 0 to anchors outside the box's circumcircle gate.
    """
    n = len(anchors)
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    matched = np.full(n, -1, dtype=np.int64)
    deltas = np.zeros((n, 7), dtype=np.float64)
    if not gts:
        return TargetAssignment(labels, matched, deltas)

    gt_rows = np.array([gbox.as_array() for gbox in gts])
    iou = np.column_stack([rotated_iou_bev_many(row, anchors) for row in gt_rows])

    best_iou = iou.max(axis=1)
    best_gt = iou.argmax(axis=1)
    labels[:] = IGNORED
    labels[best_iou < NEGATIVE_IOU] = NEGATIVE
    threshold_pos = best_iou >= POSITIVE_IOU
    labels[threshold_pos] = POSITIVE
    matched[threshold_pos] = best_gt[threshold_pos]

    for g in range(len(gts)):
        a = int(iou[:, g].argmax())
        if iou[a, g] > 0.0 and not threshold_pos[a]:
            labels[a] = POSITIVE
            matched[a] = g

    pos = labels == POSITIVE
    deltas[pos] = encode_rows(anchors[pos], gt_rows[matched[pos]], convention)
    return TargetAssignment(labels, matched, deltas)


def focal_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Sigmoid focal loss normalized by positive count (floor 1).

    _FOCAL_ALPHA weights positives, 1 - _FOCAL_ALPHA negatives, and
    _FOCAL_GAMMA is the focusing power.  Ignored anchors contribute nothing.
    """
    labels = np.asarray(labels)
    if logits.data.shape != labels.shape:
        raise ValueError("logits and labels must align")
    norm = max(1, int((labels == POSITIVE).sum()))
    coeff_pos = (labels == POSITIVE) * (_FOCAL_ALPHA / norm)
    coeff_neg = (labels == NEGATIVE) * ((1.0 - _FOCAL_ALPHA) / norm)

    neg_logits = engine.neg(logits)
    # -log p = softplus(-x); the (1 - p_t) modulator is sigmoid of the
    # opposite-sign logit
    pos_term = engine.mul(engine.pow_const(engine.sigmoid(neg_logits), _FOCAL_GAMMA),
                          engine.softplus(neg_logits))
    neg_term = engine.mul(engine.pow_const(engine.sigmoid(logits), _FOCAL_GAMMA),
                          engine.softplus(logits))
    weighted = engine.add(engine.mul(pos_term, Tensor(coeff_pos)),
                          engine.mul(neg_term, Tensor(coeff_neg)))
    return engine.tsum(weighted)


def smooth_l1_loss(pred_deltas: Tensor, assignment: TargetAssignment) -> Tensor:
    """Huber (transition 1.0) summed over the 7 dims, averaged over positives."""
    if pred_deltas.data.shape != assignment.deltas.shape:
        raise ValueError("prediction and target shapes differ")
    n_pos = assignment.num_positive
    if n_pos == 0:
        return Tensor(np.float64(0.0))
    mask = (assignment.labels == POSITIVE).astype(np.float64)[:, None] / n_pos
    diff = engine.add(pred_deltas, engine.neg(Tensor(assignment.deltas)))
    return engine.tsum(engine.mul(engine.smooth_l1(diff), Tensor(mask)))


def cfg_total_loss(bbox_loss: Tensor, cls_loss: Tensor) -> Tensor:
    return engine.add(bbox_loss, cls_loss)


def associate_total_loss(bbox_loss: Tensor, cls_loss: Tensor,
                         assoc_loss: Tensor, sigma: float) -> Tensor:
    weighted = engine.mul(assoc_loss, Tensor(np.float64(sigma)))
    return engine.add(engine.add(bbox_loss, cls_loss), weighted)


# Live boxes scored per NMS block. The gate's temporaries are block x
# candidates in size: at the default grid's 70,400 anchors, 18 MB each and
# 63 MB at peak (tracemalloc).
_NMS_BLOCK = 32


def nms_bev(boxes: np.ndarray, scores,
            iou_threshold: float = NMS_IOU_DEFAULT) -> np.ndarray:
    """Greedy rotated-BEV suppression of (N, 7) box rows; returns kept indices, best first.

    A box is kept exactly when no kept box of higher rank overlaps it by more
    than the threshold. Rank is falling score, and score ties break toward
    the lower index. The ranks are walked in blocks of the next `_NMS_BLOCK`
    live boxes. One circumcircle test gates each block against itself and
    every later live box. One `rotated_iou_bev_pairs` call scores the gated
    pairs inside the block, whose suppression is then resolved in rank
    order, and one more scores the block's kept boxes against the later
    ones. Each pair's IoU takes the higher-ranked box as its first row.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 7)
    scores = np.asarray(scores, dtype=np.float64)
    if len(boxes) != len(scores):
        raise ValueError("boxes and scores must align")
    order = np.argsort(-scores, kind="stable")
    rows = boxes[order]
    live = np.arange(len(order))  # ranks not yet kept or suppressed
    kept: list[np.ndarray] = []
    while len(live):
        n = min(_NMS_BLOCK, len(live))
        block, later = live[:n], live[n:]
        near = circumcircles_meet(rows[block, None], rows[live])
        # block pairs (i, j), i < j: i suppresses j unless i is suppressed itself
        i, j = np.nonzero(np.triu(near[:, :n], 1))
        overlaps = np.zeros((n, n), dtype=bool)
        overlaps[i, j] = rotated_iou_bev_pairs(rows[block[i]], rows[block[j]]) > iou_threshold
        keep = np.ones(n, dtype=bool)
        for r in np.flatnonzero(overlaps.any(axis=1)).tolist():
            if keep[r]:
                keep[r + 1:] &= ~overlaps[r, r + 1:]
        winners = block[keep]
        kept.append(order[winners])
        i, j = np.nonzero(near[keep, n:])
        hit = rotated_iou_bev_pairs(rows[winners[i]], rows[later[j]]) > iou_threshold
        live = np.delete(later, j[hit])
    return np.concatenate(kept, dtype=np.int64) if kept else np.zeros(0, dtype=np.int64)
