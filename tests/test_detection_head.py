import math
import warnings

import numpy as np
import pytest

from voxdet import geometry, verify
from voxdet.detection_head import (
    _NMS_BLOCK,
    CONVENTION_LINEAGE,
    CONVENTION_PRINTED,
    IGNORED,
    NEGATIVE,
    POSITIVE,
    TargetAssignment,
    assign_targets,
    associate_total_loss,
    decode_box,
    decode_rows,
    encode_rows,
    flatten_cls_map,
    flatten_reg_map,
    focal_loss,
    generate_anchors,
    nms_bev,
    smooth_l1_loss,
)
from voxdet.engine import Tape, Tensor, add
from voxdet.geometry import Box3D
from voxdet.voxelizer import GridConfig
from helpers import TOUCHING_YAWS, moved
from oracles import clip_iou_bev, decode_box as scalar_decode_box, per_box_nms


def flat_grid():
    return GridConfig((0, -8, -2), (16, 8, 0), (0.5, 0.5, 0.5))


def random_box(rng, span=20.0):
    return Box3D(rng.uniform(-span, span), rng.uniform(-span, span),
                 rng.uniform(-2, 1), rng.uniform(1.5, 5), rng.uniform(1, 2.5),
                 rng.uniform(1, 2), rng.uniform(-math.pi, math.pi - 1e-6))


# --- anchors ---------------------------------------------------------------

def test_single_pixel_two_yaws():
    anchors = generate_anchors((1, 1), flat_grid())
    assert anchors.shape == (2, 7)
    np.testing.assert_allclose(anchors[:, 0], 8.0)
    np.testing.assert_allclose(anchors[:, 1], 0.0)
    np.testing.assert_allclose(anchors[:, 6], [0.0, math.pi / 2])
    np.testing.assert_allclose(anchors[:, 2], -1.0)
    np.testing.assert_allclose(anchors[0, 3:6], [3.9, 1.6, 1.56])


def test_anchor_lattice_closed_form():
    grid = flat_grid()
    h, w = 8, 8
    anchors = generate_anchors((h, w), grid)
    assert len(anchors) == h * w * 2
    pitch_x = 16.0 / w
    pitch_y = 16.0 / h
    a = 0
    for row in range(h):
        for col in range(w):
            for j, yaw in enumerate((0.0, math.pi / 2)):
                assert anchors[a, 0] == pytest.approx((col + 0.5) * pitch_x, abs=1e-12)
                assert anchors[a, 1] == pytest.approx(-8 + (row + 0.5) * pitch_y, abs=1e-12)
                assert anchors[a, 6] == yaw
                a += 1


def test_flatten_maps_align_with_anchor_order():
    rng = np.random.default_rng(0)
    h, w, n_yaw = 3, 4, 2
    cls = rng.normal(size=(n_yaw, h, w))
    reg = rng.normal(size=(n_yaw * 7, h, w))
    fc = flatten_cls_map(Tensor(cls))
    fr = flatten_reg_map(Tensor(reg))
    a = 0
    for y in range(h):
        for x in range(w):
            for j in range(n_yaw):
                assert fc.data[a] == cls[j, y, x]
                np.testing.assert_array_equal(fr.data[a], reg[j * 7:(j + 1) * 7, y, x])
                a += 1


# --- codec -----------------------------------------------------------------

def encode_one(anchor: Box3D, gt: Box3D, convention: str = CONVENTION_PRINTED) -> np.ndarray:
    """Seven deltas of one gt box against one anchor: one row of encode_rows."""
    return encode_rows(anchor.as_array(), gt.as_array(), convention)[0]


def test_encode_identity_is_zero():
    box = Box3D(3, -2, -1, 3.9, 1.6, 1.56, 0.3)
    np.testing.assert_array_equal(encode_one(box, box), np.zeros(7))
    np.testing.assert_array_equal(encode_one(box, box, CONVENTION_LINEAGE), np.zeros(7))


def test_encode_single_axis_log():
    anchor = Box3D(0, 0, 0, 2.0, 1.0, 1.0, 0.0)
    gt = Box3D(0, 0, 0, 4.0, 1.0, 1.0, 0.0)
    d = encode_one(anchor, gt)
    assert d[3] == pytest.approx(math.log(2), abs=1e-12)
    assert not d[[0, 1, 2, 4, 5, 6]].any()


def test_encode_sign_conventions():
    anchor = Box3D(1.0, 2.0, 3.0, 3.0, 4.0, 2.0, 0.0)
    gt = Box3D(0.0, 2.0, 3.0, 3.0, 4.0, 2.0, 0.0)
    d_a = 5.0  # 3-4-5 base diagonal
    assert encode_one(anchor, gt)[0] == pytest.approx(1.0 / d_a, abs=1e-12)
    assert encode_one(anchor, gt, CONVENTION_LINEAGE)[0] == pytest.approx(-1.0 / d_a, abs=1e-12)
    lifted = Box3D(1.0, 2.0, 4.0, 3.0, 4.0, 2.0, 0.0)
    # dz normalization differs: diagonal vs anchor height
    assert encode_one(anchor, lifted)[2] == pytest.approx(-1.0 / d_a, abs=1e-12)
    assert encode_one(anchor, lifted, CONVENTION_LINEAGE)[2] == pytest.approx(1.0 / 2.0, abs=1e-12)


def test_decode_zero_deltas_returns_anchor():
    anchor = Box3D(3, -2, -1, 3.9, 1.6, 1.56, 0.3)
    out = decode_box(anchor, np.zeros(7))
    np.testing.assert_array_equal(out.as_array(), anchor.as_array())


def test_decode_log_height():
    anchor = Box3D(0, 0, 0, 2, 1, 1.5, 0)
    out = decode_box(anchor, [0, 0, 0, 0, 0, math.log(2), 0])
    assert out.h == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("convention", [CONVENTION_PRINTED, CONVENTION_LINEAGE])
def test_codec_roundtrip_randomized(convention):
    rng = np.random.default_rng(1)
    for _ in range(300):
        anchor = random_box(rng)
        gt = random_box(rng)
        back = decode_box(anchor, encode_one(anchor, gt, convention), convention)
        np.testing.assert_allclose(back.as_array(), gt.as_array(), atol=1e-9)
    anchors = np.array([random_box(rng).as_array() for _ in range(300)])
    gts = np.array([random_box(rng).as_array() for _ in range(300)])
    deltas = encode_rows(anchors, gts, convention)
    np.testing.assert_allclose(decode_rows(anchors, deltas, convention), gts, atol=1e-9)
    for a, g, row in zip(anchors, gts, deltas):
        assert encode_one(Box3D(*a), Box3D(*g), convention).tobytes() == row.tobytes()


@pytest.mark.parametrize("convention", [CONVENTION_PRINTED, CONVENTION_LINEAGE])
def test_decode_rows_equal_the_scalar_decode(convention):
    rng = np.random.default_rng(21)
    anchors = np.array([random_box(rng).as_array() for _ in range(2000)])
    # anchor yaws near +-pi and yaw deltas up to 2 pi make many sums wrap
    anchors[::2, 6] = rng.choice([-1.0, 1.0], 1000) * (math.pi - rng.uniform(0, 0.1, 1000))
    anchors = np.array([Box3D(*a).as_array() for a in anchors])
    deltas = rng.normal(0, 0.5, (2000, 7))
    deltas[:, 6] = rng.uniform(-2 * math.pi, 2 * math.pi, 2000)
    deltas[:4, 6] = [math.pi, -math.pi, 2 * math.pi, -2 * math.pi]
    # one ulp below -pi: the wrap must give -pi, as Box3D stores it
    anchors[4, 6], deltas[4, 6] = 0.0, np.nextafter(-math.pi, -4.0)
    rows = decode_rows(anchors, deltas, convention)
    want = np.array([scalar_decode_box(Box3D(*a), d, convention).as_array()
                     for a, d in zip(anchors, deltas)])
    assert np.array_equal(rows, want)
    assert all(np.array_equal(Box3D(*row).as_array(), row) for row in rows)
    assert all(decode_box(Box3D(*a), d, convention) == Box3D(*row)
               for a, d, row in zip(anchors[:50], deltas[:50], rows))
    assert decode_rows(np.zeros((0, 7)), np.zeros((0, 7)), convention).shape == (0, 7)


_REJECTED_DELTAS = [(3, -800.0), (5, -800.0), (3, 800.0), (0, math.nan),
                    (4, math.inf), (6, math.inf), (1, -math.inf)]


@pytest.mark.parametrize("column, value", _REJECTED_DELTAS)
def test_decode_rows_reject_what_box3d_rejects(column, value):
    anchors = np.tile(Box3D(3, -2, -1, 3.9, 1.6, 1.56, 0.3).as_array(), (3, 1))
    deltas = np.zeros((3, 7))
    deltas[1, column] = value
    # the scalar oracle's math.exp overflows on a size delta above about 709.78
    with pytest.raises(OverflowError if 709.0 < value < math.inf else ValueError):
        scalar_decode_box(Box3D(*anchors[1]), deltas[1])
    with pytest.raises(ValueError):
        decode_rows(anchors, deltas)
    assert decode_rows(anchors[[0, 2]], deltas[[0, 2]]).shape == (2, 7)


def test_decode_rows_reject_without_a_warning():
    anchors = np.tile(Box3D(3, -2, -1, 3.9, 1.6, 1.56, 0.3).as_array(), (3, 1))
    for column, value in _REJECTED_DELTAS:
        deltas = np.zeros((3, 7))
        deltas[1, column] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                decode_rows(anchors, deltas)


def test_codec_rejects_unknown_convention():
    box = Box3D(0, 0, 0, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="convention"):
        encode_rows(box.as_array(), box.as_array(), "other")
    with pytest.raises(ValueError, match="convention"):
        decode_box(box, np.zeros(7), "other")
    with pytest.raises(ValueError, match="convention"):
        decode_rows(box.as_array(), np.zeros(7), "other")


# --- target assignment -----------------------------------------------------

def oracle_assign(anchors, gts, pos, neg):
    """Independent restatement of the assignment rules."""
    n, g_count = len(anchors), len(gts)
    iou = [[clip_iou_bev(Box3D(*anchors[a]), gts[g]) for g in range(g_count)]
           for a in range(n)]
    labels = [IGNORED] * n
    matched = [-1] * n
    by_threshold = [False] * n
    for a in range(n):
        best = max(iou[a])
        if best < neg:
            labels[a] = NEGATIVE
        if best >= pos:
            labels[a] = POSITIVE
            matched[a] = iou[a].index(best)
            by_threshold[a] = True
    for g in range(g_count):
        col = [iou[a][g] for a in range(n)]
        a = col.index(max(col))
        if col[a] > 0 and not by_threshold[a]:
            labels[a] = POSITIVE
            matched[a] = g
    return labels, matched


def test_assign_no_gts_all_negative():
    anchors = generate_anchors((4, 4), flat_grid())
    out = assign_targets(anchors, [])
    assert (out.labels == NEGATIVE).all()
    assert (out.matched_gt == -1).all()
    assert not out.deltas.any()


def test_assign_exact_anchor_positive_zero_deltas():
    anchors = generate_anchors((4, 4), flat_grid())
    gt = Box3D(*anchors[10])
    out = assign_targets(anchors, [gt])
    assert out.labels[10] == POSITIVE
    assert out.matched_gt[10] == 0
    np.testing.assert_array_equal(out.deltas[10], np.zeros(7))


def test_assign_encodes_the_raw_anchor_yaw():
    # 0.3 is not a fixed point of normalize_angle; the delta must use it as given
    anchors = np.array([[0.0, 0.0, -1.0, 3.9, 1.6, 1.56, 0.3]])
    out = assign_targets(anchors, [Box3D(0.0, 0.0, -1.0, 3.9, 1.6, 1.56, 0.5)])
    assert out.labels[0] == POSITIVE
    assert out.deltas[0, 6] == 0.5 - 0.3


def test_assign_matches_brute_force_oracle():
    grid = flat_grid()
    anchors = generate_anchors((6, 6), grid)
    gts = [
        Box3D(4.1, -2.2, -1.0, 3.8, 1.7, 1.5, 0.05),
        Box3D(10.6, 3.9, -0.9, 4.1, 1.6, 1.6, math.pi / 2 - 0.1),
        Box3D(12.3, -5.2, -1.1, 3.6, 1.5, 1.4, 0.7),
    ]
    out = assign_targets(anchors, gts)
    labels, matched = oracle_assign(anchors, gts, 0.6, 0.45)
    np.testing.assert_array_equal(out.labels, labels)
    np.testing.assert_array_equal(out.matched_gt, matched)
    for a in np.flatnonzero(out.labels == POSITIVE):
        want = encode_one(Box3D(*anchors[a]), gts[out.matched_gt[a]])
        np.testing.assert_array_equal(out.deltas[a], want)
    assert np.isfinite(out.deltas).all()


@pytest.mark.parametrize("seed", range(4))
def test_assign_matches_oracle_on_a_16x16_grid(seed):
    # 2 m pitch: each box meets a handful of the 512 anchors.
    grid = GridConfig((0, -16, -2), (32, 16, 0), (0.5, 0.5, 0.5))
    anchors = generate_anchors((16, 16), grid)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-0.1, 0.1, size=(4, 2))
    gts = [Box3D(rng.uniform(22, 30), rng.uniform(-14, 14), -1.0, rng.uniform(3, 4.5),
                 rng.uniform(1.4, 1.8), 1.5, rng.uniform(-math.pi, math.pi)) for _ in range(3)]
    gts += [
        # both best match the yaw-0 anchor at (17, 1), below pos_iou, so the
        # second retargets the anchor the first forced
        Box3D(17.9 + jitter[0, 0], 1.3 + jitter[0, 1], -1.0, 3.9, 1.6, 1.56, 0.15),
        Box3D(16.3 + jitter[1, 0], 0.6 + jitter[1, 1], -1.0, 3.9, 1.6, 1.56, -0.1),
        # left of the grid: only the yaw-0 anchor at (1, -9) reaches it
        Box3D(-0.5 + jitter[2, 0], -9.0 + jitter[2, 1], -1.0, 0.3, 0.3, 1.5, 0.4),
        # off the grid: overlaps nothing, forces nothing
        Box3D(60.0, 40.0 + jitter[3, 1], -1.0, 3.9, 1.6, 1.56, 0.3),
    ]
    out = assign_targets(anchors, gts)
    labels, matched = oracle_assign(anchors, gts, 0.6, 0.45)
    np.testing.assert_array_equal(out.labels, labels)
    np.testing.assert_array_equal(out.matched_gt, matched)
    want = np.zeros_like(out.deltas)
    for a in np.flatnonzero(out.labels == POSITIVE):
        want[a] = encode_one(Box3D(*anchors[a]), gts[matched[a]])
    assert np.array_equal(out.deltas, want)

    iou = np.array([[clip_iou_bev(Box3D(*row), gt) for gt in gts[3:]] for row in anchors])
    shared = int(iou[:, 0].argmax())
    assert shared == int(iou[:, 1].argmax()) and iou[shared, :2].max() < 0.6
    assert out.labels[shared] == POSITIVE and out.matched_gt[shared] == 4
    assert not (out.matched_gt == 3).any()
    single = np.flatnonzero(iou[:, 2] > 0)
    assert len(single) == 1 and out.matched_gt[single[0]] == 5
    assert not iou[:, 3].any() and not (out.matched_gt == 6).any()


@pytest.mark.parametrize("yaw", TOUCHING_YAWS)
def test_an_anchor_that_only_shares_an_edge_with_a_box_stays_negative(yaw):
    anchor = np.array([12.5, -3.25, -1.0, 3.9, 1.6, 1.56, yaw])
    car = Box3D(*moved(anchor, 0.0, 1.6))
    assert assign_targets(anchor[None], [car]).labels.tolist() == [NEGATIVE]


def test_every_overlapped_gt_claims_an_anchor():
    rng = np.random.default_rng(2)
    grid = flat_grid()
    anchors = generate_anchors((6, 6), grid)
    for trial in range(5):
        gts = [Box3D(rng.uniform(2, 14), rng.uniform(-6, 6), -1.0,
                     rng.uniform(3, 4.5), rng.uniform(1.4, 1.8), 1.5,
                     rng.uniform(-math.pi, math.pi)) for _ in range(3)]
        out = assign_targets(anchors, gts)
        for g, gt in enumerate(gts):
            ious = [clip_iou_bev(Box3D(*anchors[a]), gt) for a in range(len(anchors))]
            if max(ious) > 0:
                best = int(np.argmax(ious))
                assert out.labels[best] == POSITIVE


# --- losses ----------------------------------------------------------------

def test_focal_perfect_prediction_vanishes():
    logits = Tensor(np.array([40.0]), requires_grad=True)
    loss = focal_loss(logits, np.array([POSITIVE]))
    assert loss.item() == pytest.approx(0.0, abs=1e-40)


def focal_oracle(logits, labels, alpha, gamma):
    total = 0.0
    for x, lab in zip(logits, labels):
        p = 1 / (1 + math.exp(-x))
        if lab == POSITIVE:
            total += alpha * (1 - p) ** gamma * -math.log(p)
        elif lab == NEGATIVE:
            total += (1 - alpha) * p ** gamma * -math.log(1 - p)
    return total / max(1, sum(1 for v in labels if v == POSITIVE))


def test_focal_matches_loop_oracle_and_gradient():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=30) * 3
    labels = rng.choice([POSITIVE, NEGATIVE, IGNORED], size=30, p=[0.3, 0.5, 0.2])
    t = Tensor(logits, requires_grad=True)
    loss = focal_loss(t, labels)
    assert loss.item() == pytest.approx(focal_oracle(logits, labels, 0.25, 2.0), abs=1e-10)
    err = verify.gradient_check(lambda t: focal_loss(t, labels), [t])
    assert err < 1e-6


def test_focal_ignores_ignored_anchors():
    logits = np.array([0.5, -1.0, 2.0])
    base = focal_loss(Tensor(logits), np.array([POSITIVE, NEGATIVE, IGNORED])).item()
    moved = logits.copy()
    moved[2] = -7.0
    again = focal_loss(Tensor(moved), np.array([POSITIVE, NEGATIVE, IGNORED])).item()
    assert base == again


def test_focal_permutation_invariant_and_monotone():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=20)
    labels = rng.choice([POSITIVE, NEGATIVE], size=20)
    perm = rng.permutation(20)
    a = focal_loss(Tensor(logits), labels).item()
    b = focal_loss(Tensor(logits[perm]), labels[perm]).item()
    assert a == pytest.approx(b, rel=1e-12)
    # raising a positive's logit raises its p_t and lowers the loss
    pos = int(np.flatnonzero(labels == POSITIVE)[0])
    bumped = logits.copy()
    bumped[pos] += 1.0
    assert focal_loss(Tensor(bumped), labels).item() < a


def _assignment_with(labels, deltas):
    labels = np.asarray(labels)
    matched = np.where(labels == POSITIVE, 0, -1).astype(np.int64)
    return TargetAssignment(labels, matched, np.asarray(deltas, dtype=np.float64))


def test_smooth_l1_fixtures():
    labels = [POSITIVE, NEGATIVE]
    target = np.zeros((2, 7))
    assign = _assignment_with(labels, target)

    pred = np.zeros((2, 7))
    assert smooth_l1_loss(Tensor(pred), assign).item() == 0.0

    pred = np.zeros((2, 7))
    pred[0, 3] = 0.5
    assert smooth_l1_loss(Tensor(pred), assign).item() == pytest.approx(0.125, abs=1e-15)

    pred = np.zeros((2, 7))
    pred[0, 3] = 2.0
    assert smooth_l1_loss(Tensor(pred), assign).item() == pytest.approx(1.5, abs=1e-15)

    # negative-row predictions are invisible to the loss
    pred[1] = 100.0
    assert smooth_l1_loss(Tensor(pred), assign).item() == pytest.approx(1.5, abs=1e-15)


def test_smooth_l1_averages_over_positives_and_grad():
    rng = np.random.default_rng(6)
    labels = np.array([POSITIVE, POSITIVE, NEGATIVE, IGNORED])
    target = rng.normal(size=(4, 7))
    target[2:] = 0
    assign = _assignment_with(labels, target)
    pred = Tensor(rng.normal(size=(4, 7)), requires_grad=True)

    total = 0.0
    for row in range(2):
        for k in range(7):
            x = pred.data[row, k] - target[row, k]
            total += 0.5 * x * x if abs(x) < 1 else abs(x) - 0.5
    assert smooth_l1_loss(pred, assign).item() == pytest.approx(total / 2, abs=1e-12)
    err = verify.gradient_check(lambda t: smooth_l1_loss(t, assign), [pred])
    assert err < 1e-5


def test_smooth_l1_no_positives_returns_zero():
    assign = _assignment_with([NEGATIVE, NEGATIVE], np.zeros((2, 7)))
    assert smooth_l1_loss(Tensor(np.ones((2, 7))), assign).item() == 0.0


def test_total_losses_compose():
    bbox = Tensor(np.float64(0.75))
    cls = Tensor(np.float64(1.25))
    assoc = Tensor(np.float64(0.4))
    assert add(bbox, cls).item() == 2.0
    assert associate_total_loss(bbox, cls, assoc, sigma=0.5).item() == pytest.approx(2.2, abs=1e-15)
    assert associate_total_loss(bbox, cls, assoc, sigma=0.0).item() == add(bbox, cls).item()
    rng = np.random.default_rng(7)
    for _ in range(10):
        b, c, a, s = rng.normal(size=4)
        got = associate_total_loss(Tensor(b), Tensor(c), Tensor(a), sigma=s).item()
        assert got == pytest.approx(b + c + s * a, abs=1e-12)


# --- nms and detection files -------------------------------------------------

def rows(boxes):
    return np.array([b.as_array() for b in boxes]).reshape(-1, 7)


def reference_nms(boxes, scores, thr):
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(clip_iou_bev(boxes[i], boxes[k]) <= thr for k in kept):
            kept.append(i)
    return kept


def test_nms_trivial_cases():
    box = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
    assert list(nms_bev(rows([box]), [0.7])) == [0]
    twin = Box3D(0, 0, 0, 4, 2, 1.5, 0.3)
    assert list(nms_bev(rows([box, twin]), [0.2, 0.9])) == [1]
    assert list(nms_bev(rows([box, twin]), [0.9, 0.2])) == [0]


@pytest.mark.parametrize("yaw", TOUCHING_YAWS)
def test_nms_keeps_both_boxes_that_only_share_an_edge(yaw):
    box = np.array([12.5, -3.25, -1.0, 3.9, 1.6, 1.56, yaw])
    assert nms_bev(np.stack([box, moved(box, 0.0, 1.6)]), [0.9, 0.8], 0.0).tolist() == [0, 1]


def test_nms_matches_reference_on_random_boxes():
    rng = np.random.default_rng(8)
    for thr in (0.1, 0.3):
        boxes = [Box3D(rng.uniform(0, 10), rng.uniform(0, 10), 0,
                       rng.uniform(1, 4), rng.uniform(1, 4), 1,
                       rng.uniform(-math.pi, math.pi)) for _ in range(20)]
        scores = rng.uniform(size=20)
        assert list(nms_bev(rows(boxes), scores, thr)) == reference_nms(boxes, scores, thr)


def jittered_anchor_boxes(rng, feature_shape, grid):
    """Anchor-grid boxes moved, resized and turned a little, as a detector emits."""
    anchors = generate_anchors(feature_shape, grid)
    n = len(anchors)
    return [Box3D(row[0] + dx, row[1] + dy, row[2], row[3] * sl, row[4] * sw, row[5], row[6] + dyaw)
            for row, dx, dy, sl, sw, dyaw in zip(
                anchors, rng.normal(0, 0.25, n), rng.normal(0, 0.25, n),
                np.exp(rng.normal(0, 0.1, n)), np.exp(rng.normal(0, 0.1, n)),
                rng.normal(0, 0.2, n))]


@pytest.mark.parametrize("thr", [0.1, 0.3, 0.5])
def test_nms_matches_reference_at_mid_grid_density(thr):
    # 16 x 32 pixels at the mid grid's 0.5 m pitch, two yaws: 1,024 boxes,
    # each overlapping dozens of others. Scores take 20 values, so most
    # candidates share their score with others and the tie order matters.
    rng = np.random.default_rng(int(thr * 10))
    boxes = jittered_anchor_boxes(rng, (16, 32), GridConfig((0, -4, -2), (16, 4, 0), (0.5, 0.5, 0.5)))
    scores = rng.integers(0, 20, size=len(boxes)) / 20
    assert list(nms_bev(rows(boxes), scores, thr)) == reference_nms(boxes, scores, thr)


# counts around the block size: none, one, a block less one, a block, a block
# and one, and three blocks and one
BLOCK_COUNTS = [0, 1, _NMS_BLOCK - 1, _NMS_BLOCK, _NMS_BLOCK + 1, 3 * _NMS_BLOCK + 1]


def nms_case(kind, n, rng):
    if kind == "identical":
        return np.tile(Box3D(3, 1, 0, 4, 2, 1.5, 0.3).as_array(), (n, 1)), rng.uniform(size=n)
    boxes = np.column_stack([rng.uniform(0, 12, (n, 2)), np.zeros(n), rng.uniform(1, 4, (n, 2)),
                             np.ones(n), rng.uniform(-math.pi, math.pi, n)])
    if kind == "ties":
        return boxes, rng.integers(0, 3, n) / 3
    return boxes, rng.uniform(size=n)


@pytest.mark.parametrize("n", BLOCK_COUNTS)
@pytest.mark.parametrize("kind", ["random", "identical", "ties"])
def test_blocked_nms_keeps_what_the_per_box_loop_keeps_bit_for_bit(kind, n):
    rng = np.random.default_rng(n)
    boxes, scores = nms_case(kind, n, rng)
    for thr in (0.0, 0.1, 0.5):
        got, want = nms_bev(boxes, scores, thr), per_box_nms(boxes, scores, thr)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
    if kind == "identical" and n:
        # every copy overlaps the first, which ranks first by score
        assert list(nms_bev(boxes, scores)) == [int(np.argmax(scores))]


def test_blocked_nms_calls_the_pair_kernel_twice_per_block_at_most(monkeypatch):
    calls = []
    kernel = geometry._intersection_area_pairs

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(geometry, "_intersection_area_pairs", counting)
    rng = np.random.default_rng(3)
    boxes = rows(jittered_anchor_boxes(rng, (16, 32), GridConfig((0, -4, -2), (16, 4, 0), (0.5, 0.5, 0.5))))
    scores = rng.integers(0, 20, size=len(boxes)) / 20
    got = nms_bev(boxes, scores, 0.1)
    assert len(boxes) == 1024
    assert 0 < len(calls) <= 2 * math.ceil(len(boxes) / _NMS_BLOCK)
    assert got.tobytes() == per_box_nms(boxes, scores, 0.1).tobytes()
