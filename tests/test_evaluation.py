import math

import numpy as np
import pytest

from voxdet import evaluation
from voxdet.detection_head import AnchorConfig, generate_anchors
from voxdet.evaluation import (
    METRIC_3D,
    METRIC_BEV,
    EvalReport,
    distance_bucket,
    evaluate,
    evaluate_detections,
    format_report,
    infer_detections,
    interpolated_ap,
    match_detections,
)
from voxdet.geometry import Box3D, PointCloud
from voxdet.network import NetworkConfig, init_params
from voxdet.voxelizer import mini_grid
from oracles import clip_iou_3d, clip_iou_bev, greedy_match


def box_at(x, y, yaw=0.0, l=4.0, w=2.0, h=1.5, z=0.0):
    return Box3D(x, y, z, l, w, h, yaw)


def far_apart(n, spacing=50.0):
    return [box_at(spacing * i, 0.0) for i in range(n)]


def test_perfect_detector_scores_100():
    gts = far_apart(3)
    for interp in (11, 40):
        r = evaluate_detections([(gts, [0.9, 0.5, 0.7], gts)], iou_threshold=0.7,
                                interpolation=interp).overall
        assert r.ap == 100.0
        assert r.true_positives == 3
        assert r.false_positives == 0
        assert not r.undefined


def test_no_detections_gives_zero():
    r = evaluate_detections([([], [], far_apart(2))]).overall
    assert r.ap == 0.0
    assert r.n_gt == 2
    assert not r.undefined


def test_zero_gts_zero_dets_flagged_undefined():
    r = evaluate_detections([([], [], [])]).overall
    assert r.ap == 0.0
    assert r.undefined


def test_zero_gts_with_detections_all_fp():
    dets = far_apart(2)
    r = evaluate_detections([(dets, [0.5, 0.6], [])]).overall
    assert r.ap == 0.0
    assert r.false_positives == 2
    assert not r.undefined


def test_hand_worked_five_det_three_gt_table():
    gts = far_apart(3)
    misses = [box_at(25.0, 30.0), box_at(75.0, 30.0)]
    # score order: TP FP TP FP TP
    dets = [gts[0], misses[0], gts[1], misses[1], gts[2]]
    scores = [0.9, 0.8, 0.7, 0.6, 0.5]

    r11 = evaluate_detections([(dets, scores, gts)], iou_threshold=0.5, interpolation=11).overall
    want11 = 100.0 * (4 * 1.0 + 3 * (2 / 3) + 4 * (3 / 5)) / 11
    assert r11.ap == pytest.approx(want11, abs=1e-9)
    np.testing.assert_allclose(r11.precision, [1, 1 / 2, 2 / 3, 2 / 4, 3 / 5], atol=1e-12)
    np.testing.assert_allclose(r11.recall, [1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0], atol=1e-12)

    r40 = evaluate_detections([(dets, scores, gts)], iou_threshold=0.5, interpolation=40).overall
    want40 = 100.0 * (13 * 1.0 + 13 * (2 / 3) + 14 * (3 / 5)) / 40
    assert r40.ap == pytest.approx(want40, abs=1e-9)
    assert abs(r11.ap - r40.ap) < 10.0


def test_greedy_matching_consumes_each_gt_once():
    gt = [box_at(0, 0)]
    dets = [box_at(0, 0), box_at(0, 0)]
    order, tp, gt_idx = match_detections(dets, [0.3, 0.9], gt, 0.5)
    assert list(order) == [1, 0]
    assert list(tp) == [True, False]  # second duplicate finds the gt taken
    assert list(gt_idx) == [0, -1]


def test_matching_prefers_highest_overlap_gt():
    gts = [box_at(0, 0), box_at(1.0, 0)]
    det = box_at(0.8, 0)
    order, tp, gt_idx = match_detections([det], [0.9], gts, 0.1)
    assert tp[0]
    assert gt_idx[0] == 1  # the closer gt was claimed, leaving gt 0 free
    order2, tp2, gt_idx2 = match_detections([det, box_at(0, 0)], [0.9, 0.8],
                                            gts, 0.1)
    assert tp2.all()
    assert list(gt_idx2) == [1, 0]


@pytest.mark.parametrize("metric, oracle_iou",
                         [(METRIC_BEV, clip_iou_bev), (METRIC_3D, clip_iou_3d)],
                         ids=[METRIC_BEV, METRIC_3D])
def test_matching_equals_a_naive_greedy_matcher(metric, oracle_iou):
    rng = np.random.default_rng(17)
    hits = 0
    for scene in range(60):
        gts = [Box3D(rng.uniform(0, 20), rng.uniform(-8, 8), rng.uniform(-1.5, -0.5),
                     rng.uniform(3, 5), rng.uniform(1.4, 2), rng.uniform(1.3, 1.8),
                     rng.uniform(-math.pi, math.pi)) for _ in range(rng.integers(0, 6))]
        gts += [gts[i] for i in rng.integers(0, len(gts), 2)] if gts else []  # IoU ties
        near = [Box3D(*(g.as_array() + rng.normal(0, [0.4, 0.4, 0.2, 0.3, 0.1, 0.1, 0.15])))
                for g in gts for _ in range(rng.integers(0, 3))]
        far = [Box3D(rng.uniform(0, 20), rng.uniform(-8, 8), -1, 4, 1.7, 1.5,
                     rng.uniform(-math.pi, math.pi)) for _ in range(rng.integers(0, 4))]
        dets = near + far
        scores = rng.integers(0, 4, len(dets)) / 4  # many tied scores
        for threshold in (0.3, 0.5, 0.7):
            order, tp, gt_idx = match_detections(dets, scores, gts, threshold, metric)
            want = greedy_match(dets, scores, gts, threshold, oracle_iou)
            assert (list(order), list(tp), list(gt_idx)) == want
            hits += int(tp.sum())
    assert hits > 100


def test_removing_a_false_positive_never_lowers_ap():
    rng = np.random.default_rng(0)
    gts = far_apart(4)
    dets = list(gts) + [box_at(33, 40), box_at(91, 40)]
    scores = list(rng.uniform(0.2, 1.0, len(dets)))
    for interp in (11, 40):
        base = evaluate_detections([(dets, scores, gts)], 0.5, interp).overall.ap
        for drop in (4, 5):
            kept = [d for i, d in enumerate(dets) if i != drop]
            kept_scores = [s for i, s in enumerate(scores) if i != drop]
            assert evaluate_detections([(kept, kept_scores, gts)], 0.5, interp).overall.ap >= base


def test_ap_invariant_under_monotone_score_rescale():
    rng = np.random.default_rng(1)
    gts = far_apart(3)
    dets = [gts[0], box_at(20, 30), gts[2], box_at(80, 30)]
    scores = np.array([0.9, 0.6, 0.4, 0.2])
    for interp in (11, 40):
        a = evaluate_detections([(dets, scores, gts)], 0.5, interp).overall
        b = evaluate_detections([(dets, 2.0 * scores + 1.0, gts)], 0.5, interp).overall
        c = evaluate_detections([(dets, np.tanh(scores), gts)], 0.5, interp).overall
        assert a.ap == b.ap == c.ap
        np.testing.assert_array_equal(a.precision, b.precision)


def test_11_and_40_point_stay_within_envelope():
    rng = np.random.default_rng(2)
    for trial in range(10):
        gts = far_apart(int(rng.integers(2, 6)))
        dets, scores = [], []
        for g in gts:
            if rng.uniform() < 0.8:
                dets.append(g)
                scores.append(float(rng.uniform(0.3, 1)))
        for _ in range(int(rng.integers(0, 4))):
            dets.append(box_at(rng.uniform(0, 100), 35.0))
            scores.append(float(rng.uniform(0.3, 1)))
        a11 = evaluate_detections([(dets, scores, gts)], 0.5, 11).overall.ap
        a40 = evaluate_detections([(dets, scores, gts)], 0.5, 40).overall.ap
        assert abs(a11 - a40) < 10.0


def test_3d_metric_penalizes_vertical_offset():
    gt = box_at(0, 0, z=0.0, h=2.0)
    lifted = box_at(0, 0, z=1.0, h=2.0)  # half-height overlap
    bev = evaluate_detections([([lifted], [0.9], [gt])], 0.5, 40, METRIC_BEV).overall
    vol = evaluate_detections([([lifted], [0.9], [gt])], 0.5, 40, METRIC_3D).overall
    assert bev.ap == 100.0
    # 3d IoU = 1/(2-1) * ... intersection 1, union 3 -> 1/3 < 0.5
    assert vol.ap == 0.0


def test_interpolated_ap_validates_grid():
    with pytest.raises(ValueError, match="11 or 40"):
        interpolated_ap(np.ones(1), np.ones(1), 25)


def test_distance_buckets():
    assert distance_bucket(box_at(3, 4)) == "0-20"
    assert distance_bucket(box_at(12, 16)) == "20-40"  # hypot exactly 20 goes up
    assert distance_bucket(box_at(20, 0)) == "20-40"
    assert distance_bucket(box_at(30, 20)) == "20-40"
    assert distance_bucket(box_at(40, 30)) == "40+"


def test_evaluate_detections_pools_across_scenes():
    g1 = [box_at(5, 0)]
    g2 = [box_at(30, 0), box_at(50, 0)]
    per_scene = [
        (g1, np.array([0.9]), g1),
        (g2 + [box_at(70, 20)], np.array([0.8, 0.7, 0.6]), g2),
    ]
    rep = evaluate_detections(per_scene, 0.5, 40)
    assert rep.n_scenes == 2
    assert rep.overall.n_gt == 3
    assert rep.overall.true_positives == 3
    assert rep.overall.false_positives == 1
    assert rep.buckets["0-20"].n_gt == 1
    assert rep.buckets["20-40"].n_gt == 1
    assert rep.buckets["40+"].n_gt == 1
    # detections cannot match gts from another scene
    cross = [(g2, np.array([0.9, 0.8]), g1)]
    rep2 = evaluate_detections(cross, 0.5, 40)
    assert rep2.overall.true_positives == 0


def test_bucket_recall_stays_bounded_for_straddling_match():
    # gt just inside the near bucket, matched by a det whose own center
    # crosses the boundary; the hit must count in the gt's bucket
    gt = [box_at(19.9, 0)]
    det = [box_at(20.05, 0)]
    rep = evaluate_detections([(det, np.array([0.9]), gt)], 0.5, 40)
    near, far = rep.buckets["0-20"], rep.buckets["20-40"]
    assert near.true_positives == 1
    assert near.n_gt == 1
    assert near.recall.max() <= 1.0
    assert far.n_detections == 0
    assert far.n_gt == 0
    # a miss at the same spot stays with the detection's own bucket
    rep2 = evaluate_detections([(det, np.array([0.9]), [])], 0.5, 40)
    assert rep2.buckets["20-40"].false_positives == 1


def test_empty_dataset_gives_empty_report():
    rep = evaluate_detections([], 0.5, 40)
    assert rep.n_scenes == 0
    assert rep.overall.undefined
    assert rep.overall.ap == 0.0


def test_report_text_is_stable_and_complete():
    g1 = [box_at(5, 0)]
    rep = evaluate_detections([(g1, np.array([0.9]), g1)], 0.5, 40)
    text = format_report(rep)
    assert text == format_report(rep)
    assert "scenes 1" in text
    assert "overall ap 100.0" in text
    assert "bucket 0-20" in text
    empty = format_report(evaluate_detections([], 0.5, 40))
    assert "undefined" in empty


def test_infer_detections_schema_on_untrained_model():
    net = NetworkConfig(grid=mini_grid())
    params = init_params(net, seed=0)
    rng = np.random.default_rng(3)
    cloud = PointCloud(np.column_stack([
        rng.uniform(10, 20, 30), rng.uniform(-5, 5, 30),
        rng.uniform(-1.5, 0.5, 30), rng.uniform(0, 1, 30)]))
    anchors = generate_anchors(net.bev_shape, net.grid)
    boxes, scores = infer_detections(params, cloud, net, anchors, score_threshold=0.0)
    assert len(boxes) == len(scores)
    assert all(isinstance(b, Box3D) for b in boxes)
    assert (np.diff(scores) <= 1e-15).all()  # best-first ordering
    rep = evaluate(params, [(cloud, [box_at(15, 0)])], net,
                   iou_threshold=0.5, score_threshold=0.0)
    assert isinstance(rep, EvalReport)
    assert rep.n_scenes == 1


def test_evaluate_detects_with_the_given_anchors(monkeypatch):
    net = NetworkConfig(grid=mini_grid())
    anchors = AnchorConfig(dims=(4.4, 1.9, 1.7), z_center=-0.6)
    seen = []
    infer = evaluation.infer_detections

    def spy(params, cloud, net_config, anchor_grid, *rest):
        seen.append(anchor_grid)
        return infer(params, cloud, net_config, anchor_grid, *rest)

    monkeypatch.setattr(evaluation, "infer_detections", spy)
    rng = np.random.default_rng(4)
    cloud = PointCloud(np.column_stack([
        rng.uniform(10, 20, 30), rng.uniform(-5, 5, 30),
        rng.uniform(-1.5, 0.5, 30), rng.uniform(0, 1, 30)]))
    evaluate(init_params(net, seed=0), [(cloud, [box_at(15, 0)])], net, anchors=anchors)
    want = generate_anchors(net.bev_shape, net.grid, dims=anchors.dims,
                            z_center=anchors.z_center)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], want)
