"""Whole-package acceptance checks.

Each test owns one release gate and is written against an independent
reference: a dense oracle, finite differences, a Monte-Carlo estimate,
an exhaustive search, or a paired training run. The heavyweight
experiments live in module fixtures so the rerun gate at the bottom can
repeat them and compare artifacts byte for byte.
"""
import math
import os
import time

import numpy as np
import pytest

from voxdet import engine, verify
from voxdet.adaptation import ReweightingMap, association_loss, offset_length_map, reweighting_map
from voxdet.conceptual import (
    bin_index,
    build_instance_bank,
    compose_conceptual_scene,
    match_candidate,
)
from voxdet.detection_head import generate_anchors
from voxdet.engine import Tensor
from voxdet.evaluation import evaluate_detections, format_report, infer_detections
from voxdet.geometry import Box3D, PointCloud, avg_closest_point_distance, points_in_box, rotated_iou_bev
from voxdet.synthetic import SceneRecipe, synth_scene
from voxdet.trainer import ScenePair, TrainConfig, format_loss_log, train_associate, train_cfg
from helpers import mini_run_config

GRAD_OPS = ("linear", "conv2d", "deform_conv2d", "sparse_conv",
            "focal_loss", "smooth_l1", "association_loss")


# ---------------------------------------------------------------------------
# shared experiment runs (rerun verbatim by the determinism gate)

def _net():
    return mini_run_config().network


def _ap_and_report(params, clouds_boxes, net, anchors):
    per = []
    for cloud, boxes in clouds_boxes:
        dets, scores = infer_detections(params, cloud, net, anchors,
                                        0.1, 0.5, "printed")
        per.append((dets, scores, boxes))
    report = evaluate_detections(per, 0.5, 40, "bev")
    return report.overall.ap, format_report(report)


def _matcher_experiment():
    """Six scenes composed against a 24-bin bank; returns comparable blobs."""
    scenes = [synth_scene(SceneRecipe(n_cars=4, base_points=200), [3, i])
              for i in range(6)]
    bank = build_instance_bank(scenes, m_bins=24, k_percent=20.0, min_points=8)
    rows = []
    blobs = []
    composed_all = []
    for cloud, boxes in scenes:
        composed, matches = compose_conceptual_scene(cloud, boxes, bank)
        composed_all.append(composed)
        blobs.append(composed.data.tobytes())
        for m in matches:
            rows.append(f"{m.candidate_id} {m.distance!r}")
    return {"scenes": scenes, "bank": bank, "composed": composed_all,
            "blobs": blobs, "log": "\n".join(rows)}


def _overfit_experiment(ckpt_path):
    """One composed scene, 200 epochs on the reference branch."""
    t0 = time.perf_counter()
    cloud, boxes = synth_scene(SceneRecipe(n_cars=2, base_points=240), [41, 0])
    bank = build_instance_bank([(cloud, boxes)])
    composed, _ = compose_conceptual_scene(cloud, boxes, bank)
    net = _net()
    params, log = train_cfg([(composed, boxes)], net,
                            TrainConfig(batch_size=1, epochs=200, seed=0,
                                        augment=False))
    anchors = generate_anchors(net.bev_shape, net.grid)
    ap, report = _ap_and_report(params, [(composed, boxes)], net, anchors)
    engine.save_checkpoint(ckpt_path, params)
    with open(ckpt_path, "rb") as fh:
        ckpt = fh.read()
    return {"log": format_loss_log(log), "first": log[0].total,
            "last": log[-1].total, "ap": ap, "report": report,
            "ckpt": ckpt, "elapsed": time.perf_counter() - t0}


def _smoothing_experiment():
    """Ten scene pairs; the live branch trained with and without alignment."""
    t0 = time.perf_counter()
    recipe = SceneRecipe(n_cars=3, base_points=200)
    scenes = [synth_scene(recipe, [0, i]) for i in range(10)]
    bank = build_instance_bank(scenes)
    pairs = []
    for cloud, boxes in scenes:
        composed, _ = compose_conceptual_scene(cloud, boxes, bank)
        pairs.append(ScenePair(cloud, composed, tuple(boxes)))
    net = _net()
    anchors = generate_anchors(net.bev_shape, net.grid)

    cfg_params, cfg_log = train_cfg(
        [(p.conceptual, p.boxes) for p in pairs], net,
        TrainConfig(batch_size=2, epochs=60, seed=0, augment=False))
    ap_conceptual, report_conceptual = _ap_and_report(
        cfg_params, [(p.conceptual, p.boxes) for p in pairs], net, anchors)
    ap_real_cfg, report_real_cfg = _ap_and_report(
        cfg_params, [(p.real, p.boxes) for p in pairs], net, anchors)

    arms = {}
    for sigma in (0.5, 0.0):
        tc = TrainConfig(batch_size=2, epochs=10, seed=1, sigma=sigma,
                         augment=False)
        params, log = train_associate(pairs, cfg_params, net, tc)
        ap, report = _ap_and_report(params,
                                    [(p.real, p.boxes) for p in pairs],
                                    net, anchors)
        arms[sigma] = {"log": format_loss_log(log), "ap": ap,
                       "report": report, "assoc_first": log[0].assoc,
                       "assoc_last": log[-1].assoc}
    return {"cfg_log": format_loss_log(cfg_log), "arms": arms,
            "ap_conceptual": ap_conceptual, "ap_real_cfg": ap_real_cfg,
            "report_conceptual": report_conceptual,
            "report_real_cfg": report_real_cfg,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def matcher_run():
    return _matcher_experiment()


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("overfit") / "ref.ckpt"
    return _overfit_experiment(str(path))


@pytest.fixture(scope="module")
def smoothing_run():
    return _smoothing_experiment()


# ---------------------------------------------------------------------------
# gates

def test_sparse_conv_agrees_with_dense_reference():
    t0 = time.perf_counter()
    worst = verify.run_sparse_oracle(n_cases=200, seed=0)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 60.0
    print(f"PASS sparse conv oracle: 200 cases, max abs err {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_gradient_suite_matches_finite_differences():
    t0 = time.perf_counter()
    errs = verify.run_gradient_suite(seed=0)
    elapsed = time.perf_counter() - t0
    assert sorted(errs) == sorted(GRAD_OPS)
    for name in GRAD_OPS:
        assert errs[name] < 1e-5, name
    assert elapsed < 120.0
    worst = max(errs.values())
    print(f"PASS gradient suite: {len(errs)} ops, max rel err {worst:.3e}, "
          f"{elapsed:.1f}s")


def test_box_codec_roundtrips_both_conventions():
    worst = verify.run_codec_roundtrip(10000)
    assert worst < 1e-9
    print(f"PASS codec roundtrip: 10000 pairs x 2 conventions, "
          f"max field err {worst:.3e}")


def test_feature_alignment_hand_cases_and_reweighting():
    # single foreground pixel, feature gap (3, 4), reweight 1:
    # (1 + 1) * hypot(3, 4) / 1 pixel = 10
    rw = ReweightingMap(np.array([[1.0]]), np.array([[1.0]]))
    f_p = Tensor(np.array([3.0, 4.0]).reshape(2, 1, 1), requires_grad=True)
    loss = association_loss(f_p, np.zeros((2, 1, 1)), rw)
    assert loss.item() == pytest.approx(10.0, abs=1e-10)

    # offset lengths average per pixel over (dy, dx) pairs
    off = np.zeros((2, 2, 2))
    off[0, 0, 0], off[1, 0, 0] = 3.0, 4.0
    lengths = offset_length_map(off)
    assert lengths[0, 0] == pytest.approx(5.0, abs=1e-12)
    assert lengths.sum() == pytest.approx(5.0, abs=1e-12)
    two_pairs = np.array([3.0, 4.0, 0.0, 0.0]).reshape(4, 1, 1)
    assert offset_length_map(two_pairs)[0, 0] == pytest.approx(2.5, abs=1e-12)

    rng = np.random.default_rng(7)
    saw_active = saw_empty = False
    for _ in range(100):
        h, w = rng.integers(1, 9, size=2)
        lengths = rng.uniform(0.0, 4.0, size=(h, w))
        lengths *= rng.random((h, w)) < 0.7
        fg = (rng.random((h, w)) < 0.4).astype(float)
        rw = reweighting_map(lengths, fg)
        masked = lengths * fg
        assert rw.values.shape == (h, w)
        assert rw.values.min() >= 0.0 and rw.values.max() <= 1.0
        assert not np.any((rw.values > 0) & (rw.foreground == 0))
        if masked.max() > 0.0:
            saw_active = True
            assert rw.values.max() == 1.0
            assert np.array_equal(rw.values, masked / masked.max())
        else:
            saw_empty = True
            assert not rw.values.any()
    assert saw_active and saw_empty
    print("PASS feature alignment: 3-4-5 pixel -> 10.0, "
          "reweighting support/range/max-norm on 100 cases")


def test_matching_is_exhaustive_and_composition_replaces_objects(matcher_run):
    scenes, bank = matcher_run["scenes"], matcher_run["bank"]
    n_objects = 0
    for cloud, boxes in scenes:
        for box in boxes:
            crop = PointCloud(cloud.data[points_in_box(cloud, box)])
            got = match_candidate(crop, box, bank)
            ids = bank.candidate_ids_for_bin(bin_index(box.yaw, bank.m_bins))
            if len(crop) == 0:
                assert got.candidate_id == ids[0]
                assert math.isinf(got.distance)
                continue
            # hand-rolled canonical frame: shift to the box center, then
            # rotate the yaw away
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            rel = crop.xyz - box.center
            local = np.column_stack([rel[:, 0] * c + rel[:, 1] * s,
                                     rel[:, 1] * c - rel[:, 0] * s,
                                     rel[:, 2]])
            best_id, best_d = ids[0], math.inf
            for cid in ids:
                d = avg_closest_point_distance(
                    PointCloud.from_xyz(local, crop.intensity),
                    bank.instances[cid].local_points)
                if d < best_d:
                    best_id, best_d = cid, d
            assert got.candidate_id == best_id
            assert got.distance == pytest.approx(best_d, abs=1e-9)
            n_objects += 1
    assert n_objects >= 20

    # every bank member finds itself at exactly zero distance
    member_ids = sorted({cid for bin_ids in bank.candidates for cid in bin_ids})
    assert member_ids
    for cid in member_ids:
        inst = bank.instances[cid]
        cloud, boxes = scenes[inst.scene_id]
        box = boxes[inst.instance_idx]
        crop = PointCloud(cloud.data[points_in_box(cloud, box)])
        again = match_candidate(crop, box, bank)
        assert again.candidate_id == cid
        assert again.distance == 0.0

    # composition: inside each box only the placed model points remain
    for (cloud, boxes), composed in zip(scenes, matcher_run["composed"]):
        _, matches = compose_conceptual_scene(cloud, boxes, bank)
        for box, m in zip(boxes, matches):
            inside = composed.xyz[points_in_box(composed, box)]
            got = {tuple(np.round(p, 9)) for p in inside}
            want = {tuple(np.round(p, 9)) for p in m.model_points.xyz}
            assert got == want
    print(f"PASS conceptual matching: {n_objects} objects equal exhaustive "
          f"search, {len(member_ids)} self-matches at 0.0, "
          "composition keeps no original object points")


def test_rotated_iou_agrees_with_monte_carlo():
    box = Box3D(1.0, -2.0, 0.0, 3.9, 1.6, 1.5, 0.77)
    assert rotated_iou_bev(box, box) == pytest.approx(1.0, abs=1e-9)
    far = Box3D(50.0, 50.0, 0.0, 3.9, 1.6, 1.5, -0.3)
    assert rotated_iou_bev(box, far) == pytest.approx(0.0, abs=1e-9)
    a = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
    b = Box3D(1.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
    assert rotated_iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)

    rng = np.random.default_rng(2026)
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        cx, cy = rng.uniform(-3, 3, size=2)
        w, l = rng.uniform(1.5, 4.0, size=2)
        a = Box3D(cx, cy, 0.0, l, w, 1.5, rng.uniform(-np.pi, np.pi))
        dx, dy = rng.uniform(-1.5, 1.5, size=2)
        w2, l2 = rng.uniform(1.5, 4.0, size=2)
        b = Box3D(cx + dx, cy + dy, 0.0, l2, w2, 1.5,
                  rng.uniform(-np.pi, np.pi))
        dev = abs(rotated_iou_bev(a, b) - verify.mc_iou_bev(a, b, 1_000_000, seed=i))
        worst = max(worst, dev)
        assert dev < 1e-2
    print(f"PASS rotated IoU: fixtures exact, 1000 pairs vs 1e6-sample MC, "
          f"max dev {worst:.4f}, {time.perf_counter() - t0:.0f}s")


def test_reference_branch_overfits_one_scene(overfit_run):
    ratio = overfit_run["first"] / overfit_run["last"]
    assert ratio >= 10.0
    assert overfit_run["ap"] == 100.0
    assert overfit_run["elapsed"] < 600.0
    print(f"PASS one-scene overfit: loss {overfit_run['first']:.3f} -> "
          f"{overfit_run['last']:.2e} ({ratio:.0f}x), AP {overfit_run['ap']}, "
          f"{overfit_run['elapsed']:.0f}s")


def test_alignment_term_improves_ap_on_real_scenes(smoothing_run):
    with_term = smoothing_run["arms"][0.5]
    without = smoothing_run["arms"][0.0]
    assert with_term["ap"] > without["ap"]
    assert with_term["assoc_last"] < with_term["assoc_first"]
    assert smoothing_run["elapsed"] < 1800.0
    print(f"PASS paired ablation: AP {with_term['ap']:.2f} (sigma 0.5) > "
          f"{without['ap']:.2f} (sigma 0), assoc "
          f"{with_term['assoc_first']:.3f} -> {with_term['assoc_last']:.3f}, "
          f"{smoothing_run['elapsed']:.0f}s")


def test_composed_scenes_score_higher_than_real(smoothing_run):
    assert smoothing_run["ap_conceptual"] > smoothing_run["ap_real_cfg"]
    print(f"PASS dense-twin gap: reference branch AP "
          f"{smoothing_run['ap_conceptual']:.2f} on composed vs "
          f"{smoothing_run['ap_real_cfg']:.2f} on real scenes")


def test_reruns_are_byte_identical(matcher_run, overfit_run, smoothing_run,
                                   tmp_path):
    again = _matcher_experiment()
    assert again["log"] == matcher_run["log"]
    assert again["blobs"] == matcher_run["blobs"]

    again = _overfit_experiment(str(tmp_path / "ref.ckpt"))
    assert again["log"] == overfit_run["log"]
    assert again["report"] == overfit_run["report"]
    assert again["ckpt"] == overfit_run["ckpt"]

    again = _smoothing_experiment()
    assert again["cfg_log"] == smoothing_run["cfg_log"]
    assert again["report_conceptual"] == smoothing_run["report_conceptual"]
    assert again["report_real_cfg"] == smoothing_run["report_real_cfg"]
    for sigma in (0.5, 0.0):
        assert again["arms"][sigma]["log"] == smoothing_run["arms"][sigma]["log"]
        assert again["arms"][sigma]["report"] == smoothing_run["arms"][sigma]["report"]
    print("PASS determinism: matcher, overfit, and ablation reruns are "
          "byte-identical (logs, reports, checkpoint)")
