import math

import numpy as np
import pytest

from voxdet.conceptual import (
    BankInstance,
    bin_index,
    build_instance_bank,
    compose_conceptual_scene,
    from_canonical,
    match_candidate,
    refine_and_place,
    to_canonical,
)
from voxdet.geometry import Box3D, PointCloud, avg_closest_point_distance, points_in_box


def make_car(box: Box3D, n: int, seed: int) -> np.ndarray:
    """n points strictly inside the box, in world frame, shape (n, 4)."""
    rng = np.random.default_rng(seed)
    local = rng.uniform(-0.45, 0.45, size=(n, 3)) * box.dims
    cloud = from_canonical(PointCloud.from_xyz(local), box)
    return np.column_stack([cloud.xyz, rng.uniform(0, 1, n)])


def scene_with(boxes_counts, seed=0, background=50):
    """Build (cloud, boxes) with given per-box point counts plus background."""
    rng = np.random.default_rng(seed + 999)
    parts = []
    boxes = []
    for i, (box, n) in enumerate(boxes_counts):
        parts.append(make_car(box, n, seed * 100 + i))
        boxes.append(box)
    bg = np.column_stack([rng.uniform(-30, 30, (background, 2)),
                          rng.uniform(-1, 1, (background, 1)),
                          rng.uniform(0, 1, (background, 1))])
    # keep background points out of every box
    keep = np.ones(background, dtype=bool)
    cloud_bg = PointCloud(bg)
    for box in boxes:
        keep[points_in_box(cloud_bg, box)] = False
    parts.append(bg[keep])
    return PointCloud(np.vstack(parts)), boxes


def car_box(cx, cy, yaw, l=3.9, w=1.6, h=1.5, cz=0.0):
    return Box3D(cx, cy, cz, l, w, h, yaw)


def test_bin_index_arithmetic():
    m = 24  # 15 degree bins
    assert bin_index(-math.pi, m) == 0
    assert bin_index(0.0, m) == 12
    assert bin_index(math.pi - 1e-9, m) == 23
    assert bin_index(-math.pi + math.radians(15) - 1e-9, m) == 0
    assert bin_index(-math.pi + math.radians(15) + 1e-9, m) == 1


def test_canonical_roundtrip_and_containment():
    box = car_box(5.0, -3.0, 0.7)
    pts = PointCloud(make_car(box, 40, 1))
    local = to_canonical(pts, box)
    assert (np.abs(local.xyz) <= box.dims / 2 + 1e-9).all()
    back = from_canonical(local, box)
    np.testing.assert_allclose(back.xyz, pts.xyz, atol=1e-12)
    np.testing.assert_array_equal(back.intensity, pts.intensity)


def test_top_k_selection_single_bin():
    # five same-yaw cars with point counts [10, 50, 30, 20, 40], K=20 -> just the 50
    counts = [10, 50, 30, 20, 40]
    scenes = []
    for i, n in enumerate(counts):
        box = car_box(10.0 * i, 0.0, 0.3)
        cloud = PointCloud(make_car(box, n, i))
        scenes.append((cloud, [box]))
    bank = build_instance_bank(scenes, m_bins=24, k_percent=20)
    b = bin_index(0.3, 24)
    assert bank.candidates[b] == (1,)
    assert bank.instances[1].point_count == 50


def test_candidate_count_formula_and_ranking():
    # 12 cars in one bin, K=20 -> ceil(2.4) = 3 candidates, the densest three
    counts = [12, 80, 45, 33, 91, 27, 60, 18, 50, 39, 71, 24]
    scenes = []
    for i, n in enumerate(counts):
        box = car_box(5.0 * i, 0.0, -0.2)
        scenes.append((PointCloud(make_car(box, n, 50 + i)), [box]))
    bank = build_instance_bank(scenes, m_bins=24, k_percent=20)
    b = bin_index(-0.2, 24)
    # manual ranking: counts 91 (id 4), 80 (id 1), 71 (id 10)
    assert bank.candidates[b] == (4, 1, 10)
    assert len(bank.candidates[b]) == math.ceil(0.2 * 12)


def test_tie_break_prefers_lower_scene_then_instance():
    box_a = car_box(5, 0, 0.1)
    box_b = car_box(15, 0, 0.1)
    box_c = car_box(25, 0, 0.1)
    cloud_ab = PointCloud(np.vstack([make_car(box_a, 30, 7), make_car(box_b, 30, 8)]))
    cloud_c = PointCloud(make_car(box_c, 30, 9))
    bank = build_instance_bank([(cloud_ab, [box_a, box_b]), (cloud_c, [box_c])],
                               m_bins=24, k_percent=34)  # ceil(.34*3)=2 of 3
    b = bin_index(0.1, 24)
    assert bank.candidates[b] == (0, 1)  # equal counts: scene 0 first, then instance order


def test_candidate_sets_nested_in_k():
    rng = np.random.default_rng(3)
    scenes = []
    for i in range(10):
        box = car_box(4.0 * i, 0.0, 0.5)
        scenes.append((PointCloud(make_car(box, int(rng.integers(10, 90)), 200 + i)), [box]))
    small = build_instance_bank(scenes, k_percent=20)
    big = build_instance_bank(scenes, k_percent=60)
    for b in range(24):
        assert set(small.candidates[b]) <= set(big.candidates[b])
        assert small.candidates[b] == big.candidates[b][:len(small.candidates[b])]


def test_min_point_floor_excludes_sparse_candidates():
    box1 = car_box(5, 0, 1.2)
    box2 = car_box(15, 0, 1.2)
    scenes = [(PointCloud(make_car(box1, 5, 10)), [box1]),
              (PointCloud(make_car(box2, 40, 11)), [box2])]
    bank = build_instance_bank(scenes, k_percent=100)
    b = bin_index(1.2, 24)
    assert bank.candidates[b] == (1,)  # the 5-point car is below the floor


def test_build_errors():
    with pytest.raises(ValueError, match="no labeled objects"):
        build_instance_bank([(PointCloud.empty(), [])])
    box = car_box(5, 0, 0.0)
    scenes = [(PointCloud(make_car(box, 30, 1)), [box])]
    with pytest.raises(ValueError, match="m_bins"):
        build_instance_bank(scenes, m_bins=0)
    with pytest.raises(ValueError, match="k_percent"):
        build_instance_bank(scenes, k_percent=0.0)
    sparse = [(PointCloud(make_car(box, 3, 2)), [box])]
    with pytest.raises(ValueError, match="point floor"):
        build_instance_bank(sparse)


def test_self_match_distance_exactly_zero():
    boxes_counts = [(car_box(5, 2, 0.4), 60), (car_box(15, -3, 0.45), 25)]
    cloud, boxes = scene_with(boxes_counts, seed=4)
    bank = build_instance_bank([(cloud, boxes)], k_percent=100)
    idx = points_in_box(cloud, boxes[0])
    m = match_candidate(PointCloud(cloud.data[idx]), boxes[0], bank)
    assert m.candidate_id == 0
    assert m.distance == 0.0  # bit-exact, not approx


def test_singleton_bin_matches_regardless_of_distance():
    box_cand = car_box(5, 0, 0.2)
    scenes = [(PointCloud(make_car(box_cand, 40, 20)), [box_cand])]
    bank = build_instance_bank(scenes, k_percent=100)
    target_box = car_box(50, 8, 0.2, l=4.5, w=1.8, h=1.6)
    target_pts = PointCloud(make_car(target_box, 6, 21))
    m = match_candidate(target_pts, target_box, bank)
    assert m.candidate_id == 0
    assert m.distance > 0


def test_match_equals_exhaustive_oracle_and_same_bin():
    rng = np.random.default_rng(5)
    scenes = []
    yaws = [0.31, 0.33, 0.29, 0.35, 1.9, -2.0]  # first four share a bin
    for i, yaw in enumerate(yaws):
        box = car_box(6.0 * i, 0.0, yaw)
        scenes.append((PointCloud(make_car(box, int(rng.integers(30, 80)), 300 + i)), [box]))
    bank = build_instance_bank(scenes, k_percent=100)
    target_box = car_box(3.0, 12.0, 0.32)
    target_pts = PointCloud(make_car(target_box, 12, 400))
    m = match_candidate(target_pts, target_box, bank)

    tb = bin_index(target_box.yaw, bank.m_bins)
    target_local = to_canonical(target_pts, target_box)
    dists = {}
    for cid in bank.candidates[tb]:
        cand = bank.instances[cid]
        dists[cid] = avg_closest_point_distance(target_local, cand.local_points)
    assert bank.instances[m.candidate_id].bin_idx == tb
    assert m.candidate_id == min(dists, key=lambda c: (dists[c], list(dists).index(c)))
    assert all(m.distance <= d + 1e-15 for d in dists.values())


def test_empty_bin_circular_fallback():
    box_a = car_box(5, 0, 0.0)    # bin 12 (of 24)
    box_b = car_box(15, 0, 2.0)   # bin far away
    scenes = [(PointCloud(make_car(box_a, 40, 30)), [box_a]),
              (PointCloud(make_car(box_b, 40, 31)), [box_b])]
    bank = build_instance_bank(scenes, k_percent=100)
    # target yaw in an empty bin right next to bin 12
    target_box = car_box(20, 5, 0.3)
    assert bank.candidates[bin_index(0.3, 24)] == ()
    m = match_candidate(PointCloud(make_car(target_box, 10, 32)), target_box, bank)
    assert m.candidate_id == 0  # nearest non-empty bin circularly is box_a's


def test_fallback_tie_prefers_lower_bin_index():
    # two candidates at circular distance 1 on either side of the target bin
    width = math.radians(15)
    target_yaw = -math.pi + 2.5 * width   # bin 2
    yaw_lo = -math.pi + 1.5 * width       # bin 1
    yaw_hi = -math.pi + 3.5 * width       # bin 3
    box_lo = car_box(5, 0, yaw_lo)
    box_hi = car_box(15, 0, yaw_hi)
    scenes = [(PointCloud(make_car(box_hi, 40, 33)), [box_hi]),
              (PointCloud(make_car(box_lo, 40, 34)), [box_lo])]
    bank = build_instance_bank(scenes, k_percent=100)
    target_box = car_box(25, 3, target_yaw)
    m = match_candidate(PointCloud(make_car(target_box, 10, 35)), target_box, bank)
    assert bank.instances[m.candidate_id].bin_idx == 1  # lower bin index wins the tie


def test_refine_unit_scale_is_rigid():
    box_c = car_box(5, 1, 0.6)
    cand_pts = PointCloud(make_car(box_c, 30, 40))
    scenes = [(cand_pts, [box_c])]
    bank = build_instance_bank(scenes, k_percent=100)
    cand = bank.instances[0]
    target_box = car_box(20, -4, -1.1)  # same dims, different pose
    placed = refine_and_place(cand, target_box)
    rigid = from_canonical(cand.local_points, target_box)
    np.testing.assert_array_equal(placed.xyz, rigid.xyz)


def test_refine_doubles_length_axis():
    box_c = car_box(5, 1, 0.0)
    scenes = [(PointCloud(make_car(box_c, 30, 41)), [box_c])]
    bank = build_instance_bank(scenes, k_percent=100)
    cand = bank.instances[0]
    target_box = car_box(5, 1, 0.0, l=2 * box_c.l)
    placed = refine_and_place(cand, target_box)
    base = from_canonical(cand.local_points, box_c)
    got_extent = placed.xyz[:, 0].max() - placed.xyz[:, 0].min()
    want_extent = 2 * (base.xyz[:, 0].max() - base.xyz[:, 0].min())
    assert got_extent == pytest.approx(want_extent, abs=1e-12)


def test_refined_points_inside_target_box():
    rng = np.random.default_rng(6)
    scenes = []
    for i in range(5):
        box = car_box(6.0 * i, 0.0, rng.uniform(-math.pi, math.pi))
        scenes.append((PointCloud(make_car(box, 50, 500 + i)), [box]))
    bank = build_instance_bank(scenes, k_percent=100)
    for cid in range(5):
        target_box = car_box(rng.uniform(-10, 10), rng.uniform(-10, 10),
                             rng.uniform(-math.pi, math.pi),
                             l=rng.uniform(3, 5), w=rng.uniform(1.4, 2), h=rng.uniform(1.2, 1.8))
        placed = refine_and_place(bank.instances[cid], target_box)
        assert len(points_in_box(placed, target_box)) == len(placed)
    # points_in_box keeps a point 0.98e-9 m past a face when it crops the
    # candidate; scaled up 10% it must still land inside the target box
    box = car_box(0.0, 0.0, 0.0)
    edge = [[box.l / 2 + 0.98e-9, 0.0, 0.0, 0.5], [0.0, box.w / 2 + 0.98e-9, 0.0, 0.5]]
    cloud = PointCloud(np.vstack([make_car(box, 20, 510), edge]))
    bank = build_instance_bank([(cloud, [box])], k_percent=100)
    assert bank.instances[0].point_count == 22
    target_box = car_box(3.0, -2.0, 0.4, l=box.l * 1.1, w=box.w * 1.1)
    match = match_candidate(PointCloud(np.vstack(edge)), target_box, bank)
    assert len(points_in_box(match.model_points, target_box)) == 22


def test_compose_no_objects_is_identity():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.uniform(-10, 10, (30, 4)))
    box = car_box(100, 100, 0.0)  # bank needs at least one instance
    bank = build_instance_bank([(PointCloud(make_car(box, 30, 42)), [box])], k_percent=100)
    out, matches = compose_conceptual_scene(cloud, [], bank)
    np.testing.assert_array_equal(out.data, cloud.data)
    assert matches == []


def test_compose_self_replacement_preserves_multiset():
    boxes_counts = [(car_box(5, 2, 0.4), 60)]
    cloud, boxes = scene_with(boxes_counts, seed=8, background=20)
    bank = build_instance_bank([(cloud, boxes)], k_percent=100)
    out, matches = compose_conceptual_scene(cloud, boxes, bank)
    assert matches[0].distance == 0.0
    assert len(out) == len(cloud)
    a = np.array(sorted(map(tuple, np.round(out.data, 9))))
    b = np.array(sorted(map(tuple, np.round(cloud.data, 9))))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_compose_three_car_counting_oracle():
    boxes_counts = [
        (car_box(6, 3, 0.2), 50),
        (car_box(14, -5, 1.3), 15),
        (car_box(24, 2, -2.1), 35),
    ]
    cloud, boxes = scene_with(boxes_counts, seed=9, background=40)
    n_bg = len(cloud) - sum(n for _, n in boxes_counts)
    bank = build_instance_bank([(cloud, boxes)], k_percent=100)
    out, matches = compose_conceptual_scene(cloud, boxes, bank)
    assert len(out) == n_bg + sum(len(m.model_points) for m in matches)
    # per-box counts in the composed scene equal the matched model counts
    for box, m in zip(boxes, matches):
        assert len(points_in_box(out, box)) == len(m.model_points)


def test_compose_removes_all_original_object_points():
    boxes_counts = [(car_box(6, 3, 0.9), 20), (car_box(18, -2, -0.7), 45)]
    cloud, boxes = scene_with(boxes_counts, seed=10, background=30)
    # a second scene so each target matches the OTHER scene's denser car
    boxes2 = [car_box(7, 1, 0.9), car_box(19, 0, -0.7)]
    cloud2, _ = scene_with([(boxes2[0], 80), (boxes2[1], 90)], seed=11, background=10)
    bank = build_instance_bank([(cloud2, boxes2)], k_percent=100)
    out, matches = compose_conceptual_scene(cloud, boxes, bank)
    for box, m in zip(boxes, matches):
        inside = out.data[points_in_box(out, box)]
        model = m.model_points.data
        assert len(inside) == len(model)
        got = set(map(tuple, np.round(inside, 9)))
        want = set(map(tuple, np.round(model, 9)))
        assert got == want  # nothing inside the box except the placed model


def test_compose_zero_point_target_falls_back():
    box_cand = car_box(5, 0, 0.0)
    bank = build_instance_bank([(PointCloud(make_car(box_cand, 40, 43)), [box_cand])],
                               k_percent=100)
    empty_box = car_box(20, 8, 0.05)
    cloud = PointCloud(np.column_stack([np.full((10, 1), -20.0),
                                        np.zeros((10, 1)), np.zeros((10, 1)),
                                        np.zeros((10, 1))]))
    out, matches = compose_conceptual_scene(cloud, [empty_box], bank)
    assert matches[0].distance == math.inf
    assert matches[0].candidate_id == 0
    assert len(points_in_box(out, empty_box)) == len(matches[0].model_points) > 0
