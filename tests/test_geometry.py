import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxdet import geometry
from voxdet.geometry import (
    Box3D,
    PointCloud,
    avg_closest_point_distance,
    box_corners_bev,
    normalize_angle,
    points_in_box,
    rotated_iou_3d_many,
    rotated_iou_bev,
    rotated_iou_bev_many,
    rotated_iou_bev_pairs,
)
from helpers import touching_pairs
from oracles import (
    brute_mean_closest,
    clip_iou_3d,
    clip_iou_bev,
    mc_iou_bev,
    one_to_many_area,
    one_to_many_iou_3d,
    one_to_many_iou_bev,
    polygon_area,
)


def test_normalize_angle_range():
    for a in [-10.0, -math.pi, 0.0, math.pi, 10.0, 123.456]:
        n = normalize_angle(a)
        assert -math.pi <= n < math.pi
        assert math.isclose(math.sin(n), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(n), math.cos(a), abs_tol=1e-12)


def test_a_sum_just_below_minus_pi_wraps_to_minus_pi():
    # one ulp below -pi: the remainder rounds up to 2 pi, which is 0 again
    below = float(np.nextafter(-math.pi, -4.0))
    assert Box3D(0, 0, 0, 1, 1, 1, below).yaw == -math.pi
    assert normalize_angle(below) == -math.pi
    assert normalize_angle(np.array([below, 0.0]))[0] == -math.pi


def test_box_validation():
    with pytest.raises(ValueError):
        Box3D(0, 0, 0, -1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Box3D(0, 0, 0, 1.0, 0.0, 1.0, 0.0)
    b = Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi)
    assert -math.pi <= b.yaw < math.pi


def test_corners_axis_aligned():
    b = Box3D(1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.0)
    c = box_corners_bev(b)
    expected = np.array([[3.0, 3.0], [-1.0, 3.0], [-1.0, 1.0], [3.0, 1.0]])
    np.testing.assert_allclose(c, expected, atol=1e-12)


def test_corners_rotation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cx, cy = rng.uniform(-10, 10, 2)
        l, w = rng.uniform(0.5, 5, 2)
        yaw = rng.uniform(-math.pi, math.pi)
        b = Box3D(cx, cy, 0.0, l, w, 1.0, yaw)
        c = box_corners_bev(b)
        rot = np.array([[math.cos(yaw), -math.sin(yaw)], [math.sin(yaw), math.cos(yaw)]])
        local = np.array([[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]])
        np.testing.assert_allclose(c, local @ rot.T + [cx, cy], atol=1e-12)
        # counter-clockwise: shoelace signed area positive
        x, y = c[:, 0], c[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
        assert signed > 0


def test_points_in_box_boundary_inclusive():
    b = Box3D(0, 0, 0, 2.0, 2.0, 2.0, 0.0)
    pts = PointCloud.from_xyz(np.array([
        [1.0, 0.0, 0.0],     # on +x face
        [0.0, -1.0, 0.0],    # on -y face
        [0.0, 0.0, 1.0],     # on +z face
        [1.0, 1.0, 1.0],     # corner
        [1.0001, 0.0, 0.0],  # just outside
        [0.0, 0.0, 0.0],     # center
    ]))
    idx = points_in_box(pts, b)
    assert idx.tolist() == [0, 1, 2, 3, 5]


def test_points_in_box_rotated_oracle():
    rng = np.random.default_rng(3)
    b = Box3D(1.0, -2.0, 0.5, 3.0, 1.5, 2.0, 0.7)
    pts = PointCloud.from_xyz(rng.uniform(-5, 5, size=(200, 3)))
    idx = points_in_box(pts, b)
    c, s = math.cos(b.yaw), math.sin(b.yaw)
    inside = []
    for i, p in enumerate(pts.xyz):
        dx, dy, dz = p - b.center
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        if abs(lx) <= b.l / 2 and abs(ly) <= b.w / 2 and abs(dz) <= b.h / 2:
            inside.append(i)
    assert idx.tolist() == inside


def test_iou_identical_boxes():
    b = Box3D(1.0, 2.0, 0.0, 3.9, 1.6, 1.56, 0.3)
    assert rotated_iou_bev(b, b) == pytest.approx(1.0, abs=1e-12)
    assert rotated_iou_3d_many(b.as_array(), b.as_array())[0] == pytest.approx(1.0, abs=1e-12)


def test_iou_disjoint_boxes():
    a = Box3D(0, 0, 0, 2, 2, 2, 0.0)
    b = Box3D(10, 0, 0, 2, 2, 2, 0.5)
    assert rotated_iou_bev(a, b) == 0.0
    assert rotated_iou_3d_many(a.as_array(), b.as_array())[0] == 0.0


def test_iou_half_overlap_exact():
    # unit squares offset by half: inter 0.5, union 1.5 -> exactly 1/3
    a = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
    b = Box3D(0.5, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
    assert rotated_iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_rotated_analytic():
    # 45-degree square on an identical axis-aligned square of side 2:
    # intersection is the full rotated square area minus 4 corner triangles.
    a = Box3D(0, 0, 0, 2.0, 2.0, 1.0, 0.0)
    b = Box3D(0, 0, 0, 2.0, 2.0, 1.0, math.pi / 4)
    inter = 8 * (math.sqrt(2) - 1)  # regular octagon, circumradius sqrt(2)*... known value
    expected = inter / (4 + 4 - inter)
    assert rotated_iou_bev(a, b) == pytest.approx(expected, abs=1e-10)


def test_iou_z_offset_3d():
    a = Box3D(0, 0, 0.0, 2, 2, 2, 0.0)
    b = Box3D(0, 0, 1.0, 2, 2, 2, 0.0)
    # BEV identical; z overlap 1 of 2 -> inter 4, union 16-4=12
    assert rotated_iou_3d_many(a.as_array(), b.as_array())[0] == pytest.approx(4.0 / 12.0, abs=1e-12)


def test_iou_monte_carlo_agreement():
    rng = np.random.default_rng(11)
    for i in range(20):
        a = Box3D(rng.uniform(-2, 2), rng.uniform(-2, 2), 0,
                  rng.uniform(1, 4), rng.uniform(1, 4), 1.0, rng.uniform(-math.pi, math.pi))
        b = Box3D(a.cx + rng.uniform(-2, 2), a.cy + rng.uniform(-2, 2), 0,
                  rng.uniform(1, 4), rng.uniform(1, 4), 1.0, rng.uniform(-math.pi, math.pi))
        exact = rotated_iou_bev(a, b)
        approx = mc_iou_bev(a, b, 200_000, seed=i)
        assert abs(exact - approx) < 0.01


@settings(max_examples=60, derandomize=True)
@given(
    cx=st.floats(-5, 5), cy=st.floats(-5, 5),
    l1=st.floats(0.5, 5), w1=st.floats(0.5, 5), y1=st.floats(-math.pi, math.pi - 1e-9),
    dx=st.floats(-3, 3), dy=st.floats(-3, 3),
    l2=st.floats(0.5, 5), w2=st.floats(0.5, 5), y2=st.floats(-math.pi, math.pi - 1e-9),
)
def test_iou_symmetry_and_range(cx, cy, l1, w1, y1, dx, dy, l2, w2, y2):
    a = Box3D(cx, cy, 0, l1, w1, 1.0, y1)
    b = Box3D(cx + dx, cy + dy, 0, l2, w2, 1.0, y2)
    iab = rotated_iou_bev(a, b)
    iba = rotated_iou_bev(b, a)
    assert iab == iba  # exact, not approximate
    assert 0.0 <= iab <= 1.0


def _many(box, others):
    got = rotated_iou_bev_many(box.as_array(), np.array([b.as_array() for b in others]))
    assert got.shape == (len(others),)
    assert np.isfinite(got).all() and (got >= 0.0).all() and (got <= 1.0).all()
    return got


def test_iou_many_matches_scalar_on_random_pairs():
    rng = np.random.default_rng(12)
    overlapping = 0
    for _ in range(200):
        a = Box3D(rng.uniform(-20, 20), rng.uniform(-20, 20), 0, rng.uniform(0.5, 5),
                  rng.uniform(0.5, 3), 1.0, rng.uniform(-math.pi, math.pi))
        others = [Box3D(a.cx + rng.uniform(-4, 4), a.cy + rng.uniform(-4, 4), 0,
                        rng.uniform(0.5, 5), rng.uniform(0.5, 3), 1.0,
                        rng.uniform(-math.pi, math.pi)) for _ in range(10)]
        want = np.array([clip_iou_bev(a, b) for b in others])
        np.testing.assert_allclose(_many(a, others), want, rtol=0, atol=1e-12)
        overlapping += int((want > 0).sum())
    assert overlapping > 500


def test_iou_many_hand_cases():
    a = Box3D(1.0, 2.0, 0.0, 3.9, 1.6, 1.56, 0.3)
    square = Box3D(-3.0, 4.0, 0.0, 2.0, 2.0, 1.0, 0.7)
    cases = [
        (a, a, 1.0),                                                    # identical
        (square, Box3D(-3.0, 4.0, 0.0, 2.0, 2.0, 1.0, 0.7 + math.pi / 2), 1.0),  # same square
        (a, Box3D(1.0, 2.0, 0.0, 2.0, 1.0, 1.0, 0.3), 2.0 / (3.9 * 1.6)),  # nested
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(4, 0, 0, 4, 2, 1, 0), 0.0),   # shared edge
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(4, 2, 0, 4, 2, 1, 0), 0.0),   # shared corner
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(1, 0, 0, 4, 2, 1, 0), 6.0 / 10.0),  # collinear edges
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(1, 0.5, 0, 4, 2, 1, 0), 4.5 / 11.5),  # parallel edges
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(0, 0, 0, 2, 2, 1, math.pi / 4),
         (4 - 2 * (math.sqrt(2) - 1) ** 2) / (8 + 4 - (4 - 2 * (math.sqrt(2) - 1) ** 2))),
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(4.3, 0, 0, 4, 2, 1, 0), 0.0),  # gated in, apart
        (Box3D(0, 0, 0, 4, 2, 1, 0), Box3D(4.5, 0, 0, 4, 2, 1, 0), 0.0),  # outside the gate
    ]
    with np.errstate(all="raise"):
        for first, second, want in cases:
            got = _many(first, [second])[0]
            assert got == pytest.approx(want, abs=1e-12)
            assert got == pytest.approx(clip_iou_bev(first, second), abs=1e-12)
            assert _many(second, [first])[0] == pytest.approx(want, abs=1e-12)
    assert rotated_iou_bev_many(a.as_array(), np.zeros((0, 7))).shape == (0,)


def test_iou_3d_many_matches_clipper_on_random_pairs():
    # boxes stacked at random heights, so some pairs overlap in BEV but not in z
    rng = np.random.default_rng(13)
    overlapping = 0
    for _ in range(100):
        a = Box3D(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-2, 2),
                  rng.uniform(0.5, 5), rng.uniform(0.5, 3), rng.uniform(0.5, 2),
                  rng.uniform(-math.pi, math.pi))
        others = [Box3D(a.cx + rng.uniform(-4, 4), a.cy + rng.uniform(-4, 4),
                        a.cz + rng.uniform(-2, 2), rng.uniform(0.5, 5), rng.uniform(0.5, 3),
                        rng.uniform(0.5, 2), rng.uniform(-math.pi, math.pi)) for _ in range(10)]
        got = rotated_iou_3d_many(a.as_array(), np.array([b.as_array() for b in others]))
        want = np.array([clip_iou_3d(a, b) for b in others])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert (got >= 0.0).all() and (got <= 1.0).all()
        swapped = [rotated_iou_3d_many(b.as_array(), a.as_array())[0] for b in others]
        np.testing.assert_allclose(swapped, got, rtol=0, atol=1e-12)
        overlapping += int((want > 0).sum())
    assert overlapping > 200
    assert rotated_iou_3d_many(a.as_array(), np.zeros((0, 7))).shape == (0,)


def _pair_cases(rng):
    """(box, boxes) cases: random neighbours, and neighbours that touch the box
    at an edge or a corner, sit inside it, or run edges parallel to its own."""
    def row(cx, cy, l, w, yaw):
        return np.array([cx, cy, rng.uniform(-2, 1), l, w, rng.uniform(0.5, 2), yaw])

    def offset(box, along, across):  # a point in the box's own frame
        c, s = math.cos(box[6]), math.sin(box[6])
        return box[0] + along * c - across * s, box[1] + along * s + across * c

    for _ in range(60):
        box = row(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0.5, 5),
                  rng.uniform(0.5, 3), normalize_angle(rng.uniform(-4, 4)))
        l, w, yaw = box[3], box[4], box[6]
        randoms = [row(box[0] + rng.uniform(-4, 4), box[1] + rng.uniform(-4, 4),
                       rng.uniform(0.5, 5), rng.uniform(0.5, 3), rng.uniform(-math.pi, math.pi))
                   for _ in range(8)]
        side, sign = rng.uniform(0.3, 3), rng.choice([-1.0, 1.0], 2)
        touching = [
            row(*offset(box, sign[0] * (l + side) / 2, rng.uniform(-w, w) / 2), side, w, yaw),
            row(*offset(box, 0.0, sign[1] * (w + side) / 2), l, side, yaw),
            row(*offset(box, sign[0] * l, sign[1] * w), l, w, normalize_angle(yaw + math.pi)),
        ]
        # scaled copies whose corner meets one of the box's: their circumcircles
        # touch, and they share one point at most
        for k in rng.uniform(0.2, 3, 150):
            sign = rng.choice([-1.0, 1.0], 2)
            touching.append(row(*offset(box, sign[0] * l * (1 + k) / 2, sign[1] * w * (1 + k) / 2),
                                l * k, w * k, yaw))
        shrink = rng.uniform(0.1, 0.9)
        nested = [
            row(*offset(box, rng.uniform(-1, 1) * l * (1 - shrink) / 2,
                        rng.uniform(-1, 1) * w * (1 - shrink) / 2), l * shrink, w * shrink, yaw),
            box.copy(),
            row(box[0], box[1], w, l, normalize_angle(yaw + math.pi / 2)),  # the same rectangle
        ]
        parallel = [
            row(*offset(box, rng.uniform(-l, l), rng.uniform(-w, w)), rng.uniform(0.5, 5),
                rng.uniform(0.5, 3), normalize_angle(yaw + k * math.pi / 2))
            for k in range(4)]
        yield box, np.array(randoms + touching + nested + parallel)


def test_iou_many_match_the_one_box_kernel_bit_for_bit():
    # the one-box kernel's bits wherever its overlap exceeds 1e-12 of the
    # smaller box's area, and exactly 0 at every sliver below that
    rng = np.random.default_rng(25)
    cases = list(_pair_cases(rng))
    # one neighbourhood that takes the kernel more than one clip step
    box = cases[0][0]
    crowd = np.tile(box, (3 * geometry._CLIP_PAIRS, 1))
    crowd[:, :2] += rng.uniform(-3, 3, (len(crowd), 2))
    crowd[:, 6] = rng.uniform(-math.pi, math.pi, len(crowd))
    cases.append((box, crowd))
    # corner-meeting pairs on which the one-box kernel's gate turns on the last
    # bit of the first box's diagonal, where math.hypot and np.hypot differ
    meeting = (([2.7, -0.1, 0.0, 4.13, 1.39, 1.0, 2.44],
                [0.4425978631035683, 3.6273496740090563, 0.0, 4.13, 1.39, 1.0, 2.44]),
               ([-5.0, 4.7, 0.0, 3.39, 2.99, 1.0, 0.1],
                [-8.074562204518491, 1.3865022633859558, 0.0, 3.39, 2.99, 1.0, 0.1]))
    for first, second in meeting:
        assert math.hypot(first[3], first[4]) != np.hypot(first[3], first[4])
        cases.append((np.array(first), np.array([second])))
    for box, boxes in cases:
        smaller = np.minimum(box[3] * box[4], boxes[:, 3] * boxes[:, 4])
        sliver = one_to_many_area(box, boxes) <= 1e-12 * smaller
        for got, want in ((rotated_iou_bev_many(box, boxes), one_to_many_iou_bev(box, boxes)),
                          (rotated_iou_3d_many(box, boxes), one_to_many_iou_3d(box, boxes))):
            assert got[~sliver].tobytes() == want[~sliver].tobytes()
            assert (got[sliver] == 0.0).all()
        # one row at a time, and the pair kernel with the row repeated, give the same bits
        some = boxes[:24]
        singles = np.concatenate([rotated_iou_bev_many(box, b) for b in some])
        pairs = rotated_iou_bev_pairs(np.tile(box, (len(some), 1)), some)
        assert singles.tobytes() == pairs.tobytes() == rotated_iou_bev_many(box, some).tobytes()
    for first, second in meeting:
        pair = np.array(first), np.array([second])
        assert rotated_iou_bev_many(*pair)[0] == rotated_iou_3d_many(*pair)[0] == 0.0


def test_boxes_that_only_touch_score_exactly_zero():
    for a, b in touching_pairs():
        for first, second in ((a, b), (b, a)):
            assert rotated_iou_bev(Box3D(*first), Box3D(*second)) == 0.0
            assert rotated_iou_bev_many(first, second)[0] == 0.0
            assert rotated_iou_3d_many(first, second)[0] == 0.0
            assert rotated_iou_bev_pairs(first[None], second[None])[0] == 0.0


def test_polygon_area_box():
    b = Box3D(3.0, -1.0, 0.0, 3.9, 1.6, 1.56, 1.1)
    assert polygon_area(box_corners_bev(b)) == pytest.approx(3.9 * 1.6, abs=1e-12)


def test_acpd_matches_brute_force_small():
    rng = np.random.default_rng(5)
    a = PointCloud.from_xyz(rng.uniform(-3, 3, size=(40, 3)))
    b = PointCloud.from_xyz(rng.uniform(-3, 3, size=(30, 3)))
    got = avg_closest_point_distance(a, b)
    want = brute_mean_closest(a.xyz, b.xyz)
    assert got == pytest.approx(want, abs=1e-12)


def test_acpd_matches_brute_force_hash_grid():
    # a model of hundreds of points, as the conceptual matcher sees; in the
    # second input the query set spans three chunks of at most 2**18 pairs
    rng = np.random.default_rng(6)
    a = PointCloud.from_xyz(rng.uniform(-4, 4, size=(50, 3)))
    b = PointCloud.from_xyz(rng.uniform(-4, 4, size=(500, 3)))
    got = avg_closest_point_distance(a, b)
    want = brute_mean_closest(a.xyz, b.xyz)
    assert got == pytest.approx(want, abs=1e-10)
    a = PointCloud.from_xyz(rng.uniform(-4, 4, size=(700, 3)))
    b = PointCloud.from_xyz(rng.uniform(-4, 4, size=(800, 3)))
    got = avg_closest_point_distance(a, b)
    want = brute_mean_closest(a.xyz, b.xyz)
    assert got == pytest.approx(want, abs=1e-10)


def test_acpd_subset_is_zero():
    rng = np.random.default_rng(8)
    full = rng.uniform(-2, 2, size=(120, 3))
    sparse = PointCloud.from_xyz(full[::4])
    dense = PointCloud.from_xyz(full)
    assert avg_closest_point_distance(sparse, dense) == 0.0


def test_acpd_directed_not_symmetric():
    a = PointCloud.from_xyz(np.array([[0.0, 0, 0]]))
    b = PointCloud.from_xyz(np.array([[0.0, 0, 0], [10.0, 0, 0]]))
    assert avg_closest_point_distance(a, b) == 0.0
    assert avg_closest_point_distance(b, a) == pytest.approx(5.0)


def test_acpd_empty_raises():
    a = PointCloud.empty()
    b = PointCloud.from_xyz(np.array([[0.0, 0, 0]]))
    with pytest.raises(ValueError):
        avg_closest_point_distance(a, b)
    with pytest.raises(ValueError):
        avg_closest_point_distance(b, a)
