import math

import numpy as np
import pytest

from voxdet.geometry import Box3D, points_in_box
from voxdet.kitti_io import read_scene_dir
from voxdet.synthetic import (
    SceneRecipe,
    apply_shadows,
    car_shell_points,
    make_dataset,
    points_budget,
    synth_scene,
)
from oracles import clip_iou_bev


def test_shell_points_lie_on_the_box_surface():
    box = Box3D(10.0, 2.0, -1.0, 3.9, 1.6, 1.56, 0.4)
    pts = car_shell_points(box, 500, np.random.default_rng(0))
    assert pts.shape == (500, 3)
    # every point on the shell is inside the (closed) box ...
    from voxdet.geometry import PointCloud
    inside = points_in_box(PointCloud(np.column_stack([pts, np.zeros(500)])), box)
    assert len(inside) == 500
    # ... and touches at least one face plane
    local = (pts - [box.cx, box.cy, box.cz])
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    lx = c * local[:, 0] - s * local[:, 1]
    ly = s * local[:, 0] + c * local[:, 1]
    on_face = (
        np.isclose(np.abs(lx), box.l / 2) | np.isclose(np.abs(ly), box.w / 2)
        | np.isclose(local[:, 2], box.h / 2))
    assert on_face.all()


def test_shell_faces_point_back_at_sensor():
    # a car straight ahead, axis-aligned: no point may sit on the far (+x) face
    box = Box3D(15.0, 0.0, -1.0, 3.9, 1.6, 1.56, 0.0)
    pts = car_shell_points(box, 400, np.random.default_rng(1))
    assert pts[:, 0].max() < box.cx + box.l / 2 - 1e-9
    assert np.isclose(pts[:, 0].min(), box.cx - box.l / 2)


def test_budget_falls_off_with_range():
    near = Box3D(8.0, 0.0, -1.0, *[3.9, 1.6, 1.56], 0.0)
    far = Box3D(28.0, 0.0, -1.0, *[3.9, 1.6, 1.56], 0.0)
    assert points_budget(near, 320) == 320  # inside the reference range
    assert points_budget(far, 320) < 320 / 4
    assert points_budget(far, 1) >= 12  # floor


def test_shadowing_removes_only_occluded_points():
    blocker = Box3D(8.0, 0.0, -1.0, 3.9, 1.6, 1.56, 0.0)
    behind = Box3D(20.0, 0.0, -1.0, 3.9, 1.6, 1.56, 0.0)
    aside = Box3D(20.0, 10.0, -1.0, 3.9, 1.6, 1.56, 0.0)
    rng = np.random.default_rng(2)
    clouds = [car_shell_points(b, 300, rng) for b in (blocker, behind, aside)]
    shadowed = apply_shadows([c.copy() for c in clouds],
                             [blocker, behind, aside], 1.0, np.random.default_rng(3))
    assert len(shadowed[0]) == 300  # nearest car loses nothing
    assert len(shadowed[1]) < 300  # directly behind: heavy loss
    assert len(shadowed[2]) == 300  # off to the side: untouched
    none = apply_shadows([c.copy() for c in clouds],
                         [blocker, behind, aside], 0.0, np.random.default_rng(3))
    assert all(len(a) == 300 for a in none)


def test_scene_boxes_fit_the_requested_area_and_do_not_overlap():
    recipe = SceneRecipe(n_cars=5)
    cloud, boxes = synth_scene(recipe, [0, 0])
    assert len(boxes) == 5
    for b in boxes:
        assert recipe.x_range[0] <= b.cx <= recipe.x_range[1]
        assert recipe.y_range[0] <= b.cy <= recipe.y_range[1]
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert clip_iou_bev(a, b) == 0.0


def test_scene_is_deterministic_and_float32_clean():
    a, boxes_a = synth_scene(SceneRecipe(), [7, 3])
    b, boxes_b = synth_scene(SceneRecipe(), [7, 3])
    np.testing.assert_array_equal(a.data, b.data)
    assert boxes_a == boxes_b
    assert np.array_equal(a.data, a.data.astype(np.float32).astype(np.float64))
    c, _ = synth_scene(SceneRecipe(), [7, 4])
    assert c.data.shape != a.data.shape or not np.array_equal(c.data, a.data)


def test_every_car_keeps_points_despite_occlusion():
    cloud, boxes = synth_scene(SceneRecipe(n_cars=6, occlusion=1.0), [11, 0])
    for b in boxes:
        assert len(points_in_box(cloud, b)) > 0


def test_make_dataset_roundtrips_bit_exact(tmp_path):
    paths = make_dataset(tmp_path / "ds", 3, seed=5)
    assert len(paths) == 3
    for idx, p in enumerate(paths):
        cloud, boxes = read_scene_dir(p)
        mem_cloud, mem_boxes = synth_scene(SceneRecipe(), [5, idx])
        np.testing.assert_array_equal(cloud.data, mem_cloud.data)
        assert boxes == mem_boxes


def test_make_dataset_rerun_is_byte_identical(tmp_path):
    make_dataset(tmp_path / "a", 2, seed=9)
    make_dataset(tmp_path / "b", 2, seed=9)
    for name in ("scene_0000", "scene_0001"):
        for fname in ("points.bin", "boxes.txt"):
            fa = (tmp_path / "a" / name / fname).read_bytes()
            fb = (tmp_path / "b" / name / fname).read_bytes()
            assert fa == fb


def test_recipe_validation():
    with pytest.raises(ValueError, match="occlusion"):
        SceneRecipe(occlusion=1.5)
    with pytest.raises(ValueError):
        SceneRecipe(n_cars=-1)
    with pytest.raises(ValueError, match="n_scenes"):
        make_dataset("/tmp/unused", 0, seed=0)
