import os
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from voxdet.geometry import Box3D, PointCloud
from voxdet.kitti_io import (
    list_scene_dirs,
    read_point_cloud,
    read_scene_boxes,
    read_scene_dir,
    write_point_cloud,
    write_scene_boxes,
    write_scene_dir,
)


def test_read_single_record(tmp_path):
    p = tmp_path / "one.bin"
    p.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
    cloud = read_point_cloud(p)
    assert len(cloud) == 1
    np.testing.assert_array_equal(cloud.data[0], [1.0, 2.0, 3.0, 0.5])


def test_read_empty_file(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    cloud = read_point_cloud(p)
    assert len(cloud) == 0


def test_read_three_records_hex_oracle(tmp_path):
    # hand-built byte string, decoded independently with struct as the oracle
    values = [
        (0.25, -1.5, 3.75, 0.0),
        (100.0, 0.001953125, -0.5, 1.0),
        (-7.25, 42.0, 0.1015625, 0.25),
    ]
    raw = b"".join(struct.pack("<4f", *v) for v in values)
    assert len(raw) == 48
    p = tmp_path / "three.bin"
    p.write_bytes(raw)
    cloud = read_point_cloud(p)
    for i in range(3):
        decoded = struct.unpack_from("<4f", raw, 16 * i)
        np.testing.assert_array_equal(cloud.data[i], decoded)


def test_read_truncated_record_errors(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 20)
    with pytest.raises(ValueError, match="truncated"):
        read_point_cloud(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_non_finite_coordinate_names_the_file(tmp_path, bad):
    p = tmp_path / "points.bin"
    p.write_bytes(np.array([[1, 2, 3, 0.5], [4, bad, 6, 0.5]], dtype="<f4").tobytes())
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(p))}: point coordinates must be finite$"):
        read_point_cloud(p)


def test_read_missing_file():
    with pytest.raises(FileNotFoundError):
        read_point_cloud("/nonexistent/file.bin")


def test_point_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    # values representable in 32-bit floats survive the round trip bit-exactly
    data = rng.standard_normal((257, 4)).astype(np.float32).astype(np.float64)
    cloud = PointCloud(data)
    p = tmp_path / "rt.bin"
    write_point_cloud(p, cloud)
    back = read_point_cloud(p)
    assert np.array_equal(back.data, cloud.data)


def test_scene_dir_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((64, 4)).astype(np.float32).astype(np.float64)
    cloud = PointCloud(data)
    boxes = [Box3D(1.0, 2.0, 0.5, 3.9, 1.6, 1.5, 0.25), Box3D(-4.0, 1.0, 0.0, 4.2, 1.7, 1.4, -2.0)]
    scene = tmp_path / "scene_000"
    write_scene_dir(scene, cloud, boxes)
    cloud2, boxes2 = read_scene_dir(scene)
    assert np.array_equal(cloud2.data, cloud.data)
    assert boxes2 == boxes
    assert list_scene_dirs(tmp_path) == [str(scene)]


def test_scene_write_failing_midway_keeps_previous(tmp_path):
    cloud = PointCloud(np.ones((4, 4)))
    boxes = [Box3D(1.0, 2.0, 0.5, 3.9, 1.6, 1.5, 0.25)]
    write_scene_dir(tmp_path, cloud, boxes)
    points, lines = (tmp_path / "points.bin").read_bytes(), (tmp_path / "boxes.txt").read_text()
    with pytest.raises(ValueError):
        # the records fail to convert once the temporary file is open
        write_point_cloud(tmp_path / "points.bin", SimpleNamespace(data=np.array([["x"] * 4])))
    with pytest.raises(AttributeError):
        # the first line is written before the second box fails
        write_scene_boxes(tmp_path / "boxes.txt", [boxes[0], None])
    assert (tmp_path / "points.bin").read_bytes() == points
    assert (tmp_path / "boxes.txt").read_text() == lines
    assert sorted(os.listdir(tmp_path)) == ["boxes.txt", "points.bin"]


def test_scene_boxes_reject_bad_line(tmp_path):
    p = tmp_path / "boxes.txt"
    # too few fields, then lines that parse but that Box3D rejects: zero size,
    # a NaN or infinite size, an infinite centre
    for bad in ("1 2 3 4 5 6", "1 2 -1 0 1.6 1.5 0", "1 2 -1 4 nan 1.5 0",
                "1 2 -1 4 1.6 inf 0", "inf 2 -1 4 1.6 1.5 0"):
        p.write_text(f"0 0 -1 3.9 1.6 1.56 0\n{bad}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:2: "):
            read_scene_boxes(p)
    write_scene_boxes(p, [])
    assert read_scene_boxes(p) == []
