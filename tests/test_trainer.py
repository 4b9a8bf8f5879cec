import math
import tracemalloc
import weakref

import numpy as np
import pytest
from oracles import allocating_adam_step

from voxdet import network, trainer
from voxdet.engine import Tensor, active_tape, add, mul, tsum
from voxdet.geometry import Box3D, PointCloud, points_in_box
from voxdet.network import NetworkConfig, init_params
from voxdet.trainer import (
    Adam,
    EpochStats,
    ScenePair,
    TrainConfig,
    _fit,
    apply_global_transform,
    augment_pair,
    clip_gradients,
    cosine_lr,
    draw_transform,
    format_loss_log,
    train_associate,
    train_cfg,
)
from voxdet.voxelizer import mini_grid


def mini_net():
    return NetworkConfig(grid=mini_grid())


def car_at_pixel(col, row, yaw=0.0):
    # mini-grid BEV pixels are 4 m; centers at (col+0.5)*4, -16+(row+0.5)*4
    return Box3D((col + 0.5) * 4.0, -16 + (row + 0.5) * 4.0, -1.0,
                 3.9, 1.6, 1.56, yaw)


def scene_fixture(seed=0, n_bg=40):
    rng = np.random.default_rng(seed)
    box = car_at_pixel(3, 4)
    inside = rng.uniform(-0.45, 0.45, size=(25, 3)) * box.dims + box.center
    bg = np.column_stack([rng.uniform(0, 32, n_bg), rng.uniform(-16, 16, n_bg),
                          rng.uniform(-1.9, 1.9, n_bg)])
    xyz = np.vstack([inside, bg])
    cloud = PointCloud.from_xyz(xyz, rng.uniform(0, 1, len(xyz)))
    return cloud, [box]


def test_cosine_schedule_anchors():
    assert cosine_lr(0, 100, 0.001) == 0.001
    assert cosine_lr(100, 100, 0.001) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(50, 100, 0.001) == pytest.approx(0.0005, abs=1e-15)


def test_adam_zero_lr_freezes_parameters():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam({"p": p})
    before = p.data.copy()
    for _ in range(5):
        p.grad = np.array([0.5, -1.0, 2.0])
        opt.step(0.0)
    np.testing.assert_array_equal(p.data, before)


def test_adam_matches_hand_computed_update():
    p = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam({"p": p})
    g1 = np.array([0.4])
    p.grad = g1
    opt.step(0.01)
    m = 0.1 * g1
    v = 0.001 * g1 * g1
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    want = 2.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p.data, want, atol=1e-15)


def _signed_gradient(rng, shape):
    g = rng.standard_normal(shape)
    pick = rng.random(shape)
    g[pick < 0.1] = 0.0
    g[pick > 0.9] = -0.0
    return g


def test_adam_matches_allocating_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    shapes = {"big": (5 * trainer._CHUNK + 123,), "conv": (3, 2, 5, 5), "bias": (7,),
              "idle": (4, 3)}
    params = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
              for name, shape in shapes.items()}
    params["conv"].data[0, 0] = -0.0
    opt = Adam(params)
    data = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for step in range(6):
        grads = {name: None if name == "idle" else _signed_gradient(rng, shape)
                 for name, shape in shapes.items()}
        if step == 3:
            grads["bias"] = None  # a parameter off the loss's path for one step
        for name, p in params.items():
            p.grad = None if grads[name] is None else grads[name].copy()
        lr = cosine_lr(step, 6, 0.01)
        opt.step(lr)
        data, m, v = allocating_adam_step(data, grads, m, v, step + 1, lr)
        for name, p in params.items():
            assert p.data.tobytes() == data[name].tobytes(), name
            assert opt.m[name].tobytes() == m[name].tobytes(), name
            assert opt.v[name].tobytes() == v[name].tobytes(), name
        opt.zero_grad()


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_adam_step_holds_no_parameter_sized_temporary():
    n = 1 << 20
    rng = np.random.default_rng(12)
    p = Tensor(rng.standard_normal(n), requires_grad=True)
    opt = Adam({"p": p})
    p.grad = rng.standard_normal(n)
    assert _traced_peak(lambda: opt.step(1e-3)) < n * 8 / 8
    opt.zero_grad()  # a missing gradient steps as zeros, without a zero array
    assert _traced_peak(lambda: opt.step(1e-3)) < n * 8 / 8


def test_clip_gradients_scales_to_max_norm():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([3.0, 0.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    params = {"a": a, "b": b}
    norm = clip_gradients(params, 10.0)  # norm 5, under the cap
    assert norm == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_array_equal(a.grad, [3.0, 0.0, 0.0])

    norm = clip_gradients(params, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    clipped = math.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
    assert clipped == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(a.grad / np.linalg.norm(np.concatenate([a.grad, b.grad])),
                               np.array([3.0, 0, 0]) / 5.0, atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="base_lr"):
        TrainConfig(base_lr=0.0)


def test_identity_transform_is_exact_noop():
    cloud, boxes = scene_fixture()
    out_cloud, out_boxes = apply_global_transform(cloud, boxes, 0.0, 1.0, False)
    np.testing.assert_array_equal(out_cloud.data, cloud.data)
    np.testing.assert_array_equal(out_boxes[0].as_array(), boxes[0].as_array())


def test_flip_is_an_involution():
    cloud, boxes = scene_fixture(seed=1)
    once_c, once_b = apply_global_transform(cloud, boxes, 0.0, 1.0, True)
    twice_c, twice_b = apply_global_transform(once_c, once_b, 0.0, 1.0, True)
    np.testing.assert_array_equal(twice_c.data, cloud.data)
    np.testing.assert_allclose(twice_b[0].as_array(), boxes[0].as_array(), atol=1e-15)


def test_transform_preserves_containment():
    rng = np.random.default_rng(2)
    cloud, boxes = scene_fixture(seed=3)
    before = points_in_box(cloud, boxes[0])
    for seed in range(5):
        angle, scale, flip = draw_transform(np.random.default_rng(seed))
        out_cloud, out_boxes = apply_global_transform(cloud, boxes, angle, scale, flip)
        after = points_in_box(out_cloud, out_boxes[0])
        np.testing.assert_array_equal(before, after)


def test_transform_keeps_corner_points_inside():
    # rotating a point that sits exactly on a corner leaves it a few ulps
    # outside; points_in_box's slack must keep it in
    b = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.3)
    c, s = math.cos(b.yaw), math.sin(b.yaw)
    corners = PointCloud.from_xyz(np.array([[c - s, s + c, 1.0], [c + s, s - c, -1.0],
                                            [s - c, -s - c, 1.0]]))
    for angle in (-0.7, 0.2, 0.75):
        for scale, flip in ((1.0, False), (1.03, True)):
            out_cloud, out_boxes = apply_global_transform(corners, [b], angle, scale, flip)
            assert points_in_box(out_cloud, out_boxes[0]).tolist() == [0, 1, 2]


def test_augment_pair_shares_one_draw():
    cloud, boxes = scene_fixture(seed=4)
    pair = ScenePair(cloud, cloud, tuple(boxes))
    out = augment_pair(pair, 7)
    again = augment_pair(pair, 7)
    # identical scenes stay identical under the shared draw
    np.testing.assert_array_equal(out.real.data, out.conceptual.data)
    np.testing.assert_array_equal(out.real.data, again.real.data)
    # the draw actually moved something
    assert np.abs(out.real.data - cloud.data).max() > 0
    # boxes still hold their points
    assert len(points_in_box(out.conceptual, out.boxes[0])) == 25


def test_train_cfg_smoke_and_determinism():
    scenes = [scene_fixture(seed=5)]
    net = mini_net()
    tc = TrainConfig(batch_size=1, epochs=2, seed=11)
    params_a, log_a = train_cfg(scenes, net, tc)
    params_b, log_b = train_cfg(scenes, net, tc)
    assert len(log_a) == 2
    assert log_a[0].total == log_b[0].total  # bit-identical epoch-1 loss
    assert log_a[0].assoc == 0.0
    for name, t in params_a.items():
        assert np.isfinite(t.data).all()
        np.testing.assert_array_equal(t.data, params_b[name].data)
    assert "offsets.weight" not in params_a


def test_epoch_checkpoint_below_a_file_is_a_value_error(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    tc = TrainConfig(batch_size=1, epochs=1, checkpoint_every=1)
    with pytest.raises(ValueError, match=f"cannot make directory {blocker / 'ckpts'}"):
        train_cfg([scene_fixture(seed=5)], mini_net(), tc, checkpoint_dir=str(blocker / "ckpts"))


def test_train_cfg_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train_cfg([], mini_net(), TrainConfig())


def test_train_associate_freezes_reference_and_runs():
    cloud, boxes = scene_fixture(seed=6)
    pair = ScenePair(cloud, cloud, tuple(boxes))
    net = mini_net()
    cfg_params = init_params(net, seed=1, with_offsets=False)
    before = {k: v.data.tobytes() for k, v in cfg_params.items()}

    tc = TrainConfig(batch_size=2, epochs=2, seed=3)
    pfe_params, log = train_associate([pair, pair], cfg_params, net, tc)

    for name, raw in before.items():
        assert cfg_params[name].data.tobytes() == raw  # the frozen branch reads these arrays
    assert "offsets.weight" in pfe_params
    assert len(log) == 2
    assert all(row.assoc >= 0 for row in log)


def test_train_associate_reads_the_reference_arrays_without_copying(monkeypatch):
    seen = []
    adapt = trainer.cfg_adapt_feature

    def spying(cloud, params, config):
        seen.append(params)
        return adapt(cloud, params, config)

    monkeypatch.setattr(trainer, "cfg_adapt_feature", spying)
    cloud, boxes = scene_fixture(seed=6)
    net = mini_net()
    cfg_params = init_params(net, seed=1, with_offsets=False)
    train_associate([ScenePair(cloud, cloud, tuple(boxes))], cfg_params, net,
                    TrainConfig(batch_size=1, epochs=1, seed=3))
    assert len(seen) == 1 and seen[0].keys() == cfg_params.keys()
    for name, frozen in seen[0].items():
        assert np.shares_memory(frozen.data, cfg_params[name].data), name
        assert not frozen.requires_grad and frozen.grad is None


def test_live_branch_starts_from_reference_copies_and_zero_offsets(monkeypatch):
    # no random draw for the live branch: its trunk is the reference's
    # weights, copied, and its offset conv is zero, in parameter_shapes order
    def no_draw(*args, **kwargs):
        raise AssertionError("train_associate drew parameters")

    first = {}
    forward = trainer.pfe_forward

    def spying(cloud, params, config):
        if not first:
            first.update({k: (v.data.copy(), v) for k, v in params.items()})
        return forward(cloud, params, config)

    monkeypatch.setattr(trainer, "init_params", no_draw)
    monkeypatch.setattr(trainer, "pfe_forward", spying)
    cloud, boxes = scene_fixture(seed=6)
    net = mini_net()
    cfg_params = init_params(net, seed=1, with_offsets=False)
    pfe_params, _ = train_associate([ScenePair(cloud, cloud, tuple(boxes))], cfg_params, net,
                                    TrainConfig(batch_size=1, epochs=1, seed=3))
    assert list(first) == list(network.parameter_shapes(net, with_offsets=True))
    assert list(pfe_params) == list(first)
    for name, (data, tensor) in first.items():
        assert tensor.requires_grad, name
        if name.startswith("offsets."):
            assert not data.any(), name
        else:
            assert data.tobytes() == cfg_params[name].data.tobytes(), name
            assert not np.shares_memory(tensor.data, cfg_params[name].data), name


def test_frozen_reference_runs_no_head(monkeypatch):
    # the association reads only the reference's adaptation features, so the
    # head runs for the live branch alone: once per pair and epoch
    heads = []
    head = network._head

    def counting(*args):
        heads.append(args)
        return head(*args)

    monkeypatch.setattr(network, "_head", counting)
    cloud, boxes = scene_fixture(seed=6)
    pair = ScenePair(cloud, cloud, tuple(boxes))
    net = mini_net()
    cfg_params = init_params(net, seed=1, with_offsets=False)
    train_associate([pair, pair], cfg_params, net, TrainConfig(batch_size=2, epochs=2, seed=3))
    assert len(heads) == 4


def test_associate_loss_starts_at_zero_for_identical_pair():
    # same scene on both sides, trunk copied, offsets zero-initialized:
    # the first step's association term must be exactly zero
    cloud, boxes = scene_fixture(seed=7)
    pair = ScenePair(cloud, cloud, tuple(boxes))
    net = mini_net()
    cfg_params = init_params(net, seed=2, with_offsets=False)
    tc = TrainConfig(batch_size=1, epochs=1, seed=5)
    _, log = train_associate([pair], cfg_params, net, tc)
    assert log[0].assoc == 0.0


def test_sigma_zero_matches_detection_parts_in_first_epoch():
    cloud, boxes = scene_fixture(seed=8)
    pair = ScenePair(cloud, cloud, tuple(boxes))
    net = mini_net()
    cfg_params = init_params(net, seed=4, with_offsets=False)
    base = TrainConfig(batch_size=1, epochs=1, seed=6, sigma=0.5)
    ablated = TrainConfig(batch_size=1, epochs=1, seed=6, sigma=0.0)
    _, log_full = train_associate([pair], cfg_params, net, base)
    _, log_zero = train_associate([pair], cfg_params, net, ablated)
    # single batch per epoch: detection parts are computed from identical
    # parameters, so they agree bit-for-bit; only the totals may differ
    assert log_full[0].bbox == log_zero[0].bbox
    assert log_full[0].cls == log_zero[0].cls
    assert log_zero[0].total == log_zero[0].bbox + log_zero[0].cls


def test_train_associate_aborts_on_non_finite_loss():
    cloud, boxes = scene_fixture(seed=9)
    pair = ScenePair(cloud, cloud, tuple(boxes))
    net = mini_net()
    cfg_params = init_params(net, seed=5, with_offsets=False)
    cfg_params["head.cls.bias"].data = np.array([math.nan, math.nan])
    with pytest.raises(RuntimeError, match="non-finite loss at epoch 1"):
        train_associate([pair], cfg_params, net,
                        TrainConfig(batch_size=1, epochs=1, seed=7))


def test_fit_releases_each_batch_before_the_next_prepare():
    # a step's tape holds every activation of its batch; none of it may
    # outlive the step into clipping, Adam and the next batch's prepare
    w = Tensor(np.ones(3), requires_grad=True)
    tapes, consumed = [], []

    class Staged:
        pass

    def prepare(sample, epoch, idx):
        assert all(ref() is None for ref in tapes + consumed)
        return Staged()

    def sample_loss(item):
        tapes.append(weakref.ref(active_tape()))
        consumed.append(weakref.ref(item))
        bbox = tsum(mul(w, w))
        return {"bbox": bbox, "cls": bbox}, add(bbox, bbox)

    log = _fit(range(4), {"w": w}, TrainConfig(batch_size=2, epochs=2), prepare,
               sample_loss, "toy", None)
    assert len(log) == 2 and len(tapes) == 8
    assert all(ref() is None for ref in tapes + consumed)


def test_format_loss_log_roundtrips_floats():
    log = [EpochStats(1, 0.123456789012345, 2.0, 0.0, 2.123456789012345)]
    text = format_loss_log(log)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch bbox cls assoc total"
    fields = lines[1].split()
    assert int(fields[0]) == 1
    assert float(fields[1]) == 0.123456789012345
