import numpy as np
import pytest

from voxdet import engine
from voxdet.config import loads_config
from voxdet.detection_head import ANCHOR_YAWS
from voxdet.engine import Tape, Tensor
from voxdet.geometry import PointCloud
from voxdet import network
from voxdet.network import (
    ForwardOutput,
    NetworkConfig,
    cfg_forward,
    copy_shared_into,
    init_params,
    parameter_shapes,
    pfe_forward,
    validate_params,
)
from voxdet.sparse_conv import STRIDED, SUBMANIFOLD
from voxdet.voxelizer import GridConfig, default_grid, mini_grid


def mini_config():
    return NetworkConfig(grid=mini_grid())


def sample_cloud(n=60, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([
        rng.uniform(2, 30, n), rng.uniform(-14, 14, n),
        rng.uniform(-1.8, 1.8, n), rng.uniform(0, 1, n)])
    return PointCloud(pts)


def shared_params(pfe_params):
    return {k: v for k, v in pfe_params.items() if not k.startswith("offsets.")}


def test_config_shape_arithmetic():
    cfg = mini_config()
    assert cfg.bev_shape == (8, 8)
    assert cfg.height_out == 1
    assert cfg.bev_channels == 128

    big = NetworkConfig(grid=default_grid())
    assert big.bev_shape == (200, 176)
    assert big.height_out == 2
    assert big.bev_channels == 256


def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError, match="divisible"):
        NetworkConfig(grid=GridConfig((0, 0, 0), (6, 8, 4), (1, 1, 1)))


def test_branch_parameter_registries_differ_only_in_offsets():
    cfg = mini_config()
    live = parameter_shapes(cfg, with_offsets=True)
    ref = parameter_shapes(cfg, with_offsets=False)
    assert set(live) - set(ref) == {"offsets.weight", "offsets.bias"}
    for name, shape in ref.items():
        assert live[name] == shape
    assert live["adapt.weight"] == (128, 128, 5, 5)
    assert live["offsets.weight"] == (50, 128, 5, 5)


# every parameter of the live branch on the mini grid (8x8 BEV, one height cell
# left), in registry order: the checkpoint layout the constants must keep
MINI_REGISTRY = {
    "embed.weight": (128, 3), "embed.bias": (128,),
    "backbone.s0.sub0.weight": (16, 128, 3, 3, 3), "backbone.s0.sub0.bias": (16,),
    "backbone.s0.sub1.weight": (16, 16, 3, 3, 3), "backbone.s0.sub1.bias": (16,),
    "backbone.s0.down.weight": (32, 16, 3, 3, 3), "backbone.s0.down.bias": (32,),
    "backbone.s1.sub0.weight": (32, 32, 3, 3, 3), "backbone.s1.sub0.bias": (32,),
    "backbone.s1.sub1.weight": (32, 32, 3, 3, 3), "backbone.s1.sub1.bias": (32,),
    "backbone.s1.down.weight": (64, 32, 3, 3, 3), "backbone.s1.down.bias": (64,),
    "backbone.s2.sub0.weight": (64, 64, 3, 3, 3), "backbone.s2.sub0.bias": (64,),
    "backbone.s2.sub1.weight": (64, 64, 3, 3, 3), "backbone.s2.sub1.bias": (64,),
    "backbone.s2.down.weight": (128, 64, 3, 3, 3), "backbone.s2.down.bias": (128,),
    "backbone.s3.sub0.weight": (128, 128, 3, 3, 3), "backbone.s3.sub0.bias": (128,),
    "backbone.s3.sub1.weight": (128, 128, 3, 3, 3), "backbone.s3.sub1.bias": (128,),
    "backbone.s3.down.weight": (128, 128, 1, 1, 1), "backbone.s3.down.bias": (128,),
    "adapt.weight": (128, 128, 5, 5), "adapt.bias": (128,),
    "offsets.weight": (50, 128, 5, 5), "offsets.bias": (50,),
    "head.stem.weight": (128, 128, 3, 3), "head.stem.bias": (128,),
    "head.cls.weight": (2, 128, 1, 1), "head.cls.bias": (2,),
    "head.reg.weight": (14, 128, 1, 1), "head.reg.bias": (14,),
}
# the default grid keeps two height cells: a 1x1x3 collapse and 256 BEV channels
DEFAULT_REGISTRY = {**MINI_REGISTRY,
                    "backbone.s3.down.weight": (128, 128, 1, 1, 3),
                    "adapt.weight": (128, 256, 5, 5), "offsets.weight": (50, 256, 5, 5)}


@pytest.mark.parametrize("grid,registry", [(mini_grid, MINI_REGISTRY),
                                           (default_grid, DEFAULT_REGISTRY)],
                         ids=["mini", "default"])
def test_parameter_registry_is_pinned(grid, registry):
    shapes = parameter_shapes(NetworkConfig(grid=grid()), with_offsets=True)
    assert list(shapes.items()) == list(registry.items())


def test_init_params_zero_offset_branch_and_biases():
    cfg = mini_config()
    params = init_params(cfg, seed=3)
    assert not params["offsets.weight"].data.any()
    assert not params["offsets.bias"].data.any()
    assert not params["embed.bias"].data.any()
    assert params["embed.weight"].data.any()
    validate_params(params, cfg, with_offsets=True)


def test_validate_params_reports_problems():
    cfg = mini_config()
    params = init_params(cfg)
    missing = dict(params)
    del missing["head.cls.bias"]
    with pytest.raises(ValueError, match="missing parameter head.cls.bias"):
        validate_params(missing, cfg, with_offsets=True)
    bad = dict(params)
    bad["embed.weight"] = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="embed.weight"):
        validate_params(bad, cfg, with_offsets=True)


def test_forward_output_shapes():
    cfg = mini_config()
    params = init_params(cfg, seed=1)
    out = pfe_forward(sample_cloud(), params, cfg)
    assert isinstance(out, ForwardOutput)
    assert out.cls_map.data.shape == (2, 8, 8)
    assert out.reg_map.data.shape == (14, 8, 8)
    assert out.adapt_feature.data.shape == (128, 8, 8)
    assert out.offsets.data.shape == (50, 8, 8)
    assert (out.adapt_feature.data >= 0).all()  # post-ReLU

    ref = cfg_forward(sample_cloud(), shared_params(params), cfg)
    assert ref.offsets is None
    assert ref.cls_map.data.shape == (2, 8, 8)


def test_zero_offsets_make_branches_identical():
    cfg = mini_config()
    params = init_params(cfg, seed=2)  # offset conv is zero-initialized
    cloud = sample_cloud(seed=5)
    live = pfe_forward(cloud, params, cfg)
    ref = cfg_forward(cloud, shared_params(params), cfg)
    assert not live.offsets.data.any()
    np.testing.assert_array_equal(live.adapt_feature.data, ref.adapt_feature.data)
    np.testing.assert_array_equal(live.cls_map.data, ref.cls_map.data)
    np.testing.assert_array_equal(live.reg_map.data, ref.reg_map.data)


def test_nonzero_offsets_change_the_live_branch():
    cfg = mini_config()
    params = init_params(cfg, seed=2)
    params["offsets.bias"].data = np.full(50, 0.7)
    cloud = sample_cloud(seed=5)
    live = pfe_forward(cloud, params, cfg)
    ref = cfg_forward(cloud, shared_params(params), cfg)
    assert np.abs(live.adapt_feature.data - ref.adapt_feature.data).max() > 0


def test_empty_cloud_gives_bias_only_response():
    cfg = mini_config()
    params = init_params(cfg, seed=4)
    out = pfe_forward(PointCloud(np.zeros((0, 4))), params, cfg)

    # oracle: feed an explicitly all-zero BEV map through the same layers
    bev = Tensor(np.zeros((cfg.bev_channels, 8, 8)))
    offsets = engine.conv2d(bev, params["offsets.weight"], params["offsets.bias"])
    adapt = engine.relu(engine.deform_conv2d(
        bev, params["adapt.weight"], offsets, params["adapt.bias"]))
    stem = engine.relu(engine.conv2d(adapt, params["head.stem.weight"], params["head.stem.bias"]))
    want_cls = engine.conv2d(stem, params["head.cls.weight"], params["head.cls.bias"])
    np.testing.assert_array_equal(out.cls_map.data, want_cls.data)


def test_forward_is_deterministic():
    cfg = mini_config()
    params = init_params(cfg, seed=6)
    cloud = sample_cloud(seed=7)
    a = pfe_forward(cloud, params, cfg)
    b = pfe_forward(cloud, params, cfg)
    assert a.cls_map.data.tobytes() == b.cls_map.data.tobytes()
    assert a.reg_map.data.tobytes() == b.reg_map.data.tobytes()
    assert a.offsets.data.tobytes() == b.offsets.data.tobytes()


def test_checkpoint_cross_load_between_branches(tmp_path):
    cfg = mini_config()
    ref_params = {k: v for k, v in init_params(cfg, seed=8, with_offsets=False).items()}
    path = tmp_path / "ref.ckpt"
    engine.save_checkpoint(path, ref_params)
    loaded = engine.load_checkpoint(path)

    live = init_params(cfg, seed=9)
    copy_shared_into(live, {k: Tensor(v) for k, v in loaded.items()})
    for name, tensor in ref_params.items():
        np.testing.assert_array_equal(live[name].data, tensor.data)
    assert not live["offsets.weight"].data.any()

    with pytest.raises(ValueError, match="lacks parameter"):
        copy_shared_into(live, {"unknown.weight": Tensor(np.zeros(3))})
    with pytest.raises(ValueError, match="shape mismatch"):
        copy_shared_into(live, {"embed.weight": Tensor(np.zeros((1, 1)))})


def test_gradients_reach_the_trunk():
    cfg = mini_config()
    params = init_params(cfg, seed=10)
    params["offsets.bias"].data = np.full(50, 0.3)  # activate the offset path
    cloud = sample_cloud(seed=11)
    with Tape() as tape:
        out = pfe_forward(cloud, params, cfg)
        loss = engine.add(engine.tsum(engine.mul(out.cls_map, out.cls_map)),
                          engine.tsum(engine.mul(out.reg_map, out.reg_map)))
        tape.backward(loss)
    for name in ("embed.weight", "backbone.s0.sub0.weight", "backbone.s3.down.weight",
                 "adapt.weight", "head.cls.weight", "offsets.weight"):
        grad = params[name].grad
        assert grad is not None and np.isfinite(grad).all(), name
        assert np.abs(grad).sum() > 0, name


def test_backbone_builds_one_submanifold_rulebook_per_stage(monkeypatch):
    # sub0 and sub1 of a stage run on the same sites and share one rulebook;
    # the strided conv closing the stage needs its own
    modes = []
    build = network.build_rulebook

    def counting(*args, **kwargs):
        modes.append(kwargs["mode"])
        return build(*args, **kwargs)

    monkeypatch.setattr(network, "build_rulebook", counting)
    cfg = mini_config()
    pfe_forward(sample_cloud(seed=3), init_params(cfg, seed=0), cfg)
    assert modes == [SUBMANIFOLD, STRIDED] * 4


def test_head_predicts_one_anchor_per_fixed_yaw():
    # the yaw count is not configurable: eval decodes against ANCHOR_YAWS
    with pytest.raises(ValueError, match="num_yaws"):
        loads_config("anchors:\n  num_yaws: 1\n")
    params = init_params(mini_config(), seed=0)
    assert params["head.cls.weight"].data.shape[0] == len(ANCHOR_YAWS)
    assert params["head.reg.weight"].data.shape[0] == 7 * len(ANCHOR_YAWS)


def test_maps_that_fit_run_as_one_piece(monkeypatch):
    # every layer on the 8x8 mini map, and the 1x1 heads on a 64x64 map, fit
    # the engine's piece budget, so each runs as one whole-matrix product
    counts = []
    split = engine._pieces

    def counting(count, unit_bytes):
        pieces = split(count, unit_bytes)
        counts.append(len(pieces))
        return pieces

    monkeypatch.setattr(engine, "_pieces", counting)
    cfg = mini_config()
    params = init_params(cfg, seed=0)
    with Tape() as tape:
        out = pfe_forward(sample_cloud(seed=12), params, cfg)
        tape.backward(engine.add(engine.tsum(out.cls_map), engine.tsum(out.reg_map)))
    assert len(counts) == 10  # offsets, deformable, stem, cls and reg: forward and backward
    stem = Tensor(np.random.default_rng(13).uniform(-1, 1, (network.HEAD_CHANNELS, 64, 64)),
                  requires_grad=True)
    for name in ("head.cls", "head.reg"):
        with Tape() as tape:
            tape.backward(engine.tsum(engine.conv2d(
                stem, params[f"{name}.weight"], params[f"{name}.bias"])))
    assert counts == [1] * 14
