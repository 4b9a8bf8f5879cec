"""The two siamese detector branches and their shared detection trunk.

Both branches run voxelize -> per-voxel linear embed -> four sparse stages
-> dense BEV -> adaptation layer -> small conv head.  The live branch's
adaptation layer is a deformable 5x5 conv whose offsets come from a
zero-initialized side conv; the reference branch uses a rigid 5x5 conv of
identical weight shape, so checkpoints cross-load for every shared layer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .detection_head import ANCHOR_YAWS
from .engine import Tensor
from .geometry import PointCloud
from .sparse_conv import STRIDED, SUBMANIFOLD, build_rulebook, sparse_conv_forward, to_dense
from .voxelizer import GridConfig, mini_grid, voxelize

SPATIAL_DOWNSAMPLE = 8  # three stride-2 stages
EMBED_CHANNELS = 128  # per-voxel linear embed width
STAGE_CHANNELS = (16, 32, 64, 128)  # output width of the four sparse stages
DEFORM_KERNEL = 5  # adaptation layer kernel, deformable and rigid alike
ADAPT_CHANNELS = 128
HEAD_CHANNELS = 128


def _collapse_kernel(z_in: int) -> tuple[int, int]:
    """Height-collapse kernel and stride for the final stage."""
    kz = min(3, z_in)
    sz = 2 if z_in > 2 else 1
    return kz, sz


@dataclass(frozen=True)
class NetworkConfig:
    grid: GridConfig = field(default_factory=mini_grid)

    def __post_init__(self):
        nx, ny, nz = self.grid.spatial_shape
        if nx % SPATIAL_DOWNSAMPLE or ny % SPATIAL_DOWNSAMPLE:
            raise ValueError(
                f"grid BEV dims {nx}x{ny} must be divisible by {SPATIAL_DOWNSAMPLE}")

    @property
    def bev_shape(self) -> tuple[int, int]:
        """(H, W) of the backbone output feature map."""
        nx, ny, _ = self.grid.spatial_shape
        return ny // SPATIAL_DOWNSAMPLE, nx // SPATIAL_DOWNSAMPLE

    @property
    def height_out(self) -> int:
        """Z cells remaining after the three strides and the collapse stage."""
        z = self.grid.spatial_shape[2]
        for _ in range(3):
            z = (z - 1) // 2 + 1
        kz, sz = _collapse_kernel(z)
        return (z - kz) // sz + 1

    @property
    def bev_channels(self) -> int:
        return STAGE_CHANNELS[-1] * self.height_out


@dataclass
class ForwardOutput:
    """Per-scene head outputs; spatial shape is shared by every field."""

    cls_map: Tensor       # (len(ANCHOR_YAWS), H, W) logits
    reg_map: Tensor       # (len(ANCHOR_YAWS)*7, H, W) deltas
    adapt_feature: Tensor  # (ADAPT_CHANNELS, H, W), post-ReLU
    offsets: Tensor | None  # (2*k*k, H, W); None on the reference branch


def parameter_shapes(config: NetworkConfig, with_offsets: bool = True) -> dict:
    """Canonical name -> shape registry; the reference branch omits offsets."""
    shapes: dict[str, tuple[int, ...]] = {
        "embed.weight": (EMBED_CHANNELS, 3),
        "embed.bias": (EMBED_CHANNELS,),
    }
    z = config.grid.spatial_shape[2]
    c_in = EMBED_CHANNELS
    for i, c_out in enumerate(STAGE_CHANNELS):
        shapes[f"backbone.s{i}.sub0.weight"] = (c_out, c_in, 3, 3, 3)
        shapes[f"backbone.s{i}.sub0.bias"] = (c_out,)
        shapes[f"backbone.s{i}.sub1.weight"] = (c_out, c_out, 3, 3, 3)
        shapes[f"backbone.s{i}.sub1.bias"] = (c_out,)
        if i < 3:
            c_next = STAGE_CHANNELS[i + 1]
            shapes[f"backbone.s{i}.down.weight"] = (c_next, c_out, 3, 3, 3)
            z = (z - 1) // 2 + 1
        else:
            c_next = c_out
            kz, _ = _collapse_kernel(z)
            shapes[f"backbone.s{i}.down.weight"] = (c_next, c_out, 1, 1, kz)
        shapes[f"backbone.s{i}.down.bias"] = (c_next,)
        c_in = c_next

    k = DEFORM_KERNEL
    shapes["adapt.weight"] = (ADAPT_CHANNELS, config.bev_channels, k, k)
    shapes["adapt.bias"] = (ADAPT_CHANNELS,)
    if with_offsets:
        shapes["offsets.weight"] = (2 * k * k, config.bev_channels, k, k)
        shapes["offsets.bias"] = (2 * k * k,)
    shapes["head.stem.weight"] = (HEAD_CHANNELS, ADAPT_CHANNELS, 3, 3)
    shapes["head.stem.bias"] = (HEAD_CHANNELS,)
    n_yaw = len(ANCHOR_YAWS)
    shapes["head.cls.weight"] = (n_yaw, HEAD_CHANNELS, 1, 1)
    shapes["head.cls.bias"] = (n_yaw,)
    shapes["head.reg.weight"] = (n_yaw * 7, HEAD_CHANNELS, 1, 1)
    shapes["head.reg.bias"] = (n_yaw * 7,)
    return shapes


def init_params(config: NetworkConfig, seed: int = 0,
                with_offsets: bool = True) -> dict[str, Tensor]:
    """He-scaled random weights, zero biases; the offset conv starts all-zero
    so the live branch initially equals a rigid conv."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config, with_offsets).items():
        if name.startswith("offsets.") or name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            data = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def validate_params(params: dict, config: NetworkConfig, with_offsets: bool) -> None:
    want = parameter_shapes(config, with_offsets)
    for name in params:
        if name not in want:
            raise ValueError(f"unexpected parameter {name}")
    for name, shape in want.items():
        if name not in params:
            raise ValueError(f"missing parameter {name}")
        if tuple(params[name].data.shape) != shape:
            raise ValueError(
                f"parameter {name} has shape {params[name].data.shape}, wants {shape}")


def copy_shared_into(pfe_params: dict, cfg_params: dict) -> None:
    """Overwrite the live branch's shared layers with the reference weights."""
    for name, tensor in cfg_params.items():
        if name not in pfe_params:
            raise ValueError(f"live branch lacks parameter {name}")
        if pfe_params[name].data.shape != tensor.data.shape:
            raise ValueError(f"shape mismatch on {name}")
        pfe_params[name].data = tensor.data.copy()


def _backbone_bev(cloud: PointCloud, params: dict, config: NetworkConfig) -> Tensor:
    coords, feats = voxelize(cloud, config.grid)
    shape = config.grid.spatial_shape
    feats = engine.relu(engine.linear(
        Tensor(feats), params["embed.weight"], params["embed.bias"]))
    for i in range(4):
        # a submanifold conv keeps its input sites, so sub0 and sub1 share one rulebook
        rb = build_rulebook(coords, shape, 3, mode=SUBMANIFOLD)
        for j in (0, 1):
            feats = engine.relu(sparse_conv_forward(
                feats, params[f"backbone.s{i}.sub{j}.weight"],
                params[f"backbone.s{i}.sub{j}.bias"], rb))
        if i < 3:
            rb = build_rulebook(coords, shape, 3, stride=2, mode=STRIDED, padding=1)
        else:
            kz, sz = _collapse_kernel(shape[2])
            rb = build_rulebook(coords, shape, (1, 1, kz), stride=(1, 1, sz),
                                mode=STRIDED, padding=0)
        feats = engine.relu(sparse_conv_forward(
            feats, params[f"backbone.s{i}.down.weight"], params[f"backbone.s{i}.down.bias"], rb))
        coords, shape = rb.out_coords, rb.out_spatial_shape
    return to_dense(coords, feats, shape)


def _head(adapt: Tensor, params: dict) -> tuple[Tensor, Tensor]:
    stem = engine.relu(engine.conv2d(adapt, params["head.stem.weight"], params["head.stem.bias"]))
    cls_map = engine.conv2d(stem, params["head.cls.weight"], params["head.cls.bias"])
    reg_map = engine.conv2d(stem, params["head.reg.weight"], params["head.reg.bias"])
    return cls_map, reg_map


def pfe_forward(cloud: PointCloud, params: dict, config: NetworkConfig) -> ForwardOutput:
    """Live branch: deformable adaptation layer guided by learned offsets."""
    validate_params(params, config, with_offsets=True)
    bev = _backbone_bev(cloud, params, config)
    offsets = engine.conv2d(bev, params["offsets.weight"], params["offsets.bias"])
    adapt = engine.relu(engine.deform_conv2d(
        bev, params["adapt.weight"], offsets, params["adapt.bias"]))
    cls_map, reg_map = _head(adapt, params)
    return ForwardOutput(cls_map, reg_map, adapt, offsets)


def cfg_adapt_feature(cloud: PointCloud, params: dict, config: NetworkConfig) -> Tensor:
    """The reference branch up to its adaptation features: the trunk and the
    rigid conv, without the head. This is all the association reads."""
    validate_params(params, config, with_offsets=False)
    bev = _backbone_bev(cloud, params, config)
    return engine.relu(engine.conv2d(bev, params["adapt.weight"], params["adapt.bias"]))


def cfg_forward(cloud: PointCloud, params: dict, config: NetworkConfig) -> ForwardOutput:
    """Reference branch: identical trunk with a rigid conv in place of the
    deformable layer; no offsets."""
    adapt = cfg_adapt_feature(cloud, params, config)
    cls_map, reg_map = _head(adapt, params)
    return ForwardOutput(cls_map, reg_map, adapt, None)
