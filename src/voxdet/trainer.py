"""Two-phase training: reference branch first, then the guided live branch.

Phase one fits the reference branch end-to-end on composed scenes.  Phase
two freezes it and trains the live branch on paired (real, composed)
scenes, adding the feature-association term to the detection losses.
Both phases run one loop (shuffle, cosine schedule, batching, clipping,
Adam, checkpoints) and differ only in their per-sample loss.
Parameter-sized state is held once: clipping scales each gradient in
place, Adam updates its moments and the parameters in place, and the
frozen reference reads the caller's arrays without copying them.
Every random choice (shuffles, augmentation draws, init) derives from the
run seed, so reruns are bit-identical.
"""

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .adaptation import (
    COUNT_FOREGROUND,
    COUNT_NONZERO,
    association_loss,
    foreground_mask,
    offset_length_map,
    reweighting_map,
)
from .detection_head import (
    CONVENTION_LINEAGE,
    CONVENTION_PRINTED,
    AnchorConfig,
    assign_targets,
    associate_total_loss,
    cfg_total_loss,
    flatten_cls_map,
    flatten_reg_map,
    focal_loss,
    smooth_l1_loss,
)
from .engine import Tape, Tensor, save_checkpoint
from .geometry import Box3D, PointCloud, rotation_z
from .network import (
    SPATIAL_DOWNSAMPLE,
    NetworkConfig,
    cfg_adapt_feature,
    cfg_forward,
    copy_shared_into,
    init_params,
    parameter_shapes,
    pfe_forward,
    validate_params,
)
from .voxelizer import require_float, require_int

_PHASE_CFG = 1
_PHASE_PAIR = 2
_CHUNK = 1 << 14  # elements per Adam pass: 128 KB per operand, so six operands stay in cache
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 6
    epochs: int = 80
    base_lr: float = 0.001
    sigma: float = 0.5
    seed: int = 0
    augment: bool = True
    clip_norm: float | None = 10.0
    count_mode: str = COUNT_FOREGROUND
    codec: str = CONVENTION_PRINTED
    checkpoint_every: int = 0

    def __post_init__(self):
        for name, minimum in (("batch_size", 1), ("epochs", 1), ("seed", 0),
                              ("checkpoint_every", 0)):
            require_int(name, getattr(self, name), minimum)
        clip = () if self.clip_norm is None else ("clip_norm",)  # None turns clipping off
        for name in ("base_lr", "sigma", *clip):
            require_float(name, getattr(self, name))
        if not isinstance(self.augment, bool):
            raise ValueError(f"augment must be true or false, got {self.augment!r}")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive or None")
        if self.count_mode not in (COUNT_FOREGROUND, COUNT_NONZERO):
            raise ValueError(f"count_mode must be '{COUNT_FOREGROUND}' or '{COUNT_NONZERO}'")
        if self.codec not in (CONVENTION_PRINTED, CONVENTION_LINEAGE):
            raise ValueError(f"codec must be '{CONVENTION_PRINTED}' or '{CONVENTION_LINEAGE}'")


@dataclass(frozen=True)
class ScenePair:
    """A real scene and its composed twin sharing one annotation list."""

    real: PointCloud
    conceptual: PointCloud
    boxes: tuple[Box3D, ...]

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    bbox: float
    cls: float
    assoc: float
    total: float


def format_loss_log(log: Sequence[EpochStats]) -> str:
    lines = ["epoch bbox cls assoc total"]
    for row in log:
        lines.append(" ".join([str(row.epoch)] + [
            repr(float(v)) for v in (row.bbox, row.cls, row.assoc, row.total)]))
    return "\n".join(lines) + "\n"


def cosine_lr(step: int, total_steps: int, base: float) -> float:
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


class Adam:
    """Adaptive-moment optimizer: decay 0.9/0.999, eps 1e-8, no weight decay.

    `m` and `v` are filled with zeros here: `zeros_like` writes them, so
    their memory is resident from the start rather than first touched
    inside the first step. `step` updates `m`, `v` and every parameter's
    `.data` in place, `_CHUNK` elements at a time through two chunk-sized
    scratch buffers, so it holds no parameter-sized temporary. Each element
    still goes through `_BETA1*m + (1-_BETA1)*g`, `_BETA2*v + ((1-_BETA2)*g)*g`,
    `/bias1`, `/bias2`, `sqrt`, `+_EPS`, `lr*m_hat`, `/` and `-` in that
    order, so the bytes equal those of the whole-array expressions. A
    parameter without a gradient steps as if its gradient were zero.
    `zero_grad` sets `.grad = None`: zeroed buffers kept between steps
    would stay alive in every parameter dict a caller holds.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        bias1 = 1.0 - _BETA1 ** self.t
        bias2 = 1.0 - _BETA2 ** self.t
        keep1, keep2 = 1 - _BETA1, 1 - _BETA2
        scratch_a, scratch_b = np.empty(_CHUNK), np.empty(_CHUNK)
        for name in sorted(self.params):
            p = self.params[name]
            data = p.data.reshape(-1, copy=False)  # raises rather than update a copy
            grad = None if p.grad is None else p.grad.reshape(-1)
            m, v = self.m[name].reshape(-1), self.v[name].reshape(-1)
            for lo in range(0, data.size, _CHUNK):
                part = slice(lo, lo + _CHUNK)
                mc, vc, pc = m[part], v[part], data[part]
                a, b = scratch_a[:pc.size], scratch_b[:pc.size]
                np.multiply(mc, _BETA1, out=mc)
                np.multiply(vc, _BETA2, out=vc)
                if grad is None:  # (1 - beta) * 0.0 adds +0.0, which turns -0.0 into 0.0
                    np.add(mc, 0.0, out=mc)
                    np.add(vc, 0.0, out=vc)
                else:
                    gc = grad[part]
                    np.add(mc, np.multiply(gc, keep1, out=a), out=mc)
                    np.multiply(gc, keep2, out=a)
                    np.add(vc, np.multiply(a, gc, out=a), out=vc)
                np.multiply(np.divide(mc, bias1, out=a), lr, out=a)
                np.divide(vc, bias2, out=b)
                np.add(np.sqrt(b, out=b), _EPS, out=b)
                np.subtract(pc, np.divide(a, b, out=a), out=pc)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global norm is at most max_norm.

    Returns the norm before clipping. Each gradient's squares are summed
    from one `g * g` temporary, whose pairwise sum fixes the norm's bits.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


# --- global augmentation -----------------------------------------------------

def apply_global_transform(cloud: PointCloud, boxes: Sequence[Box3D],
                           angle: float, scale: float, flip: bool):
    """Mirror across the x axis (optional), rotate about z, scale uniformly.

    The same transform maps boxes and their interior points consistently:
    the mirror negates y and yaw, rotation adds to yaw, scale multiplies
    centers and dims alike.
    """
    xyz = cloud.xyz.copy()
    if flip:
        xyz[:, 1] = -xyz[:, 1]
    xyz = (xyz @ rotation_z(angle).T) * scale
    out_cloud = PointCloud.from_xyz(xyz, cloud.intensity.copy())

    out_boxes = []
    for b in boxes:
        cy, yaw = (-b.cy, -b.yaw) if flip else (b.cy, b.yaw)
        c, s = math.cos(angle), math.sin(angle)
        rx = c * b.cx - s * cy
        ry = s * b.cx + c * cy
        out_boxes.append(Box3D(rx * scale, ry * scale, b.cz * scale,
                               b.l * scale, b.w * scale, b.h * scale,
                               yaw + angle))
    return out_cloud, out_boxes


def draw_transform(rng) -> tuple[float, float, bool]:
    angle = rng.uniform(-math.pi / 4, math.pi / 4)
    scale = rng.uniform(0.95, 1.05)
    flip = bool(rng.uniform() < 0.5)
    return angle, scale, flip


def augment_pair(pair: ScenePair, seed) -> ScenePair:
    """One shared transform draw applied to both scenes of the pair."""
    angle, scale, flip = draw_transform(np.random.default_rng(seed))
    real, boxes = apply_global_transform(pair.real, pair.boxes, angle, scale, flip)
    conceptual, _ = apply_global_transform(pair.conceptual, pair.boxes,
                                           angle, scale, flip)
    return ScenePair(real, conceptual, tuple(boxes))


# --- training phases ---------------------------------------------------------

def _detection_losses(out, boxes, anchor_grid, anchors: AnchorConfig, codec):
    assignment = assign_targets(anchor_grid, list(boxes), pos_iou=anchors.positive_iou,
                                neg_iou=anchors.negative_iou, convention=codec)
    cls = focal_loss(flatten_cls_map(out.cls_map), assignment.labels)
    bbox = smooth_l1_loss(flatten_reg_map(out.reg_map), assignment)
    return bbox, cls


def _require_finite(epoch, step, **parts):
    bad = {k: v for k, v in parts.items() if not math.isfinite(v)}
    if bad:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(bad.items()))
        raise RuntimeError(
            f"non-finite loss at epoch {epoch}, step {step}: {detail}")


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def _maybe_checkpoint(params, directory, prefix, epoch, every):
    if directory is None or not every or epoch % every:
        return
    engine.make_dir(directory)
    save_checkpoint(os.path.join(directory, f"{prefix}_epoch{epoch:04d}.ckpt"), params)


def _backpropagate(staged, sample_loss, sums: np.ndarray, epoch: int, step: int) -> None:
    """Backpropagate the mean loss of one prepared batch on a tape of its own.

    Adds each sample's bbox, cls, assoc and total loss to `sums`. The tape,
    the staged samples and every activation they hold are released on
    return, before clipping, the Adam step and the next batch's prepare.
    """
    with Tape() as tape:
        batch_loss = None
        for item in staged:
            parts, total = sample_loss(item)
            values = {name: t.item() for name, t in parts.items()}
            _require_finite(epoch, step, **values)
            sums += (values["bbox"], values["cls"], values.get("assoc", 0.0), total.item())
            batch_loss = total if batch_loss is None else engine.add(batch_loss, total)
        batch_loss = engine.mul(batch_loss, Tensor(np.float64(1.0 / len(staged))))
        tape.backward(batch_loss)


def _fit(samples, params: dict[str, Tensor], train_config: TrainConfig,
         prepare, sample_loss, prefix: str, checkpoint_dir) -> list[EpochStats]:
    """The epoch/batch loop both phases share; updates params in place.

    prepare(sample, epoch, index) runs outside the tape for each sample of a
    batch before the batch's first loss. sample_loss(prepared) runs on the
    tape and returns (parts, total): parts maps "bbox", "cls" and, on the
    live branch, "assoc" to loss tensors. A missing "assoc" logs as 0.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("dataset is empty")
    opt = Adam(params)
    batches_per_epoch = math.ceil(len(samples) / train_config.batch_size)
    total_steps = train_config.epochs * batches_per_epoch

    log: list[EpochStats] = []
    step = 0
    for epoch in range(1, train_config.epochs + 1):
        order = np.random.default_rng([train_config.seed, epoch]).permutation(len(samples))
        sums = np.zeros(4)  # bbox, cls, assoc, total
        for batch in _batches(order, train_config.batch_size):
            lr = cosine_lr(step, total_steps, train_config.base_lr)
            _backpropagate([prepare(samples[idx], epoch, int(idx)) for idx in batch],
                           sample_loss, sums, epoch, step)
            if train_config.clip_norm is not None:
                clip_gradients(params, train_config.clip_norm)
            opt.step(lr)
            opt.zero_grad()
            step += 1
        log.append(EpochStats(epoch, *(sums / len(samples))))
        _maybe_checkpoint(params, checkpoint_dir, prefix, epoch,
                          train_config.checkpoint_every)
    return log


def train_cfg(scenes: Sequence[tuple[PointCloud, Sequence[Box3D]]],
              net_config: NetworkConfig, train_config: TrainConfig,
              checkpoint_dir=None, anchors: AnchorConfig = AnchorConfig()
              ) -> tuple[dict[str, Tensor], list[EpochStats]]:
    """Fit the reference branch on composed scenes with the plain two-part loss."""
    params = init_params(net_config, seed=train_config.seed, with_offsets=False)
    anchor_grid = anchors.generate(net_config.bev_shape, net_config.grid)

    def prepare(scene, epoch, idx):
        cloud, boxes = scene
        if train_config.augment:
            rng = np.random.default_rng([train_config.seed, _PHASE_CFG, epoch, idx])
            cloud, boxes = apply_global_transform(cloud, boxes, *draw_transform(rng))
        return cloud, boxes

    def sample_loss(scene):
        cloud, boxes = scene
        out = cfg_forward(cloud, params, net_config)
        bbox, cls = _detection_losses(out, boxes, anchor_grid, anchors, train_config.codec)
        return {"bbox": bbox, "cls": cls}, cfg_total_loss(bbox, cls)

    log = _fit(scenes, params, train_config, prepare, sample_loss, "cfg", checkpoint_dir)
    return params, log


def train_associate(pairs: Sequence[ScenePair], cfg_params: dict[str, Tensor],
                    net_config: NetworkConfig, train_config: TrainConfig,
                    checkpoint_dir=None, anchors: AnchorConfig = AnchorConfig()
                    ) -> tuple[dict[str, Tensor], list[EpochStats]]:
    """Train the live branch against the frozen reference on scene pairs.

    Per pair: the reference branch runs on the composed scene up to its
    adaptation features, without gradients; the live branch consumes the
    real scene; the total loss adds the reweighted feature-association term
    with weight sigma.
    """
    # the caller's own arrays, wrapped without gradients: nothing writes to them
    frozen = {name: Tensor(t.data) for name, t in cfg_params.items()}
    validate_params(frozen, net_config, with_offsets=False)

    # the live trunk starts from the reference weights, the offset conv at zero
    params = {name: Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in parameter_shapes(net_config, with_offsets=True).items()}
    copy_shared_into(params, frozen)
    anchor_grid = anchors.generate(net_config.bev_shape, net_config.grid)

    def prepare(pair, epoch, idx):
        if train_config.augment:
            pair = augment_pair(pair, [train_config.seed, _PHASE_PAIR, epoch, idx])
        # reference features and foreground come from the composed scene
        ref_adapt = cfg_adapt_feature(pair.conceptual, frozen, net_config)
        fg = foreground_mask(pair.boxes, pair.conceptual, net_config.grid,
                             SPATIAL_DOWNSAMPLE)
        return pair, ref_adapt, fg

    def sample_loss(staged):
        pair, ref_adapt, fg = staged
        out = pfe_forward(pair.real, params, net_config)
        bbox, cls = _detection_losses(out, pair.boxes, anchor_grid, anchors,
                                      train_config.codec)
        reweight = reweighting_map(offset_length_map(out.offsets), fg)
        assoc = association_loss(out.adapt_feature, ref_adapt,
                                 reweight, train_config.count_mode)
        total = associate_total_loss(bbox, cls, assoc, train_config.sigma)
        return {"bbox": bbox, "cls": cls, "assoc": assoc}, total

    log = _fit(pairs, params, train_config, prepare, sample_loss, "pfe", checkpoint_dir)
    return params, log
