"""Run configuration: one YAML tree covering every pipeline stage.

The dataclasses own validation; this module only maps them to and from
plain dicts. Unknown keys are rejected rather than ignored so a typo in
a config file fails loudly instead of silently running defaults.
"""
from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields

import yaml

from .detection_head import NMS_IOU_DEFAULT, AnchorConfig
from .engine import atomic_write
from .evaluation import METRIC_BEV, METRIC_3D
from .network import NetworkConfig
from .trainer import TrainConfig
from .voxelizer import GridConfig, default_grid, mini_grid, require_float, require_int


@dataclass(frozen=True)
class DataPaths:
    scenes: str = "data/scenes"
    conceptual: str = "data/conceptual"
    out: str = "runs"


@dataclass(frozen=True)
class ConceptualConfig:
    m_bins: int = 24
    k_percent: float = 20.0
    min_points: int = 8

    def __post_init__(self):
        require_int("m_bins", self.m_bins, 1)
        require_int("min_points", self.min_points, 0)
        require_float("k_percent", self.k_percent)
        if not (0.0 < self.k_percent <= 100.0):
            raise ValueError("k_percent must be in (0, 100]")


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.7
    interpolation: int = 40
    metric: str = METRIC_BEV
    score_threshold: float = 0.1
    nms_iou: float = NMS_IOU_DEFAULT

    def __post_init__(self):
        require_int("interpolation", self.interpolation, 11)
        for name in ("iou_threshold", "score_threshold", "nms_iou"):
            require_float(name, getattr(self, name))
        if self.interpolation not in (11, 40):
            raise ValueError("interpolation must be 11 or 40")
        if self.metric not in (METRIC_BEV, METRIC_3D):
            raise ValueError(f"metric must be '{METRIC_BEV}' or '{METRIC_3D}'")
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError("iou_threshold must be in (0, 1]")
        if not (0.0 <= self.score_threshold <= 1.0):
            raise ValueError("score_threshold must be in [0, 1]")
        if not (0.0 <= self.nms_iou <= 1.0):
            raise ValueError("nms_iou must be in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    data: DataPaths = field(default_factory=DataPaths)
    grid: GridConfig = field(default_factory=default_grid)
    network: NetworkConfig | None = None  # filled from grid in __post_init__
    conceptual: ConceptualConfig = field(default_factory=ConceptualConfig)
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.network is None:
            object.__setattr__(self, "network", NetworkConfig(grid=self.grid))
        if self.network.grid != self.grid:
            raise ValueError("network.grid must equal the top-level grid")


def default_run_config() -> RunConfig:
    return RunConfig()


def mini_run_config() -> RunConfig:
    """Desk-scale variant: 64x64x8 grid, short training schedule."""
    grid = mini_grid()
    return RunConfig(grid=grid, network=NetworkConfig(grid=grid),
                     train=TrainConfig(batch_size=2, epochs=10))


# network.grid is serialized once, at the top level
_NETWORK_FIELDS = tuple(f.name for f in fields(NetworkConfig) if f.name != "grid")
_TUPLE_KEYS = {"range_min", "range_max", "voxel_size", "stage_channels", "dims"}


def _section_dict(obj, names) -> dict:
    out = {}
    for name in names:
        value = getattr(obj, name)
        out[name] = list(value) if name in _TUPLE_KEYS else value
    return out


def to_dict(cfg: RunConfig) -> dict:
    return {
        "data": _section_dict(cfg.data, (f.name for f in fields(DataPaths))),
        "grid": _section_dict(cfg.grid, (f.name for f in fields(GridConfig))),
        "network": _section_dict(cfg.network, _NETWORK_FIELDS),
        "conceptual": _section_dict(cfg.conceptual, (f.name for f in fields(ConceptualConfig))),
        "anchors": _section_dict(cfg.anchors, (f.name for f in fields(AnchorConfig))),
        "train": _section_dict(cfg.train, (f.name for f in fields(TrainConfig))),
        "eval": _section_dict(cfg.eval, (f.name for f in fields(EvalConfig))),
    }


def _build_section(name: str, cls, raw: dict) -> object:
    known = {f.name for f in fields(cls)}
    if name == "network":
        known.discard("grid")
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown key '{key}' in section '{name}'")
    missing = [f.name for f in fields(cls) if f.name in known and f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"section '{name}' is missing required keys: {', '.join(missing)}")
    kwargs = {k: tuple(v) if k in _TUPLE_KEYS else v for k, v in raw.items()}
    return kwargs if name == "network" else cls(**kwargs)


_SECTIONS = {
    "data": DataPaths,
    "grid": GridConfig,
    "network": NetworkConfig,
    "conceptual": ConceptualConfig,
    "anchors": AnchorConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}


def from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ValueError("config root must be a mapping")
    for key in d:
        if key not in _SECTIONS:
            raise ValueError(f"unknown config section '{key}'")
        if not isinstance(d[key], dict):
            raise ValueError(f"section '{key}' must be a mapping")
    grid = (_build_section("grid", GridConfig, d["grid"])
            if "grid" in d else default_grid())
    net_kwargs = _build_section("network", NetworkConfig, d.get("network", {}))
    parts = {name: _build_section(name, cls, d[name])
             for name, cls in _SECTIONS.items()
             if name in d and name not in ("grid", "network")}
    return RunConfig(grid=grid,
                     network=NetworkConfig(grid=grid, **net_kwargs), **parts)


def dumps_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=False)


def loads_config(text: str) -> RunConfig:
    return from_dict(yaml.safe_load(text))


def save_config(path: str | os.PathLike, cfg: RunConfig) -> None:
    with atomic_write(path) as fh:
        fh.write(dumps_config(cfg))


def load_config(path: str | os.PathLike) -> RunConfig:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path) as fh:
        return loads_config(fh.read())
