"""Run configuration: one YAML tree covering every pipeline stage.

The dataclasses own validation; this module only maps them to and from
plain dicts. Unknown keys are rejected rather than ignored so a typo in
a config file fails loudly instead of silently running defaults.
"""
from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields

import yaml

from .conceptual import ConceptualConfig
from .detection_head import AnchorConfig
from .evaluation import EvalConfig
from .network import NetworkConfig
from .trainer import TrainConfig
from .voxelizer import GridConfig, default_grid


@dataclass(frozen=True)
class DataPaths:
    scenes: str = "data/scenes"
    conceptual: str = "data/conceptual"
    out: str = "runs"

    def __post_init__(self):
        for name in ("scenes", "conceptual", "out"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"data.{name} must be a non-empty path, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    data: DataPaths = field(default_factory=DataPaths)
    grid: GridConfig = field(default_factory=default_grid)
    network: NetworkConfig = field(init=False)  # the detector on `grid`
    conceptual: ConceptualConfig = field(default_factory=ConceptualConfig)
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        object.__setattr__(self, "network", NetworkConfig(grid=self.grid))


def default_run_config() -> RunConfig:
    return RunConfig()


_SECTIONS = {
    "data": DataPaths,
    "grid": GridConfig,
    "conceptual": ConceptualConfig,
    "anchors": AnchorConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}
_TUPLE_KEYS = {"range_min", "range_max", "voxel_size", "dims"}


def _section_dict(cfg: RunConfig, name: str) -> dict:
    out = {}
    for f in fields(_SECTIONS[name]):
        value = getattr(getattr(cfg, name), f.name)
        out[f.name] = list(value) if f.name in _TUPLE_KEYS else value
    return out


def to_dict(cfg: RunConfig) -> dict:
    return {name: _section_dict(cfg, name) for name in _SECTIONS}


def _build_section(name: str, raw: dict) -> object:
    known = {f.name: f for f in fields(_SECTIONS[name])}
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown key '{key}' in section '{name}'")
    missing = [key for key, f in known.items() if key not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"section '{name}' is missing required keys: {', '.join(missing)}")
    for key in raw:
        if key in _TUPLE_KEYS and not isinstance(raw[key], (list, tuple)):
            raise ValueError(f"{name}.{key} must be a list of values, got {raw[key]!r}")
    kwargs = {k: tuple(v) if k in _TUPLE_KEYS else v for k, v in raw.items()}
    return _SECTIONS[name](**kwargs)


def from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ValueError("config root must be a mapping")
    for key in d:
        if key not in _SECTIONS:
            raise ValueError(f"unknown config section '{key}'")
        if not isinstance(d[key], dict):
            raise ValueError(f"section '{key}' must be a mapping")
    return RunConfig(**{name: _build_section(name, d[name]) for name in _SECTIONS if name in d})


def dumps_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=False)


def loads_config(text: str) -> RunConfig:
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"not valid YAML: {exc}") from exc
    return from_dict(tree)


def load_config(path: str | os.PathLike) -> RunConfig:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no config file at {path}")
    try:
        with open(path) as fh:
            return loads_config(fh.read())
    except ValueError as exc:
        raise ValueError(f"config {os.fspath(path)}: {exc}") from exc
