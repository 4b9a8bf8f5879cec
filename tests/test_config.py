import os

import pytest

from voxdet import cli
from voxdet.config import (
    EvalConfig,
    RunConfig,
    default_run_config,
    dumps_config,
    from_dict,
    load_config,
    loads_config,
    to_dict,
)
from voxdet.trainer import TrainConfig
from voxdet.voxelizer import mini_grid
from helpers import mini_run_config


def test_defaults_carry_the_training_recipe():
    cfg = default_run_config()
    assert cfg.train.batch_size == 6
    assert cfg.train.epochs == 80
    assert cfg.train.base_lr == 0.001
    assert cfg.train.sigma == 0.5
    assert cfg.conceptual.m_bins == 24
    assert cfg.conceptual.k_percent == 20.0
    assert cfg.anchors.dims == (3.9, 1.6, 1.56)
    assert cfg.grid.spatial_shape == (1408, 1600, 40)
    assert cfg.network.grid == cfg.grid


def test_yaml_roundtrip_is_lossless():
    for cfg in (default_run_config(), mini_run_config()):
        assert loads_config(dumps_config(cfg)) == cfg


def test_roundtrip_preserves_non_default_values():
    cfg = RunConfig(grid=mini_grid(),
                    train=TrainConfig(batch_size=2, epochs=3, sigma=0.25,
                                      base_lr=0.003),
                    eval=EvalConfig(iou_threshold=0.5, interpolation=11))
    back = loads_config(dumps_config(cfg))
    assert back == cfg
    assert back.train.base_lr == 0.003
    assert back.eval.interpolation == 11


def test_unknown_section_and_key_are_rejected():
    d = to_dict(default_run_config())
    d["extras"] = {}
    with pytest.raises(ValueError, match="unknown config section 'extras'"):
        from_dict(d)
    d.pop("extras")
    d["train"]["momentum"] = 0.9
    with pytest.raises(ValueError, match="unknown key 'momentum' in section 'train'"):
        from_dict(d)


def test_grid_appears_once_in_the_tree():
    d = to_dict(default_run_config())
    assert list(d) == ["data", "grid", "conceptual", "anchors", "train", "eval"]
    assert from_dict(d).network.grid == from_dict(d).grid


def test_section_validation_still_fires_through_from_dict():
    d = to_dict(default_run_config())
    d["eval"]["interpolation"] = 25
    with pytest.raises(ValueError, match="11 or 40"):
        from_dict(d)
    d = to_dict(default_run_config())
    d["anchors"]["dims"] = [1.0, 2.0]
    with pytest.raises(ValueError, match="three positive"):
        from_dict(d)


def test_partial_config_fills_defaults():
    cfg = from_dict({"train": {"epochs": 2}})
    assert cfg.train.epochs == 2
    assert cfg.train.batch_size == 6  # untouched default
    assert cfg.eval == EvalConfig()


def test_file_io(tmp_path):
    path = tmp_path / "run.yaml"
    cfg = mini_run_config()
    path.write_text(dumps_config(cfg))
    assert load_config(path) == cfg
    with pytest.raises(FileNotFoundError, match="missing.yaml"):
        load_config(tmp_path / "missing.yaml")


@pytest.mark.parametrize("text", [
    "train:\n  codec: lineag\n",
    "train:\n  count_mode: nonzer\n",
    "eval:\n  nms_iou: -1\n",
    "eval:\n  score_threshold: 2\n",
    "eval:\n  iou_threshold: 0\n",
    "train:\n  sigma: -1\n",
    "train:\n  seed: -1\n",
    "train:\n  epochs: 1.5\n",
    "network:\n  embed_channels: 0\n",
    "network:\n  deform_kernel: -1\n",
    "train:\n  batch_size: 1.5\n",
    "train:\n  checkpoint_every: 0.5\n",
    "network:\n  adapt_channels: 0\n",
    "network:\n  head_channels: 0\n",
    "network:\n  stage_channels: [16, 32, 0, 128]\n",
    "network:\n  head_channels: 1.5\n",
    "network:\n  embed_channels: 1.5\n",
    "conceptual:\n  m_bins: 1.5\n",
    "conceptual:\n  min_points: -1\n",
    "eval:\n  interpolation: 11.0\n",
    "grid:\n  range_min: [0, -16, -2]\n  range_max: [32, 16, 2]\n"
    "  voxel_size: [0.5, 0.5, 0.5]\n  max_points_per_voxel: 1.5\n",
    "train:\n  base_lr: .nan\n",
    "train:\n  clip_norm: .nan\n",
    "anchors:\n  dims: [.inf, 1.6, 1.56]\n",
    "train:\n  base_lr: \"0.001\"\n",
    "train:\n  augment: 3\n",
    "train:\n  sigma: .inf\n",
    "train:\n  augment: \"yes\"\n",
    "anchors:\n  dims: [3.9, .nan, 1.56]\n",
    "anchors:\n  z_center: .nan\n",
    "anchors:\n  z_center: \"-1\"\n",
    "anchors:\n  positive_iou: \"0.6\"\n",
    "anchors:\n  negative_iou: true\n",
    "eval:\n  iou_threshold: \"0.7\"\n",
    "eval:\n  score_threshold: .nan\n",
    "eval:\n  nms_iou: .inf\n",
    "conceptual:\n  k_percent: \"20\"\n",
], ids=["codec", "count_mode", "nms_iou", "score_threshold", "iou_threshold",
        "sigma", "seed", "epochs", "embed_channels", "deform_kernel",
        "batch_size_float", "checkpoint_every_float", "adapt_channels", "head_channels",
        "stage_channels", "head_channels_float", "embed_channels_float", "m_bins_float",
        "min_points", "interpolation_float", "max_points_per_voxel_float",
        "base_lr_nan", "clip_norm_nan", "dims_inf", "base_lr_string", "augment_int",
        "sigma_inf", "augment_string", "dims_nan", "z_center_nan", "z_center_string",
        "positive_iou_string", "negative_iou_bool", "iou_threshold_string",
        "score_threshold_nan", "nms_iou_inf", "k_percent_string"])
def test_out_of_range_values_are_rejected_at_load(text):
    with pytest.raises(ValueError):
        loads_config(text)


@pytest.mark.parametrize("text,missing", [
    ("grid:\n  range_max: [32, 16, 2]\n", "range_min, voxel_size"),
    ("grid: {}\n", "range_min, range_max, voxel_size"),
], ids=["grid_one_key", "grid_empty"])
def test_partial_grid_section_names_its_missing_keys(text, missing):
    with pytest.raises(ValueError, match=f"section 'grid' is missing required keys: {missing}$"):
        loads_config(text)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def test_committed_configs_match_the_code(capsys):
    assert load_config(os.path.join(CONFIGS, "mini.yaml")) == mini_run_config()
    assert cli.main(["--dump-defaults"]) == 0
    with open(os.path.join(CONFIGS, "default.yaml"), "rb") as fh:
        assert fh.read() == capsys.readouterr().out.encode()
