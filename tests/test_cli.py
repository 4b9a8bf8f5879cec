"""End-to-end exercises of the command line front end.

The pipeline fixture drives make-data -> build-conceptual -> train-cfg ->
train once per module and the individual tests pick over the artifacts.
"""
import argparse
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

from voxdet import cli, evaluation, network, trainer, verify
from voxdet.config import (
    AnchorConfig,
    DataPaths,
    default_run_config,
    dumps_config,
    load_config,
    loads_config,
    to_dict,
)
from voxdet.detection_head import generate_anchors
from voxdet.geometry import Box3D
from voxdet.synthetic import SceneRecipe, make_dataset
from helpers import mini_run_config, read_ppm


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    scenes = root / "scenes"
    rcs = {}
    rcs["make"] = cli.main([
        "make-data", "--out", str(scenes), "--scenes", "3", "--seed", "7",
        "--cars", "2", "--base-points", "160"])
    cfg = mini_run_config()
    cfg = replace(
        cfg,
        data=DataPaths(scenes=str(scenes),
                       conceptual=str(root / "conceptual"),
                       out=str(root / "runs")),
        train=replace(cfg.train, epochs=2, batch_size=2))
    cfg_path = root / "run.yaml"
    cfg_path.write_text(dumps_config(cfg))
    rcs["build"] = cli.main(["build-conceptual", "--config", str(cfg_path)])
    rcs["train_cfg"] = cli.main(["train-cfg", "--config", str(cfg_path)])
    rcs["train"] = cli.main(["train", "--config", str(cfg_path)])
    return {"root": root, "cfg": cfg, "cfg_path": str(cfg_path), "rcs": rcs}


def test_pipeline_exit_codes(pipeline):
    assert pipeline["rcs"] == {"make": 0, "build": 0, "train_cfg": 0, "train": 0}


def test_make_data_layout(pipeline):
    scenes = pipeline["root"] / "scenes"
    names = sorted(p.name for p in scenes.iterdir())
    assert names == ["scene_0000", "scene_0001", "scene_0002"]
    for name in names:
        assert (scenes / name / "points.bin").is_file()
        assert (scenes / name / "boxes.txt").is_file()


def test_build_conceptual_outputs(pipeline):
    conceptual = pipeline["root"] / "conceptual"
    for name in ("scene_0000", "scene_0001", "scene_0002"):
        assert (conceptual / name / "points.bin").is_file()
    report = (conceptual / "report.txt").read_text()
    lines = report.splitlines()
    assert lines[0] == "scene objects fallbacks mean_distance"
    assert len(lines) == 4
    for line in lines[1:]:
        name, objects, fallbacks, mean_d = line.split()
        assert int(objects) == 2
        assert int(fallbacks) >= 0
        float(mean_d)


def test_build_conceptual_rerun_is_byte_identical(pipeline):
    conceptual = pipeline["root"] / "conceptual"
    files = [conceptual / "report.txt"]
    files += sorted(conceptual.glob("scene_*/points.bin"))
    files += sorted(conceptual.glob("scene_*/boxes.txt"))
    before = {f: f.read_bytes() for f in files}
    assert cli.main(["build-conceptual", "--config", pipeline["cfg_path"]]) == 0
    assert {f: f.read_bytes() for f in files} == before


def test_training_artifacts(pipeline):
    runs = pipeline["root"] / "runs"
    assert (runs / "cfg.ckpt").is_file()
    assert (runs / "pfe.ckpt").is_file()
    for log in ("cfg_log.txt", "train_log.txt"):
        lines = (runs / log).read_text().splitlines()
        assert lines[0] == "epoch bbox cls assoc total"
        assert len(lines) == 3  # header + 2 epochs


def test_train_cfg_rerun_is_byte_identical(pipeline):
    runs = pipeline["root"] / "runs"
    before = (runs / "cfg.ckpt").read_bytes()
    log_before = (runs / "cfg_log.txt").read_bytes()
    assert cli.main(["train-cfg", "--config", pipeline["cfg_path"]]) == 0
    assert (runs / "cfg.ckpt").read_bytes() == before
    assert (runs / "cfg_log.txt").read_bytes() == log_before


def test_train_cfg_writes_per_epoch_checkpoints(pipeline):
    base = pipeline["cfg"]
    out = pipeline["root"] / "every_epoch"
    cfg = replace(base, data=replace(base.data, out=str(out)),
                  train=replace(base.train, epochs=2, checkpoint_every=1))
    path = pipeline["root"] / "every_epoch.yaml"
    path.write_text(dumps_config(cfg))
    assert cli.main(["train-cfg", "--config", str(path)]) == 0
    assert sorted(p.name for p in out.glob("*.ckpt")) == [
        "cfg.ckpt", "cfg_epoch0001.ckpt", "cfg_epoch0002.ckpt"]
    assert (out / "cfg_epoch0002.ckpt").read_bytes() == (out / "cfg.ckpt").read_bytes()
    assert (out / "cfg_epoch0001.ckpt").read_bytes() != (out / "cfg.ckpt").read_bytes()


def test_train_cfg_with_its_checkpoint_path_blocked_exits_4_before_training(pipeline, capsys):
    base = pipeline["cfg"]
    out = pipeline["root"] / "blocked"
    (out / "cfg.ckpt").mkdir(parents=True)
    cfg = replace(base, data=replace(base.data, out=str(out)),
                  train=replace(base.train, epochs=2, checkpoint_every=1))
    path = pipeline["root"] / "blocked.yaml"
    path.write_text(dumps_config(cfg))
    assert cli.main(["train-cfg", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert f"error: cannot write {out / 'cfg.ckpt'}: a directory is in the way" in err
    assert os.listdir(out) == ["cfg.ckpt"]  # no epoch checkpoint: training never started


@pytest.mark.parametrize("command,prefix", [("train-cfg", "cfg"), ("train", "pfe")])
def test_epoch_checkpoint_path_blocked_exits_4_before_training(pipeline, capsys, command, prefix):
    base = pipeline["cfg"]
    out = pipeline["root"] / f"blocked_{prefix}_epoch"
    blocked = out / f"{prefix}_epoch0002.ckpt"
    blocked.mkdir(parents=True)
    cfg = replace(base, data=replace(base.data, out=str(out)),
                  train=replace(base.train, epochs=2, checkpoint_every=1))
    path = pipeline["root"] / f"blocked_{prefix}_epoch.yaml"
    path.write_text(dumps_config(cfg))
    argv = [command, "--config", str(path)]
    if command == "train":
        argv += ["--cfg-checkpoint", str(pipeline["root"] / "runs" / "cfg.ckpt")]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert f"error: cannot write {blocked}: a directory is in the way" in err
    assert os.listdir(out) == [blocked.name]  # no epoch checkpoint: training never started


def test_train_without_reference_checkpoint_is_missing(pipeline, capsys):
    cfg = replace(pipeline["cfg"],
                  data=replace(pipeline["cfg"].data,
                               out=str(pipeline["root"] / "empty_runs")))
    path = pipeline["root"] / "fresh.yaml"
    path.write_text(dumps_config(cfg))
    assert cli.main(["train", "--config", str(path)]) == 3
    assert "reference checkpoint not found" in capsys.readouterr().err


def test_train_from_a_live_checkpoint_as_reference_exits_4(pipeline, capsys):
    # the live set's trained offset conv is no part of a reference branch
    cfg = replace(pipeline["cfg"],
                  data=replace(pipeline["cfg"].data, out=str(pipeline["root"] / "live_ref")))
    path = pipeline["root"] / "live_ref.yaml"
    path.write_text(dumps_config(cfg))
    live = str(pipeline["root"] / "runs" / "pfe.ckpt")
    assert cli.main(["train", "--config", str(path), "--cfg-checkpoint", live]) == 4
    assert "unexpected parameter offsets.bias" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-cfg", "train"])
def test_training_assigns_targets_with_the_configured_anchors(pipeline, monkeypatch,
                                                              command):
    anchors = AnchorConfig(dims=(4.4, 1.9, 1.7), z_center=-0.6)
    base = pipeline["cfg"]
    cfg = replace(base, anchors=anchors,
                  data=replace(base.data, out=str(pipeline["root"] / f"anchors_{command}")),
                  train=replace(base.train, epochs=1))
    path = pipeline["root"] / f"anchors_{command}.yaml"
    path.write_text(dumps_config(cfg))
    seen = []
    assign = trainer.assign_targets

    def spy(anchor_grid, gts, **kwargs):
        seen.append((anchor_grid, kwargs))
        return assign(anchor_grid, gts, **kwargs)

    monkeypatch.setattr(trainer, "assign_targets", spy)
    argv = [command, "--config", str(path)]
    if command == "train":
        argv += ["--cfg-checkpoint", str(pipeline["root"] / "runs" / "cfg.ckpt")]
    assert cli.main(argv) == 0
    want = generate_anchors(cfg.network.bev_shape, cfg.grid, dims=anchors.dims,
                            z_center=anchors.z_center)
    assert len(seen) == 3  # one assignment per scene of the single epoch
    for anchor_grid, _ in seen:
        np.testing.assert_array_equal(anchor_grid, want)


def test_eval_writes_report(pipeline, capsys):
    assert cli.main(["eval", "--config", pipeline["cfg_path"]]) == 0
    out = capsys.readouterr().out
    assert "overall ap" in out
    assert "metric bev" in out
    on_disk = (pipeline["root"] / "runs" / "eval_real.txt").read_text()
    assert on_disk == out


def test_eval_conceptual_dataset(pipeline):
    ckpt = str(pipeline["root"] / "runs" / "cfg.ckpt")
    rc = cli.main(["eval", "--config", pipeline["cfg_path"],
                   "--dataset", "conceptual", "--checkpoint", ckpt])
    assert rc == 0
    assert (pipeline["root"] / "runs" / "eval_conceptual.txt").is_file()


def test_eval_out_override(pipeline):
    other = pipeline["root"] / "elsewhere"
    ckpt = str(pipeline["root"] / "runs" / "pfe.ckpt")
    rc = cli.main(["eval", "--config", pipeline["cfg_path"],
                   "--out", str(other), "--checkpoint", ckpt])
    assert rc == 0
    assert (other / "eval_real.txt").is_file()


def test_eval_report_write_failing_midway_keeps_previous(pipeline, tmp_path,
                                                        monkeypatch, capsys):
    ckpt = str(pipeline["root"] / "runs" / "pfe.ckpt")
    argv = ["eval", "--config", pipeline["cfg_path"], "--out", str(tmp_path),
            "--checkpoint", ckpt]
    assert cli.main(argv) == 0
    before = (tmp_path / "eval_real.txt").read_bytes()
    # a lone surrogate cannot be encoded, so the write fails after the open
    monkeypatch.setattr(cli, "format_report", lambda report: "scenes 3\n\ud800\n")
    assert cli.main(argv) == 4
    assert "encode" in capsys.readouterr().err
    assert (tmp_path / "eval_real.txt").read_bytes() == before
    assert os.listdir(tmp_path) == ["eval_real.txt"]


def test_eval_report_path_holding_a_directory_exits_4(pipeline, tmp_path, capsys):
    report = tmp_path / "runs" / "eval_real.txt"
    report.mkdir(parents=True)
    rc = cli.main(["eval", "--config", pipeline["cfg_path"], "--out", str(tmp_path / "runs"),
                   "--checkpoint", str(pipeline["root"] / "runs" / "pfe.ckpt")])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"error: cannot write {report}: a directory is in the way" in err
    assert os.listdir(tmp_path / "runs") == ["eval_real.txt"]  # no temporary file left


def test_eval_with_a_directory_at_the_temporary_path_exits_4_before_scoring(
        pipeline, tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "runs" / "eval_real.txt.tmp"
    blocker.mkdir(parents=True)
    calls = []
    monkeypatch.setattr(cli, "evaluate", lambda *args: calls.append(args))
    rc = cli.main(["eval", "--config", pipeline["cfg_path"], "--out", str(tmp_path / "runs"),
                   "--checkpoint", str(pipeline["root"] / "runs" / "pfe.ckpt")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err == f"error: cannot write {blocker}: a directory is in the way\n"
    assert calls == []
    assert os.listdir(tmp_path / "runs") == ["eval_real.txt.tmp"]


def test_eval_truncated_checkpoint_exits_4(pipeline, tmp_path, capsys):
    raw = (pipeline["root"] / "runs" / "pfe.ckpt").read_bytes()
    partial = tmp_path / "partial.ckpt"
    partial.write_bytes(raw[:40])
    rc = cli.main(["eval", "--config", pipeline["cfg_path"], "--checkpoint", str(partial)])
    assert rc == 4
    assert "truncated checkpoint" in capsys.readouterr().err


def test_render_bev(pipeline, capsys):
    ckpt = str(pipeline["root"] / "runs" / "pfe.ckpt")
    rc = cli.main(["render-bev", "--config", pipeline["cfg_path"],
                   "--checkpoint", ckpt, "--scene", "0", "--scale", "2"])
    assert rc == 0
    capsys.readouterr()
    img = read_ppm(str(pipeline["root"] / "runs" / "bev_scene_0000.ppm"))
    # mini grid is 64x64 voxels in BEV, doubled by --scale 2
    assert img.shape == (128, 128, 3)
    assert img.dtype == np.uint8


def test_render_bev_scene_out_of_range(pipeline, capsys):
    rc = cli.main(["render-bev", "--config", pipeline["cfg_path"],
                   "--scene", "99"])
    assert rc == 4
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_render_bev_scale_must_be_positive(scale, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["render-bev", "--config", str(tmp_path / "run.yaml"), "--scale", scale])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_render_bev_runs_the_live_branch_once_per_scene(pipeline, monkeypatch,
                                                         capsys):
    calls = []
    forward = network.pfe_forward

    def counting(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    for module in (network, evaluation):
        monkeypatch.setattr(module, "pfe_forward", counting)
    ckpt = str(pipeline["root"] / "runs" / "pfe.ckpt")
    rc = cli.main(["render-bev", "--config", pipeline["cfg_path"], "--checkpoint", ckpt,
                   "--out", str(pipeline["root"] / "render_once"), "--scale", "1"])
    assert rc == 0
    capsys.readouterr()
    assert len(calls) == 3


def test_seed_and_out_overrides_resolve(tmp_path):
    cfg = mini_run_config()
    path = tmp_path / "run.yaml"
    path.write_text(dumps_config(cfg))
    ns = argparse.Namespace(config=path, seed=11, out="elsewhere")
    got = cli._resolve_config(ns)
    assert got.train.seed == 11
    assert got.data.out == "elsewhere"
    ns = argparse.Namespace(config=path, seed=None, out=None)
    got = cli._resolve_config(ns)
    assert got.data.out == cfg.data.out


def test_missing_config_exits_3(tmp_path, capsys):
    path = tmp_path / "nope.yaml"
    assert cli.main(["eval", "--config", str(path)]) == 3
    assert "nope.yaml" in capsys.readouterr().err


def test_invalid_config_exits_4(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("bogus_section:\n  a: 1\n")
    assert cli.main(["eval", "--config", str(path)]) == 4
    assert "error:" in capsys.readouterr().err


def test_broken_yaml_exits_4_naming_the_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("train: [1, 2\n")
    assert cli.main(["eval", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert f"config {path}: not valid YAML" in err
    assert "Traceback" not in err


def test_config_directory_exits_3(tmp_path, capsys):
    assert cli.main(["eval", "--config", str(tmp_path)]) == 3
    assert f"no config file at {tmp_path}" in capsys.readouterr().err


_GRID = "  range_max: [32, 16, 2]\n  voxel_size: [0.5, 0.5, 0.5]\n"


@pytest.mark.parametrize("text,field", [
    ("grid:\n  range_min: 5\n" + _GRID, "grid.range_min"),
    ("anchors:\n  dims: 3.9\n", "anchors.dims"),
    ("grid:\n  range_min: [0, -16]\n" + _GRID, "range_min"),
    ("grid:\n  range_min: [0, -16, -2, 7]\n" + _GRID, "range_min"),
], ids=["range_min_scalar", "dims_scalar", "range_min_two_values", "range_min_four_values"])
def test_list_field_of_wrong_shape_exits_4_naming_it(tmp_path, capsys, text, field):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert cli.main(["train-cfg", "--config", str(path)]) == 4
    assert f": {field} must " in capsys.readouterr().err


@pytest.mark.parametrize("section,old,message", [
    ("network", {"embed_channels": 128, "stage_channels": [16, 32, 64, 128],
                 "deform_kernel": 5, "adapt_channels": 128, "head_channels": 128},
     "unknown config section 'network'"),
    ("grid", {"max_points_per_voxel": 5}, "unknown key 'max_points_per_voxel' in section 'grid'"),
    ("train", {"clip_norm": None}, "unknown key 'clip_norm' in section 'train'"),
    ("train", {"clip_norm": 10.0}, "unknown key 'clip_norm' in section 'train'"),
    ("anchors", {"positive_iou": 0.6}, "unknown key 'positive_iou' in section 'anchors'"),
    ("anchors", {"negative_iou": 0.45}, "unknown key 'negative_iou' in section 'anchors'"),
], ids=["network_section", "max_points_per_voxel", "clip_norm_null", "clip_norm",
        "positive_iou", "negative_iou"])
def test_config_with_a_removed_setting_exits_4_naming_it(tmp_path, capsys, section, old, message):
    tree = to_dict(mini_run_config())
    tree[section] = {**tree.get(section, {}), **old}
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(tree, sort_keys=False))
    assert cli.main(["train-cfg", "--config", str(path)]) == 4
    assert f"error: config {path}: {message}\n" in capsys.readouterr().err


def test_non_finite_point_exits_4_naming_the_file(tmp_path, capsys):
    make_dataset(str(tmp_path / "scenes"), 1, 0, SceneRecipe(n_cars=1, base_points=40))
    points = tmp_path / "scenes" / "scene_0000" / "points.bin"
    raw = np.frombuffer(points.read_bytes(), dtype="<f4").copy()
    raw[1] = np.nan
    points.write_bytes(raw.tobytes())
    cfg = replace(mini_run_config(), data=DataPaths(scenes=str(tmp_path / "scenes"),
                                                    conceptual=str(tmp_path / "conceptual"),
                                                    out=str(tmp_path / "runs")))
    path = tmp_path / "run.yaml"
    path.write_text(dumps_config(cfg))
    assert cli.main(["build-conceptual", "--config", str(path)]) == 4
    assert f"error: {points}: point coordinates must be finite\n" in capsys.readouterr().err


def test_unreadable_scene_file_exits_3_naming_it(tmp_path, capsys):
    make_dataset(str(tmp_path / "scenes"), 1, 0, SceneRecipe(n_cars=1, base_points=40))
    boxes = tmp_path / "scenes" / "scene_0000" / "boxes.txt"
    boxes.unlink()
    boxes.mkdir()
    cfg = replace(mini_run_config(), data=DataPaths(scenes=str(tmp_path / "scenes"),
                                                    conceptual=str(tmp_path / "conceptual"),
                                                    out=str(tmp_path / "runs")))
    path = tmp_path / "run.yaml"
    path.write_text(dumps_config(cfg))
    assert cli.main(["build-conceptual", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(boxes) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["make-data", "--out", "{file}", "--scenes", "1"],
    ["build-conceptual", "--config", "{cfg}"],
    ["render-bev", "--config", "{cfg}", "--out", "{file}/runs"],
], ids=["make_data_out", "data_conceptual", "out_below_a_file"])
def test_output_path_blocked_by_a_file_exits_4(tmp_path, capsys, argv):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    make_dataset(str(tmp_path / "scenes"), 1, 0, SceneRecipe(n_cars=1, base_points=40))
    cfg = replace(mini_run_config(), data=DataPaths(scenes=str(tmp_path / "scenes"),
                                                    conceptual=str(blocker), out=str(blocker)))
    (tmp_path / "run.yaml").write_text(dumps_config(cfg))
    argv = [a.format(file=blocker, cfg=tmp_path / "run.yaml") for a in argv]
    assert cli.main(argv) == 4
    assert f"error: cannot make directory {blocker}" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("out", "null"), ("scenes", "5"), ("conceptual", '""')],
                         ids=["null", "number", "empty"])
def test_data_path_that_is_not_a_path_exits_4_naming_it(tmp_path, capsys, field, value):
    path = tmp_path / "run.yaml"
    path.write_text(f"data:\n  {field}: {value}\n")
    assert cli.main(["render-bev", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert f": data.{field} must be a non-empty path" in err
    assert "Traceback" not in err


def test_dump_defaults_roundtrip(capsys):
    assert cli.main(["--dump-defaults"]) == 0
    text = capsys.readouterr().out
    assert loads_config(text) == default_run_config()


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_bad_choice_exits_2(pipeline):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--config", pipeline["cfg_path"],
                  "--dataset", "bogus"])
    assert exc.value.code == 2


def test_thread_env_validation(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_RAW_THREADS", "abc")
    assert cli.main(["--dump-defaults"]) == 4
    assert "VOXDET_THREADS" in capsys.readouterr().err
    monkeypatch.setattr(cli, "_RAW_THREADS", "0")
    assert cli.main(["--dump-defaults"]) == 4
    capsys.readouterr()
    monkeypatch.setattr(cli, "_RAW_THREADS", "8")
    assert cli.main(["--dump-defaults"]) == 0
    capsys.readouterr()


def test_thread_env_propagates_to_blas_pools(monkeypatch):
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    for var in pools:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("VOXDET_THREADS", "3")
    assert cli._apply_thread_env() == "3"
    for var in pools:
        assert os.environ[var] == "3"
    # explicit pool settings win over the convenience variable
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    cli._apply_thread_env()
    assert os.environ["OMP_NUM_THREADS"] == "5"


def _child_env(*paths) -> dict:
    """The environment of a child interpreter that must import this voxdet."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pythonpath = [*paths, src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))


def test_thread_env_rejected_in_subprocess():
    env = dict(_child_env(), VOXDET_THREADS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "voxdet.cli", "--dump-defaults"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 4
    assert "VOXDET_THREADS" in proc.stderr


# Calls each function that has a post hook once with spans on: the hooks
# read attributes of the arguments and results (a rulebook's num_pairs, say),
# which only a call exercises. One taped mini-grid live forward and its
# backward run the traced trunk (voxelize, sparse_conv_forward, to_dense)
# through the wrappers as a benchmark round does.
_TRACED_CALLS = """
import os, tempfile
import numpy as np
import tracing
from voxdet import detection_head, engine, network, sparse_conv
from voxdet.geometry import Box3D, PointCloud

tracer = tracing.Tracer()
tracing.instrument(tracer)
tracer.spans_on = True
row = [4.0, 0.0, -1.0, 3.9, 1.6, 1.56, 0.0]
sparse_conv.build_rulebook(np.zeros((1, 3)), (2, 2, 2), 1)
detection_head.assign_targets(np.array([row]), [Box3D(*row)])
detection_head.nms_bev(np.array([row]), [1.0])
with tempfile.TemporaryDirectory() as tmp:
    engine.save_checkpoint(os.path.join(tmp, "w.ckpt"), {"w": np.ones(2)})
net = network.NetworkConfig()
params = network.init_params(net)
cloud = PointCloud.from_xyz(np.random.default_rng(0).uniform((0, -16, -2), (32, 16, 2), (200, 3)))
with engine.Tape() as tape:
    out = network.pfe_forward(cloud, params, net)
    tape.backward(engine.tsum(out.cls_map))
metrics = tracing.layer_metrics(tracer, 1, 1.0)
for name in ("sparse_conv.build_rulebook.pairs", "detection_head.assign_targets.pairs",
             "detection_head.nms_bev.candidates", "engine.checkpoint.bytes",
             "engine.tape.records", "network.pfe_forward.calls", "voxelizer.voxelize.s",
             "sparse_conv.sparse_conv_forward.bwd_s", "sparse_conv.to_dense.s"):
    assert metrics[name]["value"] > 0, name
assert tracer.calls[tracer.intern("sparse_conv.to_dense.bwd")] == 1
"""


def test_benchmark_hooks_find_every_traced_name():
    # perfbench wraps voxdet functions by module and name; a rename or
    # deletion in src must fail here rather than in a traced benchmark run
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.instrument(tracing.Tracer())"],
        capture_output=True, text=True, env=_child_env(perfbench))
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-c", _TRACED_CALLS],
                          capture_output=True, text=True, env=_child_env(perfbench))
    assert proc.returncode == 0, proc.stderr


def test_gradcheck_command(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all ops within" in out
    assert out.count("op ") == 7


def test_selftest_command(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    assert out.count("suite ") == 5
    assert " FAIL " not in out


def test_sparse_oracle_helper_tight():
    assert verify.run_sparse_oracle(n_cases=10, seed=3) < 1e-12


def test_codec_roundtrip_helper_tight():
    assert verify.run_codec_roundtrip(300) < 1e-9


def test_mc_iou_estimator():
    a = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
    assert verify.mc_iou_bev(a, a, 50_000, seed=0) == 1.0
    b = Box3D(10.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
    assert verify.mc_iou_bev(a, b, 50_000, seed=0) == 0.0
    c = Box3D(1.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
    est = verify.mc_iou_bev(a, c, 400_000, seed=0)
    assert est == pytest.approx(1.0 / 3.0, abs=2e-2)
