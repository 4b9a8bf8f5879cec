"""Command line front end: data prep, training phases, eval, rendering.

`gradcheck` and `selftest` print the results of the suites in
`voxdet.verify`: finite-difference errors per differentiable op, and one
line per oracle-equivalence suite.

Exit codes: 0 ok, 2 usage, 3 missing or unreadable file, 4 failed validation.
"""
from __future__ import annotations

import os


def _apply_thread_env() -> str | None:
    """Propagate VOXDET_THREADS to the BLAS pools before numpy loads."""
    raw = os.environ.get("VOXDET_THREADS")
    if raw is not None and raw.isdigit() and int(raw) >= 1:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, raw)
    return raw


_RAW_THREADS = _apply_thread_env()

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import adaptation, conceptual, engine, verify
from .config import RunConfig, default_run_config, dumps_config, load_config
from .engine import Tensor
from .evaluation import decode_detections, evaluate, format_report, run_branch
from .geometry import Box3D, PointCloud
from .kitti_io import list_scene_dirs, read_scene_dir, write_scene_dir
from .network import SPATIAL_DOWNSAMPLE
from .render import render_scene, write_ppm
from .synthetic import SceneRecipe, make_dataset
from .trainer import ScenePair, epoch_checkpoints, format_loss_log, train_associate, train_cfg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_VALIDATION = 4


# ---------------------------------------------------------------------------
# dataset plumbing

def _load_dataset(root) -> list[tuple[str, PointCloud, list[Box3D]]]:
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset directory not found: {root}")
    dirs = list_scene_dirs(root)
    if not dirs:
        raise ValueError(f"no scenes under {root}")
    out = []
    for d in dirs:
        cloud, boxes = read_scene_dir(d)
        out.append((os.path.basename(d), cloud, boxes))
    return out


def _load_checkpoint(path, what: str = "checkpoint") -> dict[str, np.ndarray]:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return engine.load_checkpoint(path)


def _outputs(root, *names: str) -> list[str]:
    """Make the directory `root` and check each file a subcommand will write
    there (engine.check_writable), before the work that fills them starts."""
    engine.make_dir(root)
    paths = [os.path.join(root, name) for name in names]
    for path in paths:
        engine.check_writable(path)
    return paths


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, data=replace(cfg.data, out=args.out))
    return cfg


# ---------------------------------------------------------------------------
# subcommands

def _cmd_make_data(args) -> int:
    recipe = SceneRecipe(n_cars=args.cars, base_points=args.base_points,
                         occlusion=args.occlusion)
    paths = make_dataset(args.out, args.scenes, args.seed, recipe)
    print(f"wrote {len(paths)} scenes to {args.out}")
    return EXIT_OK


def _cmd_build_conceptual(args) -> int:
    cfg = _resolve_config(args)
    scenes = _load_dataset(cfg.data.scenes)
    bank = conceptual.build_instance_bank(
        [(c, b) for _, c, b in scenes], m_bins=cfg.conceptual.m_bins,
        k_percent=cfg.conceptual.k_percent, min_points=cfg.conceptual.min_points)
    (report_path,) = _outputs(cfg.data.conceptual, "report.txt")
    lines = ["scene objects fallbacks mean_distance"]
    for name, cloud, boxes in scenes:
        composed, matches = conceptual.compose_conceptual_scene(cloud, boxes, bank)
        write_scene_dir(os.path.join(cfg.data.conceptual, name), composed, boxes)
        finite = [m.distance for m in matches if math.isfinite(m.distance)]
        mean_d = float(np.mean(finite)) if finite else 0.0
        fallbacks = sum(1 for m in matches if not math.isfinite(m.distance))
        lines.append(f"{name} {len(matches)} {fallbacks} {mean_d!r}")
    report = "\n".join(lines) + "\n"
    with engine.atomic_write(report_path) as fh:
        fh.write(report)
    print(report, end="")
    return EXIT_OK


def _cmd_train_cfg(args) -> int:
    cfg = _resolve_config(args)
    scenes = [(c, b) for _, c, b in _load_dataset(cfg.data.conceptual)]
    ckpt_path, log_path, *_ = _outputs(cfg.data.out, "cfg.ckpt", "cfg_log.txt",
                                       *epoch_checkpoints("cfg", cfg.train).values())
    params, log = train_cfg(scenes, cfg.network, cfg.train, checkpoint_dir=cfg.data.out,
                            anchors=cfg.anchors)
    engine.save_checkpoint(ckpt_path, params)
    with engine.atomic_write(log_path) as fh:
        fh.write(format_loss_log(log))
    last = log[-1]
    print(f"trained reference branch: {len(log)} epochs, "
          f"final total {float(last.total)!r}")
    return EXIT_OK


def _load_pairs(cfg: RunConfig) -> list[ScenePair]:
    real = _load_dataset(cfg.data.scenes)
    composed = {name: (c, b) for name, c, b in _load_dataset(cfg.data.conceptual)}
    pairs = []
    for name, cloud, boxes in real:
        if name not in composed:
            raise ValueError(f"no composed twin for scene {name}; "
                             "run build-conceptual first")
        pairs.append(ScenePair(cloud, composed[name][0], tuple(boxes)))
    return pairs


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ckpt = args.cfg_checkpoint or os.path.join(cfg.data.out, "cfg.ckpt")
    cfg_params = {k: Tensor(v) for k, v in _load_checkpoint(ckpt, "reference checkpoint").items()}
    pairs = _load_pairs(cfg)
    ckpt_path, log_path, *_ = _outputs(cfg.data.out, "pfe.ckpt", "train_log.txt",
                                       *epoch_checkpoints("pfe", cfg.train).values())
    params, log = train_associate(pairs, cfg_params, cfg.network, cfg.train,
                                  checkpoint_dir=cfg.data.out, anchors=cfg.anchors)
    engine.save_checkpoint(ckpt_path, params)
    with engine.atomic_write(log_path) as fh:
        fh.write(format_loss_log(log))
    last = log[-1]
    print(f"trained live branch: {len(log)} epochs, "
          f"final total {float(last.total)!r}, final assoc {float(last.assoc)!r}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    params = _load_checkpoint(args.checkpoint or os.path.join(cfg.data.out, "pfe.ckpt"))
    root = cfg.data.conceptual if args.dataset == "conceptual" else cfg.data.scenes
    scenes = [(c, b) for _, c, b in _load_dataset(root)]
    (report_path,) = _outputs(cfg.data.out, f"eval_{args.dataset}.txt")
    report = evaluate(params, scenes, cfg.network, cfg.eval, cfg.train.codec, cfg.anchors)
    text = format_report(report)
    with engine.atomic_write(report_path) as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def _cmd_render_bev(args) -> int:
    cfg = _resolve_config(args)
    root = cfg.data.conceptual if args.dataset == "conceptual" else cfg.data.scenes
    scenes = _load_dataset(root)
    if args.scene is not None:
        if not (0 <= args.scene < len(scenes)):
            raise ValueError(f"scene index {args.scene} out of range "
                             f"(dataset has {len(scenes)})")
        scenes = [scenes[args.scene]]
    params = _load_checkpoint(args.checkpoint) if args.checkpoint else None
    anchors = cfg.anchors.generate(cfg.network.bev_shape, cfg.grid)
    paths = _outputs(cfg.data.out, *(f"bev_{name}.ppm" for name, _, _ in scenes))
    for (_, cloud, boxes), path in zip(scenes, paths):
        preds, weights = [], None
        if params is not None:
            out = run_branch(params, cloud, cfg.network)
            preds, _ = decode_detections(out, anchors, cfg.eval.score_threshold,
                                         cfg.eval.nms_iou, cfg.train.codec)
            if out.offsets is not None:
                fg = adaptation.foreground_mask(boxes, cloud, cfg.grid,
                                                SPATIAL_DOWNSAMPLE)
                weights = adaptation.reweighting_map(
                    adaptation.offset_length_map(out.offsets), fg).values
        img = render_scene(cloud, boxes, preds, cfg.grid, args.scale, weights)
        write_ppm(path, img)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    errs = verify.run_gradient_suite(args.seed)
    failed = []
    for name, err in errs.items():
        print(f"op {name} max_rel_err {err!r}")
        if err >= verify.GRAD_TOL:
            failed.append(name)
    if failed:
        print(f"error: gradient check failed for {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"all ops within {verify.GRAD_TOL!r}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = verify.run_selftest(args.seed)
    bad = False
    for name, ok, detail in results:
        print(f"suite {name} {'ok' if ok else 'FAIL'} {detail}")
        bad = bad or not ok
    if bad:
        print("error: self test failed", file=sys.stderr)
        return EXIT_VALIDATION
    print("all suites passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxdet", description="desk-scale LiDAR 3D object detector")
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print the default config as YAML and exit")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config YAML")
    common.add_argument("--seed", type=int, default=None,
                        help="override train.seed")
    common.add_argument("--out", default=None, help="override the output dir")

    p = sub.add_parser("make-data", help="generate a synthetic mini-dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cars", type=int, default=4)
    p.add_argument("--base-points", type=int, default=320)
    p.add_argument("--occlusion", type=float, default=1.0)
    p.set_defaults(fn=_cmd_make_data)

    p = sub.add_parser("build-conceptual", parents=[common],
                       help="compose dense twin scenes from the dataset")
    p.set_defaults(fn=_cmd_build_conceptual)

    p = sub.add_parser("train-cfg", parents=[common],
                       help="phase 1: fit the reference branch on composed scenes")
    p.set_defaults(fn=_cmd_train_cfg)

    p = sub.add_parser("train", parents=[common],
                       help="phase 2: fit the live branch against the frozen reference")
    p.add_argument("--cfg-checkpoint", default=None)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", parents=[common], help="report average precision")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", choices=("real", "conceptual"), default="real")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("render-bev", parents=[common],
                       help="emit top-down scene images")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--dataset", choices=("real", "conceptual"), default="real")
    p.add_argument("--scene", type=int, default=None)
    p.add_argument("--scale", type=_positive_int, default=4)
    p.set_defaults(fn=_cmd_render_bev)

    p = sub.add_parser("gradcheck", help="finite-difference check every op")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("selftest", help="run the oracle-equivalence suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    if _RAW_THREADS is not None and not (_RAW_THREADS.isdigit() and int(_RAW_THREADS) >= 1):
        print(f"error: VOXDET_THREADS must be a positive integer, "
              f"got {_RAW_THREADS!r}", file=sys.stderr)
        return EXIT_VALIDATION
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        print(dumps_config(default_run_config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
