"""Run the mini quickstart on one checkout and keep every output in one tree.

    python tools/quickstart_tree.py CHECKOUT OUT

Runs `voxdet` from CHECKOUT/src, at VOXDET_THREADS=1, with OUT as the
working directory: make-data (8 scenes, seed 0), build-conceptual,
train-cfg, train, eval on both datasets and render-bev, on the checkout's
configs/mini.yaml with 2 epochs and a checkpoint after each; then
gradcheck, selftest and --dump-defaults. Each command's stdout goes to
OUT/stdout/NN_<step>.txt; the scenes, checkpoints, logs, reports and
images land under OUT/data and OUT/runs. Every path a command prints is
relative to OUT, and the config lives outside it, so the trees of two
checkouts compare with `diff -r`: at equal behaviour they differ only
where the checkouts' default configs do.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import yaml

STEPS = [
    ("make_data", ["make-data", "--out", "data/scenes", "--scenes", "8", "--seed", "0"]),
    ("build_conceptual", ["build-conceptual", "--config", "{cfg}"]),
    ("train_cfg", ["train-cfg", "--config", "{cfg}"]),
    ("train", ["train", "--config", "{cfg}"]),
    ("eval_real", ["eval", "--config", "{cfg}"]),
    ("eval_conceptual", ["eval", "--config", "{cfg}", "--dataset", "conceptual",
                         "--checkpoint", "runs/cfg.ckpt"]),
    ("render_bev", ["render-bev", "--config", "{cfg}", "--checkpoint", "runs/pfe.ckpt"]),
    ("gradcheck", ["gradcheck"]),
    ("selftest", ["selftest"]),
    ("dump_defaults", ["--dump-defaults"]),
]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, out = (os.path.abspath(a) for a in argv)
    if os.path.exists(out) and os.listdir(out):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(out, "stdout"), exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), "VOXDET_THREADS": "1"}
    with open(os.path.join(checkout, "configs", "mini.yaml")) as fh:
        tree = yaml.safe_load(fh)
    tree["train"].update(epochs=2, checkpoint_every=1)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.yaml")
        with open(cfg, "w") as fh:
            yaml.safe_dump(tree, fh, sort_keys=False)
        for i, (name, args) in enumerate(STEPS):
            cmd = [sys.executable, "-m", "voxdet.cli", *(a.format(cfg=cfg) for a in args)]
            run = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
            with open(os.path.join(out, "stdout", f"{i:02d}_{name}.txt"), "w") as fh:
                fh.write(run.stdout)
            if run.returncode:
                print(f"error: {name} exited {run.returncode}\n{run.stderr}", file=sys.stderr)
                return 1
            print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
