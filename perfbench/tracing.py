"""Per-layer tracing of voxdet, applied from outside the package.

`instrument()` replaces selected public functions of voxdet with timing
wrappers. A function imported by name into another module (for example
`build_rulebook` inside `voxdet.network`) is replaced at every binding, so
callers pick up the wrapper whichever way they reach the function. Each op
that leaves a record on the active `Tape` also gets its backward closure
wrapped, which gives backward time per op.

Spans (name, start, end, parent) are kept in flat arrays while the run
lasts and written out once at the end. Self time of a span is its length
minus the time its direct children cover.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

ROOT = "round"  # one span per timed round; its self time is unattributed glue


class Tracer:
    """Spans, counts and memory peaks of one run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._open = defaultdict(int)  # name id -> open spans of that name
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans_on = False
        self.memory_on = False
        self.peaks = {"forward": 0.0, "backward": 0.0}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.span_start))
        self._child.append(0.0)
        self._open[nid] += 1
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)

    def close(self) -> None:
        end = time.perf_counter()
        idx = self._stack.pop()
        child = self._child.pop()
        self.span_end[idx] = end
        nid = self.span_name[idx]
        dur = end - self.span_start[idx]
        self._open[nid] -= 1
        self.calls[nid] += 1
        self.self_time[nid] += dur - child
        if not self._open[nid]:
            self.total[nid] += dur
        if self._child:
            self._child[-1] += dur

    def count(self, name: str, value) -> None:
        self.counts[name] += float(value)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        if not self.spans_on:
            yield
            return
        self.open(self.intern(name))
        try:
            yield
        finally:
            self.close()

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    # --- memory round: tracemalloc peaks per forward call and per backward

    def peak_window(self, kind: str, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            self.peaks[kind] = max(self.peaks[kind], peak)


def _wrap(tracer: Tracer, fn, name: str, post=None, memory: str | None = None,
          tape_ops: bool = False):
    nid = tracer.intern(name)
    bwd_id = tracer.intern(name + ".bwd") if tape_ops else None
    from voxdet.engine import active_tape

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if memory is not None and tracer.memory_on:
            return tracer.peak_window(memory, fn, *args, **kwargs)
        if not tracer.spans_on:
            return fn(*args, **kwargs)
        tape = active_tape() if tape_ops else None
        first = len(tape.records) if tape is not None else 0
        tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if tape is not None:
            for rec in tape.records[first:]:
                if not getattr(rec.backward, "_traced", False):
                    rec.backward = _timed_backward(tracer, rec.backward, bwd_id)
        if post is not None:
            post(tracer, args, out)
        return out

    return wrapper


def _timed_backward(tracer: Tracer, backward, nid: int):
    def run(g):
        if not tracer.spans_on:
            return backward(g)
        tracer.open(nid)
        try:
            return backward(g)
        finally:
            tracer.close()

    run._traced = True
    return run


# (module, attribute, span name, post hook); post hooks add counts and get
# the call's positional arguments and its result
_FUNCTIONS = [
    ("voxdet.voxelizer", "voxelize", "voxelizer.voxelize", None),
    ("voxdet.sparse_conv", "build_rulebook", "sparse_conv.build_rulebook",
     lambda t, a, out: t.count("sparse_conv.build_rulebook.pairs", out.num_pairs)),
    ("voxdet.sparse_conv", "sparse_conv_forward", "sparse_conv.sparse_conv_forward", None),
    ("voxdet.sparse_conv", "to_dense", "sparse_conv.to_dense", None),
    ("voxdet.network", "pfe_forward", "network.pfe_forward", None),
    ("voxdet.network", "cfg_forward", "network.cfg_forward", None),
    ("voxdet.detection_head", "assign_targets", "detection_head.assign_targets",
     lambda t, a, out: t.count("detection_head.assign_targets.pairs", len(a[0]) * len(a[1]))),
    ("voxdet.detection_head", "nms_bev", "detection_head.nms_bev",
     lambda t, a, out: t.count("detection_head.nms_bev.candidates", len(a[1]))),
    ("voxdet.detection_head", "decode_box", "detection_head.decode_box", None),
    ("voxdet.detection_head", "focal_loss", "detection_head.losses", None),
    ("voxdet.detection_head", "smooth_l1_loss", "detection_head.losses", None),
    ("voxdet.geometry", "rotated_iou_bev", "geometry.rotated_iou_bev", None),
    ("voxdet.geometry", "avg_closest_point_distance", "geometry.avg_closest_point_distance", None),
    ("voxdet.geometry", "points_in_box", "geometry.points_in_box", None),
    ("voxdet.conceptual", "build_instance_bank", "conceptual.build_instance_bank", None),
    ("voxdet.conceptual", "compose_conceptual_scene", "conceptual.compose_conceptual_scene", None),
    ("voxdet.conceptual", "match_candidate", "conceptual.match_candidate", None),
    ("voxdet.adaptation", "foreground_mask", "adaptation.foreground_mask", None),
    ("voxdet.adaptation", "association_loss", "adaptation.association_loss", None),
    ("voxdet.trainer", "clip_gradients", "trainer.clip_gradients", None),
    ("voxdet.trainer", "apply_global_transform", "trainer.augment", None),
    ("voxdet.trainer", "augment_pair", "trainer.augment", None),
    ("voxdet.trainer", "train_cfg", "trainer.train_cfg", None),
    ("voxdet.trainer", "train_associate", "trainer.train_associate", None),
    ("voxdet.evaluation", "infer_detections", "evaluation.infer_detections", None),
    ("voxdet.evaluation", "match_detections", "evaluation.match_detections", None),
    ("voxdet.evaluation", "evaluate_detections", "evaluation.evaluate_detections", None),
    ("voxdet.kitti_io", "read_scene_dir", "kitti_io.read_scene_dir", None),
    ("voxdet.kitti_io", "write_scene_dir", "kitti_io.write_scene_dir", None),
    ("voxdet.render", "render_scene", "render.render_scene", None),
    ("voxdet.render", "write_ppm", "render.write_ppm", None),
    ("voxdet.engine", "save_checkpoint", "engine.checkpoint.save",
     lambda t, a, out: t.count("engine.checkpoint.bytes", os.path.getsize(a[0]))),
]

# engine ops that may leave a record on the tape
_TAPE_OPS = ["add", "neg", "mul", "matmul", "linear", "relu", "sigmoid", "softplus",
             "exp", "log", "pow_const", "sqrt", "reshape", "transpose", "tsum",
             "tmean", "smooth_l1", "conv2d", "deform_conv2d", "bilinear_sample"]
# functions outside the engine that record a tape op of their own
_TAPE_RECORDERS = {"sparse_conv_forward", "to_dense"}
_FORWARDS = {"pfe_forward", "cfg_forward"}


def _rebind(original, wrapper) -> None:
    """Point every voxdet module-level binding of `original` at `wrapper`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "voxdet" or mod_name.startswith("voxdet."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function for the rest of the process."""
    import importlib

    import voxdet.cli  # noqa: F401  (loads every module that holds a binding)
    from voxdet import engine, trainer

    for mod_name, attr, name, post in _FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        _rebind(original, _wrap(tracer, original, name, post,
                                memory="forward" if attr in _FORWARDS else None,
                                tape_ops=attr in _TAPE_RECORDERS))
    for op in _TAPE_OPS:
        original = getattr(engine, op)
        _rebind(original, _wrap(tracer, original, f"engine.{op}", tape_ops=True))
    engine.Tape.backward = _wrap(
        tracer, engine.Tape.backward, "engine.tape.backward", memory="backward",
        post=lambda t, a, out: t.count("engine.tape.records", len(a[0].records)))
    trainer.Adam.step = _wrap(tracer, trainer.Adam.step, "trainer.adam_step")


# --- per-layer metrics --------------------------------------------------------

MODULES = ["engine", "sparse_conv", "voxelizer", "network", "detection_head", "geometry",
           "conceptual", "adaptation", "trainer", "evaluation", "kitti_io", "render", "cli"]

# metric name -> (kind, source). Kinds: "total" seconds and "calls" of a span
# name, a "count" added by a post hook, a tracemalloc "peak", the "self" time
# of a module's spans, and the "spans" and "round" figures of the trace itself.
LAYER_METRICS = {
    "engine.deform_conv2d.fwd_s": ("total", "engine.deform_conv2d"),
    "engine.deform_conv2d.bwd_s": ("total", "engine.deform_conv2d.bwd"),
    "engine.conv2d.fwd_s": ("total", "engine.conv2d"),
    "engine.conv2d.bwd_s": ("total", "engine.conv2d.bwd"),
    "engine.tape.backward_s": ("total", "engine.tape.backward"),
    "engine.tape.records": ("count", "engine.tape.records"),
    "engine.forward_peak_mb": ("peak", "forward"),
    "engine.backward_peak_mb": ("peak", "backward"),
    "engine.checkpoint.save_s": ("total", "engine.checkpoint.save"),
    "engine.checkpoint.bytes": ("count", "engine.checkpoint.bytes"),
    "sparse_conv.build_rulebook.calls": ("calls", "sparse_conv.build_rulebook"),
    "sparse_conv.build_rulebook.s": ("total", "sparse_conv.build_rulebook"),
    "sparse_conv.build_rulebook.pairs": ("count", "sparse_conv.build_rulebook.pairs"),
    "sparse_conv.sparse_conv_forward.fwd_s": ("total", "sparse_conv.sparse_conv_forward"),
    "sparse_conv.sparse_conv_forward.bwd_s": ("total", "sparse_conv.sparse_conv_forward.bwd"),
    "sparse_conv.to_dense.s": ("total", "sparse_conv.to_dense"),
    "voxelizer.voxelize.s": ("total", "voxelizer.voxelize"),
    "network.pfe_forward.calls": ("calls", "network.pfe_forward"),
    "network.pfe_forward.s": ("total", "network.pfe_forward"),
    "network.cfg_forward.calls": ("calls", "network.cfg_forward"),
    "network.cfg_forward.s": ("total", "network.cfg_forward"),
    "detection_head.assign_targets.s": ("total", "detection_head.assign_targets"),
    "detection_head.assign_targets.pairs": ("count", "detection_head.assign_targets.pairs"),
    "detection_head.nms_bev.s": ("total", "detection_head.nms_bev"),
    "detection_head.nms_bev.candidates": ("count", "detection_head.nms_bev.candidates"),
    "detection_head.decode_box.calls": ("calls", "detection_head.decode_box"),
    "detection_head.decode_box.s": ("total", "detection_head.decode_box"),
    "detection_head.losses.s": ("total", "detection_head.losses"),
    "geometry.rotated_iou_bev.calls": ("calls", "geometry.rotated_iou_bev"),
    "geometry.rotated_iou_bev.s": ("total", "geometry.rotated_iou_bev"),
    "geometry.avg_closest_point_distance.calls": ("calls", "geometry.avg_closest_point_distance"),
    "geometry.avg_closest_point_distance.s": ("total", "geometry.avg_closest_point_distance"),
    "geometry.points_in_box.calls": ("calls", "geometry.points_in_box"),
    "geometry.points_in_box.s": ("total", "geometry.points_in_box"),
    "conceptual.build_instance_bank.s": ("total", "conceptual.build_instance_bank"),
    "conceptual.compose_conceptual_scene.s": ("total", "conceptual.compose_conceptual_scene"),
    "conceptual.match_candidate.calls": ("calls", "conceptual.match_candidate"),
    "adaptation.foreground_mask.s": ("total", "adaptation.foreground_mask"),
    "adaptation.association_loss.s": ("total", "adaptation.association_loss"),
    "trainer.adam_step.s": ("total", "trainer.adam_step"),
    "trainer.clip_gradients.s": ("total", "trainer.clip_gradients"),
    "trainer.augment.s": ("total", "trainer.augment"),
    "trainer.train_cfg.s": ("total", "trainer.train_cfg"),
    "trainer.train_associate.s": ("total", "trainer.train_associate"),
    "evaluation.infer_detections.s": ("total", "evaluation.infer_detections"),
    "evaluation.match_detections.s": ("total", "evaluation.match_detections"),
    "evaluation.evaluate_detections.s": ("total", "evaluation.evaluate_detections"),
    "kitti_io.read_scene_dir.s": ("total", "kitti_io.read_scene_dir"),
    "kitti_io.write_scene_dir.s": ("total", "kitti_io.write_scene_dir"),
    "render.render_scene.s": ("total", "render.render_scene"),
    "render.write_ppm.s": ("total", "render.write_ppm"),
    "cli.build_conceptual.s": ("total", "cli.build-conceptual"),
    "cli.train_cfg.s": ("total", "cli.train-cfg"),
    "cli.train.s": ("total", "cli.train"),
    "cli.eval.s": ("total", "cli.eval"),
    "cli.render_bev.s": ("total", "cli.render-bev"),
}
LAYER_METRICS.update({f"{m}.self_s": ("self", m) for m in MODULES})
LAYER_METRICS["other.self_s"] = ("self", ROOT)
LAYER_METRICS["trace.spans"] = ("spans", None)
LAYER_METRICS["trace.round_s"] = ("round", None)

def unit_of(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def layer_metrics(tracer: Tracer, rounds: int, round_s: float) -> dict:
    """Every per-layer metric, per timed round (counts repeat exactly when
    rounds repeat the same work)."""
    by_name = {n: i for i, n in enumerate(tracer.names)}
    out = {}
    for metric, (kind, src) in LAYER_METRICS.items():
        if kind == "total":
            value = tracer.total.get(by_name.get(src), 0.0) / rounds
        elif kind == "calls":
            value = tracer.calls.get(by_name.get(src), 0) / rounds
        elif kind == "count":
            value = tracer.counts.get(src, 0.0) / rounds
        elif kind == "peak":
            value = tracer.peaks[src]
        elif kind == "self":
            if src == ROOT:
                ids = [by_name[ROOT]] if ROOT in by_name else []
            else:
                ids = [i for n, i in by_name.items() if n.startswith(src + ".")]
            value = sum(tracer.self_time.get(i, 0.0) for i in ids) / rounds
        elif kind == "spans":
            value = len(tracer.span_start) / rounds
        else:
            value = round_s
        out[metric] = {"value": value, "unit": unit_of(metric)}
    return out
