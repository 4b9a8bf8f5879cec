"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps one float64 numpy array. While a Tape is active, every op
that touches a tracked tensor appends a record holding a backward closure;
Tape.backward walks the records in reverse and accumulates gradients into
the leaf tensors' .grad buffers. With no tape active the ops are plain
eager numpy, which is what inference uses.

A tape runs backward once. As the walk reaches a record it takes the
record's closure, inputs and output, and lets go of them once the gradients
are routed, so an activation nothing else holds is freed as soon as the
walk has passed every op that used it. The convolutions never hold a whole
(C*kH*kW, H*W) patch or sample matrix unless it fits in `_PIECE_BYTES`: the
forward builds it in tiles of whole output rows and the backward in blocks
of input channels. `conv2d` saves only its input: the backward pads it
again and each block rebuilds its own patches; `deform_conv2d` saves only
its sampling plan, and each backward block samples its channels again
through one corner gather that also serves the offset gradient. A layer
that fits runs as one piece; otherwise the pieces are large powers of two,
for which OpenBLAS's blocked products keep the whole-matrix bytes.

The ops are plain functions (a Tensor has no arithmetic operators):
elementwise arithmetic, linear layers, ReLU, sigmoid, softplus, reductions,
smooth L1, bilinear sampling, and the detector's two same-size 2D
convolutions, rigid and offset-guided, at stride 1 with odd kernels. 64-bit
floats throughout so finite-difference checks can run tight tolerances.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from typing import Callable, Sequence

import numpy as np


class Tensor:
    """A shaped float64 buffer, optionally accumulating a gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tracked = False

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs: Sequence[Tensor], output: Tensor,
                 backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.inputs = tuple(inputs)
        self.output = output
        self.backward = backward


_ACTIVE: "Tape | None" = None


def active_tape() -> "Tape | None":
    return _ACTIVE


class Tape:
    """Ordered record of the operations run inside its `with` block. One tape
    records at a time: entering a second raises RuntimeError."""

    def __init__(self):
        self.records: list[_Record] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already recording; one tape records at a time")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def backward(self, loss: Tensor, seed: np.ndarray | None = None) -> None:
        """Accumulate d(loss)/d(leaf) into every requires_grad leaf on this tape.

        Runs once per tape: as the walk reaches a record it takes out the
        record's closure (and with it every array its op saved), inputs and
        output, and drops them once the record's gradients are routed. The
        records stay on the tape, emptied.
        """
        if self._spent:
            raise RuntimeError("Tape.backward runs once per tape: the first call released "
                               "the arrays each op saved; record the forward on a new tape")
        self._spent = True
        if seed is None:
            seed = np.ones_like(loss.data)
        seed = np.asarray(seed, dtype=np.float64).reshape(loss.data.shape)
        if loss.requires_grad and not loss._tracked:
            loss.accumulate_grad(seed)
        # tracked intermediates' gradients wait here, keyed by id. Every input
        # and output was alive when the walk began, so their ids are distinct,
        # and a key whose tensor has since been freed matches no output left
        grads = {id(loss): seed}
        for rec in reversed(self.records):
            gout = grads.pop(id(rec.output), None)
            backward, inputs = rec.backward, rec.inputs
            rec.backward = rec.inputs = rec.output = None
            if gout is not None:
                _route(grads, inputs, backward(gout))


def _route(grads: dict, inputs: Sequence[Tensor], gins) -> None:
    """Pass one record's input gradients on: a tracked input's waits in
    `grads`, a leaf's goes into its .grad at once. The loop's names die at
    the return, so the walk keeps no input or gradient of a walked record."""
    for t, g in zip(inputs, gins):
        if g is None:
            continue
        if t._tracked:
            key = id(t)
            grads[key] = grads[key] + g if key in grads else g
        elif t.requires_grad:
            t.accumulate_grad(g)


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward) -> Tensor:
    """Create the output tensor and, if a tape is live and cares, record it."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t._tracked or t.requires_grad for t in inputs):
        out._tracked = True
        tape.records.append(_Record(inputs, out, backward))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record([a, b], out, backward)


def neg(a: Tensor) -> Tensor:
    return _record([a], -a.data, lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _record([a, b], out, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _record([a, b], out, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer: rows of x against weight (out_features, in_features)."""
    out = x.data @ weight.data.T + bias.data

    def backward(g):
        return g @ weight.data, g.T @ x.data, g.sum(axis=tuple(range(g.ndim - 1)))

    return _record([x, weight, bias], out, backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record([a], np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that cannot overflow: exp(-|x|) is computed once."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return _record([a], out, lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; its derivative is sigmoid(x)."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _record([a], out, lambda g: (g * _sigmoid(x),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record([a], out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _record([a], np.log(a.data), lambda g: (g / a.data,))


def pow_const(a: Tensor, p: float) -> Tensor:
    out = a.data ** p
    return _record([a], out, lambda g: (g * p * a.data ** (p - 1.0),))


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root with the gradient at 0 defined as 0.

    The zero convention keeps sqrt-of-sum-of-squares norms differentiable
    where both operands coincide; the true one-sided derivative diverges.
    """
    out = np.sqrt(a.data)
    pos = out > 0.0
    safe = np.where(pos, out, 1.0)
    return _record([a], out, lambda g: (g * np.where(pos, 0.5 / safe, 0.0),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    return _record([a], a.data.reshape(shape), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return _record([a], np.transpose(a.data, axes).copy(),
                   lambda g: (np.transpose(g, inverse).copy(),))


def tsum(a: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g_expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, a.data.shape).copy(),)

    return _record([a], out, backward)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    out = a.data.mean()
    return _record([a], out, lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def smooth_l1(a: Tensor) -> Tensor:
    """Elementwise smooth L1 with transition 1: quadratic inside |x| < 1, linear outside."""
    x = a.data
    absx = np.abs(x)
    out = np.where(absx < 1.0, 0.5 * x * x, absx - 0.5)

    def backward(g):
        return (g * np.where(absx < 1.0, x, np.sign(x)),)

    return _record([a], out, backward)


# ---------------------------------------------------------------------------
# convolution

# Bytes one piece of a (C*kH*kW, H*W) patch or sample matrix may
# take: a tile of whole output rows in a forward, a block of input channels
# in a backward.
_PIECE_BYTES = 1 << 24


def _pieces(count: int, unit_bytes: int) -> list[slice]:
    """Consecutive slices over `count` rows or channels of `unit_bytes` each:
    one slice when all fit in _PIECE_BYTES, else slices of the largest power
    of two that fits, or of 1."""
    if count * unit_bytes <= _PIECE_BYTES:
        step = count
    else:
        step = 1 << max(0, (_PIECE_BYTES // unit_bytes).bit_length() - 1)
    return [slice(a, min(a + step, count)) for a in range(0, count, step)]


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Patch matrix (C*kh*kw, H*W) from a (C, H + kh - 1, W + kw - 1) padded input."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 3, 4, 1, 2).reshape(xp.shape[0] * kh * kw, -1)


def _check_kernel(op: str, x: Tensor, weight: Tensor) -> None:
    """A same-size convolution needs matching channels and an odd kernel."""
    c_in, c_in2, (kh, kw) = x.data.shape[0], weight.data.shape[1], weight.data.shape[2:]
    if c_in != c_in2:
        raise ValueError(f"{op} channel mismatch: input {c_in}, weight {c_in2}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"{op} keeps the map's size, so its kernel must be odd, got {kh}x{kw}")


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """A (C, H, W) map with ph zero rows and pw zero columns on each side
    (np.pad gives the same bytes at several times the cost on small maps)."""
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * ph, w + 2 * pw))
    xp[:, ph:ph + h, pw:pw + w] = x
    return xp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Same-size cross-correlation of a (C_in, H, W) map with (C_out, C_in, kH, kW)
    filters: stride 1 and zero padding kH // 2, kW // 2, so the output is (C_out, H, W)."""
    _check_kernel("conv2d", x, weight)
    c_in, h, w = x.data.shape
    c_out, _, kh, kw = weight.data.shape
    ph, pw = kh // 2, kw // 2
    xp = _pad(x.data, ph, pw)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.empty((c_out, h * w))
    for rows in _pieces(h, c_in * kh * kw * w * 8):
        band = xp[:, rows.start:rows.stop - 1 + kh]
        out[:, rows.start * w:rows.stop * w] = w_mat @ _im2col(band, kh, kw)
    out += bias.data[:, None]
    out = out.reshape(c_out, h, w)

    def backward(g):
        # x is padded again, as the forward did; each block rebuilds its
        # patches from xp, forms its columns of d_w and drops them before
        # its d_patches, their equal in size, comes
        xp = _pad(x.data, ph, pw)
        g_mat = g.reshape(c_out, -1)
        d_w = np.empty_like(w_mat)
        d_xp = np.zeros_like(xp)
        for chans in _pieces(c_in, kh * kw * h * w * 8):
            cols = slice(chans.start * kh * kw, chans.stop * kh * kw)
            d_w[:, cols] = g_mat @ _im2col(xp[chans], kh, kw).T
            dp = (w_mat[:, cols].T @ g_mat).reshape(-1, kh, kw, h, w)
            d_blk = d_xp[chans]
            for ky in range(kh):
                for kx in range(kw):
                    d_blk[:, ky:ky + h, kx:kx + w] += dp[:, ky, kx]
            del dp  # before the next block's patches
        return d_xp[:, ph:ph + h, pw:pw + w], d_w.reshape(weight.data.shape), g_mat.sum(axis=1)

    return _record([x, weight, bias], out, backward)


def _bilinear_plan(h: int, w: int, ys: np.ndarray, xs: np.ndarray):
    """Bilinear sampling plan for M points (ys, xs) of an (H, W) grid.

    Returns `idx` and `wgt`, both (4, M), and the axis fractions
    (wy0, wy1, wx0, wx1). Row k of `idx` is the flat index y*W + x of each
    point's corner k, in the order 00, 01, 10, 11, and row k of `wgt` is its
    weight wy*wx. `idx` addresses a map flattened to (C, H*W + 1) whose last
    column is zero (`_zero_column`): a corner off the grid points there.
    """
    y0, x0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
    wy1, wx1 = ys - y0, xs - x0
    wy0, wx0 = 1.0 - wy1, 1.0 - wx1
    corners = [(yy, wy, xx, wx) for yy, wy in ((y0, wy0), (y0 + 1, wy1))
               for xx, wx in ((x0, wx0), (x0 + 1, wx1))]
    idx = np.stack([np.where((yy >= 0) & (yy < h) & (xx >= 0) & (xx < w), yy * w + xx, h * w)
                    for yy, _, xx, _ in corners])
    return idx, np.stack([wy * wx for _, wy, _, wx in corners]), (wy0, wy1, wx0, wx1)


def _zero_column(x: np.ndarray) -> np.ndarray:
    """(C, H, W) map flattened to (C, H*W + 1); the extra last column is zero."""
    return np.pad(x.reshape(x.shape[0], -1), ((0, 0), (0, 1)))


def _scatter(d_vals: np.ndarray, idx: np.ndarray, wgt: np.ndarray, shape) -> np.ndarray:
    """Adjoint of a plan's gather: (C, M) gradients summed onto a (C, H, W) map.

    Each channel's bincount adds in input order: corner 00 over all points,
    then 01, 10 and 11 (the order `tests/oracles.loop_deform_input_grad`
    pins). Off-grid corners land in the dropped bin H*W.
    """
    c, h, w = shape
    d_x = np.empty((c, h * w))
    for ch in range(c):
        d_x[ch] = np.bincount(idx.ravel(), (wgt * d_vals[ch]).ravel(), h * w + 1)[:h * w]
    return d_x.reshape(shape)


def _bilinear_read(corners: np.ndarray, wgt: np.ndarray, out: np.ndarray) -> None:
    """Fill `out` with the values read through a plan from one channel's
    (4, M) corner values: the bits of a sum that starts from 0 and adds
    corners 00, 01, 10 and 11 in order. Adding the 0 last instead of first
    changes only a -0.0 total, into the +0.0 that the sum from 0 gives."""
    np.multiply(corners[0], wgt[0], out=out)
    term = np.empty_like(out)
    for v, wk in zip(corners[1:], wgt[1:]):
        out += np.multiply(v, wk, out=term)
    out += 0.0


def _sample(xz: np.ndarray, idx: np.ndarray, wgt: np.ndarray) -> np.ndarray:
    """(C, M) values of every channel of a zero-column map read through a plan,
    one channel at a time so each gather reads a row that fits in cache."""
    out = np.empty((xz.shape[0], idx.shape[1]))
    for ch in range(len(out)):
        _bilinear_read(xz[ch][idx], wgt, out[ch])
    return out


def bilinear_sample(x: Tensor, xs: float, ys: float) -> Tensor:
    """Per-channel bilinear read of a (C, H, W) map at one continuous point.

    Zero padding outside the pixel grid; differentiable in the map values.
    """
    idx, wgt, _ = _bilinear_plan(*x.data.shape[1:], np.asarray([float(ys)]), np.asarray([float(xs)]))
    out = _sample(_zero_column(x.data), idx, wgt)[:, 0]
    return _record([x], out, lambda g: (_scatter(g[:, None], idx, wgt, x.data.shape),))


def deform_conv2d(x: Tensor, weight: Tensor, offsets: Tensor, bias: Tensor) -> Tensor:
    """Same-size convolution whose kernel taps sample at grid + learned offset.

    `offsets` is (2*kH*kW, H, W): channel 2n is the y shift and channel 2n+1
    the x shift of tap n, in pixels. Sampling is bilinear with zero padding,
    so zero offsets reproduce conv2d exactly.
    """
    _check_kernel("deform_conv2d", x, weight)
    c_in, h, w = x.data.shape
    c_out, _, kh, kw = weight.data.shape
    n = kh * kw
    if offsets.data.shape[0] != 2 * n:
        raise ValueError(f"expected {2 * n} offset channels, got {offsets.data.shape[0]}")
    if offsets.data.shape[1:] != (h, w):
        raise ValueError(f"offset spatial shape {offsets.data.shape[1:]} != output {(h, w)}")

    oy, ox = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    taps_y, taps_x = np.divmod(np.arange(n), kw)
    # (N, H, W) absolute sampling coordinates
    ys = (oy[None] + taps_y[:, None, None] - kh // 2) + offsets.data[0::2]
    xs = (ox[None] + taps_x[:, None, None] - kw // 2) + offsets.data[1::2]
    idx, wgt, (wy0, wy1, wx0, wx1) = _bilinear_plan(h, w, ys.ravel(), xs.ravel())
    w_mat = weight.data.reshape(c_out, -1)
    xz = _zero_column(x.data)
    out = np.empty((c_out, h * w))
    for rows in _pieces(h, c_in * n * w * 8):
        cols = slice(rows.start * w, rows.stop * w)
        # the tile's corners and weights, copied contiguous (a whole-map tile
        # is idx and wgt themselves), serve every channel's gather
        idx_t = idx.reshape(4, n, -1)[:, :, cols].reshape(4, -1)
        wgt_t = wgt.reshape(4, n, -1)[:, :, cols].reshape(4, -1)
        out[:, cols] = w_mat @ _sample(xz, idx_t, wgt_t).reshape(c_in * n, -1)
    out += bias.data[:, None]
    out = out.reshape(c_out, h, w)

    def backward(g):
        # Block by block of input channels: the sample gradients, then one
        # corner gather per channel that samples the channel again and forms
        # its offset gradient, then the block's columns of d_w. Channel 0
        # starts the offset gradient and channels 1, 2, ... add to it in order.
        g_mat = g.reshape(c_out, -1)
        xz = _zero_column(x.data)
        d_w = np.empty_like(w_mat)
        d_x = np.empty((c_in, h, w))
        d_off = np.empty((2, n * h * w))
        for chans in _pieces(c_in, n * h * w * 8):
            cols = slice(chans.start * n, chans.stop * n)
            d_s = (w_mat[:, cols].T @ g_mat).reshape(chans.stop - chans.start, -1)
            d_x[chans] = _scatter(d_s, idx, wgt, (len(d_s), h, w))
            s_blk = np.empty_like(d_s)
            for i, ch in enumerate(range(chans.start, chans.stop)):
                corners = xz[ch][idx]
                _bilinear_read(corners, wgt, s_blk[i])
                v00, v01, v10, v11 = corners
                g_y = d_s[i] * ((v10 - v00) * wx0 + (v11 - v01) * wx1)
                g_x = d_s[i] * ((v01 - v00) * wy0 + (v11 - v10) * wy1)
                if ch:
                    d_off[0] += g_y
                    d_off[1] += g_x
                else:
                    d_off[0], d_off[1] = g_y, g_x
            d_w[:, cols] = g_mat @ s_blk.reshape(-1, h * w).T
            del d_s, s_blk  # before the next block's
        d_off = d_off.reshape(2, n, h, w).swapaxes(0, 1).reshape(offsets.data.shape)
        return d_x, d_w.reshape(weight.data.shape), d_off, g_mat.sum(axis=1)

    return _record([x, weight, offsets, bias], out, backward)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"VDCK"
_CKPT_VERSION = 1


def check_writable(path) -> None:
    """A directory at `path`, or at the temporary `<path>.tmp` that atomic_write
    opens, is a ValueError naming it: no file can replace it."""
    for target in (os.fspath(path), f"{os.fspath(path)}.tmp"):
        if os.path.isdir(target):
            raise ValueError(f"cannot write {target}: a directory is in the way")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside `path` that replaces it once the block ends.

    A write that fails midway leaves the previous file intact and removes
    the temporary one. A directory at either path fails first (check_writable).
    """
    check_writable(path)
    tmp = f"{os.fspath(path)}.tmp"
    f = open(tmp, mode)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def make_dir(path) -> None:
    """Create a directory and its parents if missing. A file standing at the
    path or at one of its parents is a ValueError that names the path."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(f"cannot make directory {os.fspath(path)}: a file is in the way") from exc


def save_checkpoint(path, params: dict[str, Tensor | np.ndarray]) -> None:
    """Write named float64 arrays with a version header; byte-stable ordering.

    The write is atomic (see atomic_write).
    """
    with atomic_write(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<II", _CKPT_VERSION, len(params)))
        for name in sorted(params):
            arr = params[name]
            data = arr.data if isinstance(arr, Tensor) else np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", data.ndim))
            f.write(struct.pack(f"<{data.ndim}q", *data.shape))
            f.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    if raw[:4] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    pos = 4

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError(f"{path}: truncated checkpoint")
        pos += n
        return raw[pos - n:pos]

    version, count = struct.unpack("<II", take(8))
    if version != _CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: array {i} has a name that is not UTF-8") from exc
        if name in out:
            raise ValueError(f"{path}: array {name!r} appears twice")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim))
        if min(shape, default=0) < 0:
            raise ValueError(f"{path}: array {name!r} has a negative dimension {shape}")
        out[name] = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return out
