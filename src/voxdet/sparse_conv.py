"""Sparse 3D convolution over active voxel sites via rulebooks.

A rulebook is one flat list of (input row, output row) pairs, grouped by
kernel tap: tap t owns the slice starts[t]:starts[t+1]. The convolution
gathers every pair's input row once, then for each tap multiplies its
slice by that tap's weight slice and scatter-adds into the output rows.
Submanifold mode keeps the site set unchanged (no dilation of the active
pattern); strided mode creates the downsampled sites that receive at
least one contribution.

One builder serves both modes. A pair links input site i and output site
o of one tap when i = o * stride + tap - padding. Submanifold mode walks
the output sites and looks each partner up among the input sites;
strided mode walks the input sites and looks each partner up among the
reached output sites. Pairs are listed tap by tap in the nested
(dx, dy, dz) order; within a tap they run in ascending output row
(submanifold) or ascending input row (strided). The backward pass sums
the weight gradient in that order, so it is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, _record
from .voxelizer import voxel_coords, voxel_keys

SUBMANIFOLD = "submanifold"
STRIDED = "strided"


def _as_triple(v) -> tuple[int, int, int]:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 components, got {v!r}")
    return t


@dataclass
class Rulebook:
    """Gather/scatter plan: one tap-major (input row, output row) pair list.

    Tap t owns pairs starts[t]:starts[t + 1] of in_rows and out_rows.
    """

    in_rows: np.ndarray
    out_rows: np.ndarray
    starts: np.ndarray
    out_coords: np.ndarray
    out_spatial_shape: tuple[int, int, int]
    kernel: tuple[int, int, int]
    in_count: int

    @property
    def num_pairs(self) -> int:
        return len(self.in_rows)


def build_rulebook(coords: np.ndarray, spatial_shape, kernel, stride=1,
                   mode: str = SUBMANIFOLD, padding=None) -> Rulebook:
    """Plan a sparse convolution over the given active sites.

    Tap order is the nested (dx, dy, dz) enumeration, matching how weight
    tensors of shape (C_out, C_in, kx, ky, kz) are flattened.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    spatial_shape = _as_triple(spatial_shape)
    kernel = _as_triple(kernel)
    stride = _as_triple(stride)
    if min(stride) < 1:
        raise ValueError(f"invalid stride {stride}")
    if min(kernel) < 0:
        raise ValueError(f"invalid kernel {kernel}")
    if padding is None:
        padding = tuple(k // 2 for k in kernel)
    padding = _as_triple(padding)
    # input site = output site * stride + tap - padding, which splits by axis:
    # each row meets one partner coordinate per tap offset on each axis, kept
    # if it lies inside the partner grid; a tap's partner is valid when all
    # three of its axis partners are
    if mode == SUBMANIFOLD:
        if any(v % 2 == 0 for v in kernel):
            raise ValueError(f"submanifold mode needs odd kernel dims, got {kernel}")
        if stride != (1, 1, 1):
            raise ValueError("submanifold mode is stride 1 by definition")
        out_shape = spatial_shape
        # rows are output sites, partners input sites
        partner = [coords[:, d] + np.arange(kernel[d])[:, None] - kernel[d] // 2
                   for d in range(3)]
        valid = [(partner[d] >= 0) & (partner[d] < out_shape[d]) for d in range(3)]
    elif mode == STRIDED:
        out_shape = tuple((n + 2 * pd - kd) // sd + 1
                          for n, kd, sd, pd in zip(spatial_shape, kernel, stride, padding))
        if min(out_shape) < 1:
            raise ValueError(f"kernel {kernel} with stride {stride} empties spatial shape {spatial_shape}")
        # rows are input sites, partners output sites
        num = [coords[:, d] + padding[d] - np.arange(kernel[d])[:, None] for d in range(3)]
        partner = [num[d] // stride[d] for d in range(3)]
        valid = [(num[d] % stride[d] == 0) & (partner[d] >= 0) & (partner[d] < out_shape[d])
                 for d in range(3)]
    else:
        raise ValueError(f"unknown rulebook mode {mode!r}")

    # broadcast to (T, N) over the nested (dx, dy, dz) taps; the per-axis
    # terms of voxel_keys add up to the partner site's key
    per_tap = (int(np.prod(kernel)), len(coords))
    valid = (valid[0][:, None, None] & valid[1][None, :, None]
             & valid[2][None, None, :]).reshape(per_tap)
    _, ny, nz = out_shape
    keys = ((partner[0] * (ny * nz))[:, None, None] + (partner[1] * nz)[None, :, None]
            + partner[2][None, None, :]).reshape(per_tap)[valid]
    tap, row = np.nonzero(valid)  # tap-major, ascending row within a tap

    # the partner's row comes from one sorted key table: the input sites, or
    # the output sites, which are exactly the sites some pair reaches
    if mode == SUBMANIFOLD:
        table = voxel_keys(coords, out_shape)
        order = np.argsort(table)
        table = table[order]
        out_coords = coords.copy()
    else:
        table = np.unique(keys)
        order = np.arange(len(table))
        out_coords = voxel_coords(table, out_shape)
    pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    found = table[pos] == keys
    partner_row, row = order[pos[found]], row[found]
    in_rows, out_rows = (partner_row, row) if mode == SUBMANIFOLD else (row, partner_row)
    starts = np.concatenate([[0], np.cumsum(np.bincount(tap[found], minlength=len(valid)))])
    return Rulebook(in_rows, out_rows, starts, out_coords, out_shape, kernel, len(coords))


def sparse_conv_forward(features: Tensor, weight: Tensor, bias: Tensor,
                        rulebook: Rulebook) -> Tensor:
    """Gather-matmul-scatter convolution; differentiable in features/weight/bias."""
    n, c_in = features.data.shape
    c_out, c_in2, kx, ky, kz = weight.data.shape
    if c_in != c_in2:
        raise ValueError(f"channel mismatch: features {c_in}, weight {c_in2}")
    if (kx, ky, kz) != rulebook.kernel:
        raise ValueError(f"weight kernel {(kx, ky, kz)} != rulebook kernel {rulebook.kernel}")
    if n != rulebook.in_count:
        raise ValueError(f"rulebook built for {rulebook.in_count} sites, features have {n}")
    in_rows, out_rows = rulebook.in_rows, rulebook.out_rows
    bounds = rulebook.starts.tolist()
    spans = [(t, slice(a, b)) for t, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]
    w_taps = weight.data.reshape(c_out, c_in, -1)
    out = np.zeros((len(rulebook.out_coords), c_out))
    gathered = features.data[in_rows]
    for t, s in spans:
        # out rows are unique within one tap, so fancy-index add is exact
        out[out_rows[s]] += gathered[s] @ w_taps[:, :, t].T
    out += bias.data

    def backward(g):
        # the input rows are gathered again rather than kept on the tape,
        # which holds the features anyway
        gathered = features.data[in_rows]
        d_feat = np.zeros_like(features.data)
        d_w = np.zeros_like(w_taps)
        g_rows = g[out_rows]
        for t, s in spans:
            d_feat[in_rows[s]] += g_rows[s] @ w_taps[:, :, t]
            d_w[:, :, t] += g_rows[s].T @ gathered[s]
        return d_feat, d_w.reshape(weight.data.shape), g.sum(axis=0)

    return _record([features, weight, bias], out, backward)


def to_dense(coords: np.ndarray, features: Tensor, spatial_shape) -> Tensor:
    """Write (N, C) features at their (ix, iy, iz) sites into a (C*Z, Y, X)
    BEV map, zeros elsewhere; channel c*Z + z holds channel c at height z."""
    nx, ny, nz = spatial_shape
    c = features.data.shape[1]
    ix, iy, iz = coords[:, 0], coords[:, 1], coords[:, 2]
    out = np.zeros((c, nz, ny, nx))
    out[:, iz, iy, ix] = features.data.T

    def backward(g):
        return (g.reshape(c, nz, ny, nx)[:, iz, iy, ix].T,)

    return _record([features], out.reshape(c * nz, ny, nx), backward)
