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
    if padding is None:
        padding = tuple(k // 2 for k in kernel)
    padding = _as_triple(padding)
    shape, k, s, p = (np.asarray(v) for v in (spatial_shape, kernel, stride, padding))
    taps = np.indices(kernel).reshape(3, -1).T[:, None]  # (T, 1, 3), nested order

    # input site = output site * stride + tap - padding; each row meets one
    # partner site per tap, kept if it lies inside the partner grid
    if mode == SUBMANIFOLD:
        if any(v % 2 == 0 for v in kernel):
            raise ValueError(f"submanifold mode needs odd kernel dims, got {kernel}")
        if stride != (1, 1, 1):
            raise ValueError("submanifold mode is stride 1 by definition")
        out_shape = shape
        partner = coords + taps - k // 2  # rows are output sites, partners input sites
        valid = ((partner >= 0) & (partner < shape)).all(axis=2)
    elif mode == STRIDED:
        out_shape = (shape + 2 * p - k) // s + 1
        if (out_shape < 1).any():
            raise ValueError(f"kernel {kernel} with stride {stride} empties spatial shape {spatial_shape}")
        num = coords + p - taps  # rows are input sites, partners output sites
        partner = num // s
        valid = ((num % s == 0) & (partner >= 0) & (partner < out_shape)).all(axis=2)
    else:
        raise ValueError(f"unknown rulebook mode {mode!r}")
    out_shape = tuple(int(v) for v in out_shape)

    # the partner's row comes from one sorted key table: the input sites, or
    # the output sites, which are exactly the sites some pair reaches
    tap, row = np.nonzero(valid)  # tap-major, ascending row within a tap
    keys = voxel_keys(partner[tap, row], out_shape)
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
    starts = np.concatenate([[0], np.cumsum(np.bincount(tap[found], minlength=len(taps)))])
    return Rulebook(in_rows, out_rows, starts, out_coords, out_shape, kernel, len(coords))


def sparse_conv_forward(features: Tensor, weight: Tensor, bias: Tensor | None,
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
    if bias is not None:
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
        d_w = d_w.reshape(weight.data.shape)
        if bias is None:
            return d_feat, d_w
        return d_feat, d_w, g.sum(axis=0)

    inputs = [features, weight] if bias is None else [features, weight, bias]
    return _record(inputs, out, backward)


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
