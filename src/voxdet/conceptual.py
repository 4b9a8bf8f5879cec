"""Dense stand-in models for sparse objects, built from the dataset itself.

Labeled objects are cropped into a canonical frame (centered, unrotated,
original scale) and grouped into yaw bins. The densest slice of each bin
becomes the candidate pool. A sparse target object is matched to the
candidate with the smallest directed mean closest-point distance, the
winner is scaled per axis onto the target's box, and a composed scene
replaces every object's points with its matched model while background
points pass through untouched.

Match distances are computed in the target's canonical frame. A rigid
motion preserves distances, so this equals rotating the candidate into the
target's pose, with one bonus: a target matched against its own bank entry
compares bit-identical arrays and scores exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Box3D,
    PointCloud,
    avg_closest_point_distance,
    points_in_box,
    rotation_z,
)
from .voxelizer import require_float, require_int


@dataclass(frozen=True)
class ConceptualConfig:
    """Instance bank settings: yaw bins, top-K% kept per bin, candidate point floor."""

    m_bins: int = 24
    k_percent: float = 20.0
    min_points: int = 8

    def __post_init__(self):
        require_int("m_bins", self.m_bins, 1)
        require_int("min_points", self.min_points, 0)
        require_float("k_percent", self.k_percent)
        if not (0.0 < self.k_percent <= 100.0):
            raise ValueError("k_percent must be in (0, 100]")


def bin_index(yaw: float, m_bins: int) -> int:
    """Yaw bin in [0, m_bins): bin 0 starts at -pi."""
    width = 2.0 * math.pi / m_bins
    idx = int(math.floor((yaw + math.pi) / width))
    return min(max(idx, 0), m_bins - 1)


def to_canonical(cloud: PointCloud, box: Box3D) -> PointCloud:
    """Express points in the box frame: centered, yaw removed, scale kept."""
    local = (cloud.xyz - box.center) @ rotation_z(box.yaw)
    return PointCloud.from_xyz(local, cloud.intensity.copy())


def from_canonical(local: PointCloud, box: Box3D) -> PointCloud:
    world = local.xyz @ rotation_z(box.yaw).T + box.center
    return PointCloud.from_xyz(world, local.intensity.copy())


@dataclass(frozen=True)
class BankInstance:
    """One cropped object: canonical-frame points plus its source identity."""

    local_points: PointCloud
    box: Box3D
    scene_id: int
    instance_idx: int
    bin_idx: int

    @property
    def point_count(self) -> int:
        return len(self.local_points)


@dataclass(frozen=True)
class InstanceBank:
    m_bins: int
    instances: tuple[BankInstance, ...]
    candidates: tuple[tuple[int, ...], ...]  # per bin, ranked instance ids

    def candidate_ids_for_bin(self, bin_idx: int) -> tuple[int, ...]:
        """Candidates of the bin, or of the circularly nearest non-empty bin."""
        if self.candidates[bin_idx]:
            return self.candidates[bin_idx]
        best: int | None = None
        for d in range(1, self.m_bins // 2 + 1):
            hits = [b for b in ((bin_idx - d) % self.m_bins, (bin_idx + d) % self.m_bins)
                    if self.candidates[b]]
            if hits:
                best = min(hits)
                break
        if best is None:
            raise ValueError("instance bank has no candidates in any bin")
        return self.candidates[best]


def build_instance_bank(
    scenes: Sequence[tuple[PointCloud, Sequence[Box3D]]],
    m_bins: int = ConceptualConfig.m_bins,
    k_percent: float = ConceptualConfig.k_percent,
    min_points: int = ConceptualConfig.min_points,
) -> InstanceBank:
    """Crop every labeled object and keep the densest top K% of each yaw bin.

    Ranking is by point count, ties broken by lower scene id then lower
    instance index, so the candidate sets are nested as K shrinks. The
    settings are checked as ConceptualConfig checks them.
    """
    ConceptualConfig(m_bins, k_percent, min_points)
    instances: list[BankInstance] = []
    for scene_id, (cloud, boxes) in enumerate(scenes):
        for instance_idx, box in enumerate(boxes):
            idx = points_in_box(cloud, box)
            crop = PointCloud(cloud.data[idx])
            instances.append(BankInstance(
                local_points=to_canonical(crop, box),
                box=box,
                scene_id=scene_id,
                instance_idx=instance_idx,
                bin_idx=bin_index(box.yaw, m_bins),
            ))
    if not instances:
        raise ValueError("dataset has no labeled objects")

    candidates: list[tuple[int, ...]] = []
    for b in range(m_bins):
        members = [i for i, inst in enumerate(instances) if inst.bin_idx == b]
        members.sort(key=lambda i: (-instances[i].point_count,
                                    instances[i].scene_id, instances[i].instance_idx))
        top_n = math.ceil(k_percent / 100.0 * len(members)) if members else 0
        chosen = tuple(i for i in members[:top_n] if instances[i].point_count >= min_points)
        candidates.append(chosen)
    if not any(candidates):
        raise ValueError("no bin yielded a candidate; every object is below the point floor")
    return InstanceBank(m_bins, tuple(instances), tuple(candidates))


@dataclass(frozen=True)
class ConceptualMatch:
    target_box: Box3D
    candidate_id: int
    distance: float
    model_points: PointCloud  # refined and placed in the scene frame

    def __post_init__(self) -> None:
        inside = points_in_box(self.model_points, self.target_box)
        if len(inside) != len(self.model_points):
            raise ValueError("refined model points leak outside the target box")


def refine_and_place(candidate: BankInstance, target_box: Box3D) -> PointCloud:
    """Scale the candidate per axis onto the target box, then pose it."""
    ratios = target_box.dims / candidate.box.dims
    half = target_box.dims / 2  # a point the crop's slack let past a face stays in the box
    scaled = PointCloud.from_xyz(np.clip(candidate.local_points.xyz * ratios, -half, half),
                                 candidate.local_points.intensity.copy())
    return from_canonical(scaled, target_box)


def match_candidate(target_points: PointCloud, target_box: Box3D,
                    bank: InstanceBank) -> ConceptualMatch:
    """Pick the same-bin candidate with minimum directed mean closest distance.

    The target with zero points cannot be compared; it takes the bin's
    top-ranked candidate with an infinite recorded distance.
    """
    bin_idx = bin_index(target_box.yaw, bank.m_bins)
    ids = bank.candidate_ids_for_bin(bin_idx)
    if len(target_points) == 0:
        winner = ids[0]
        return ConceptualMatch(target_box, winner, math.inf,
                               refine_and_place(bank.instances[winner], target_box))
    target_local = to_canonical(target_points, target_box)
    winner = ids[0]
    best = math.inf
    for cid in ids:
        cand = bank.instances[cid]
        d = avg_closest_point_distance(target_local, cand.local_points)
        if d < best:
            best = d
            winner = cid
    return ConceptualMatch(target_box, winner, best,
                           refine_and_place(bank.instances[winner], target_box))


def compose_conceptual_scene(
    scene: PointCloud, boxes: Sequence[Box3D], bank: InstanceBank,
) -> tuple[PointCloud, list[ConceptualMatch]]:
    """Replace each object's points with its matched model; keep background.

    Output order is deterministic: background points in original order,
    then each object's model points in annotation order.
    """
    if not boxes:
        return PointCloud(scene.data.copy()), []
    object_mask = np.zeros(len(scene), dtype=bool)
    matches: list[ConceptualMatch] = []
    for box in boxes:
        idx = points_in_box(scene, box)
        object_mask[idx] = True
        matches.append(match_candidate(PointCloud(scene.data[idx]), box, bank))
    parts = [scene.data[~object_mask]] + [m.model_points.data for m in matches]
    return PointCloud(np.vstack(parts)), matches
