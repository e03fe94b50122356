"""Complete-linkage agglomerative clustering, cuts, k selection, and ARI.

The merge loop is deterministic: among pairs at minimal complete-linkage
distance it merges the lexicographically smallest pair, ordering a cluster by
its smallest member. Clusters are named by their smallest member, so a merge
record (a, b) with a < b unites the clusters represented by items a and b into
one represented by a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "Dendrogram",
    "Partition",
    "complete_linkage",
    "cut_at_k",
    "choose_k_by_gap",
    "adjusted_rand_index",
]

_ZERO_HEIGHT = 1e-12


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Full merge history: (a, b) representative pairs with linkage heights."""

    leaves: int
    merges: tuple[tuple[int, int], ...]
    heights: np.ndarray

    def __post_init__(self):
        self.heights.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Partition:
    """Cluster labels 1..k, every label nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels.setflags(write=False)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Canonicalize arbitrary labels to 1..k (sorted by original value)."""
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("labels must be a nonempty 1-d sequence")
        _, inverse = np.unique(arr, return_inverse=True)
        return cls(labels=inverse + 1, k=int(inverse.max()) + 1)

    @property
    def size(self) -> int:
        return self.labels.size


def complete_linkage(points) -> Dendrogram:
    """Agglomerate by smallest maximum pairwise distance.

    Maintains the full distance matrix with max-updates after each merge and a
    cached best partner per cluster; since complete-linkage distances only
    grow under merges, a cached partner goes stale only when it was one of the
    merged clusters, giving O(m^2) expected work.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a nonempty m x d array")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    m = x.shape[0]
    if m == 1:
        return Dendrogram(leaves=1, merges=(), heights=np.empty(0))

    dist = cdist(x, x)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(m, dtype=bool)
    # best partner to the right of each slot: ties take the smallest index
    nn_idx = np.empty(m, dtype=int)
    nn_dist = np.empty(m)

    def refresh(i: int) -> None:
        right = dist[i, i + 1 :]
        if right.size == 0:
            nn_idx[i], nn_dist[i] = -1, np.inf
            return
        j = int(np.argmin(right))
        nn_idx[i] = i + 1 + j
        nn_dist[i] = right[j]

    for i in range(m):
        refresh(i)

    merges: list[tuple[int, int]] = []
    heights = np.empty(m - 1)
    for step in range(m - 1):
        i = int(np.argmin(nn_dist))
        j = int(nn_idx[i])
        heights[step] = nn_dist[i]
        merges.append((i, j))

        merged = np.maximum(dist[i], dist[j])
        merged[i] = np.inf
        merged[j] = np.inf
        dist[i, :] = merged
        dist[:, i] = merged
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        active[j] = False
        nn_dist[j] = np.inf
        nn_idx[j] = -1

        stale = np.flatnonzero(active & ((nn_idx == i) | (nn_idx == j)))
        refresh(i)
        for k in stale:
            if k != i:
                refresh(int(k))

    return Dendrogram(leaves=m, merges=tuple(merges), heights=heights)


def cut_at_k(dend: Dendrogram, k: int) -> Partition:
    """Partition after exactly m - k merges, labels canonicalized to 1..k."""
    m = dend.leaves
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    labels = np.arange(m)
    for a, b in dend.merges[: m - k]:
        labels[labels == b] = a
    _, inverse = np.unique(labels, return_inverse=True)
    return Partition(labels=inverse + 1, k=k)


def choose_k_by_gap(dend: Dendrogram, k_max: int | None = None) -> int:
    """Pick k at the largest jump of the linkage height sequence.

    Scores each candidate k by the ratio of the first height after the cut to
    the last height before it; a denominator below 1e-12 falls back to the
    additive gap. All heights (near) zero means a single tight cluster.
    """
    m = dend.leaves
    if m == 1:
        return 1
    heights = dend.heights
    if bool((heights < _ZERO_HEIGHT).all()):
        return 1
    hi = min(k_max if k_max is not None else m, m - 1)
    if hi < 2:
        if k_max is not None and k_max < 2:
            return 1
        return 2 if heights[-1] >= _ZERO_HEIGHT else 1
    best_k, best_score = 1, -np.inf
    for k in range(2, hi + 1):
        after = heights[m - k]
        before = heights[m - k - 1]
        score = after / before if before >= _ZERO_HEIGHT else after - before
        if score > best_score:
            best_k, best_score = k, score
    return best_k


def _as_label_array(partition) -> np.ndarray:
    if isinstance(partition, Partition):
        return partition.labels
    return np.asarray(partition)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected partition agreement from the contingency table.

    Accepts :class:`Partition` objects or raw label sequences. Identical
    partitions score 1 even when the correction denominator vanishes
    (trivial partitions). Exact integer arithmetic, so no overflow for large
    item counts.
    """
    la = _as_label_array(a)
    lb = _as_label_array(b)
    if la.shape != lb.shape or la.ndim != 1:
        raise ValueError(f"label shapes differ: {la.shape} vs {lb.shape}")
    n = la.size
    if n == 0:
        raise ValueError("partitions must be nonempty")
    _, ca = np.unique(la, return_inverse=True)
    _, cb = np.unique(lb, return_inverse=True)
    kb = int(cb.max()) + 1

    def pairs(counts) -> int:
        counts = np.asarray(counts, dtype=np.int64)
        return int((counts * (counts - 1) // 2).sum())

    _, cell_counts = np.unique(ca.astype(np.int64) * kb + cb, return_counts=True)
    together_both = pairs(cell_counts)
    together_a = pairs(np.bincount(ca))
    together_b = pairs(np.bincount(cb))
    all_pairs = n * (n - 1) // 2
    if all_pairs == 0:
        return 1.0
    expected = together_a * together_b / all_pairs
    denom = (together_a + together_b) / 2 - expected
    if denom == 0:
        # only both-all-singletons or both-one-cluster reach here, and those
        # are identical partitions
        return 1.0
    return float((together_both - expected) / denom)
