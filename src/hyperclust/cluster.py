"""Complete-linkage agglomerative clustering, cuts, k selection, and ARI.

The merge loop is deterministic: among pairs at minimal complete-linkage
distance it merges the lexicographically smallest pair, ordering a cluster by
its smallest member. Clusters are named by their smallest member, so a merge
record (a, b) with a < b unites the clusters represented by items a and b into
one represented by a.

Exact duplicate rows are merged first, at height 0, and only the u distinct
rows are linked, so time and memory scale with u^2 rather than m^2. This
keeps the tie rule: duplicates are at distance 0 from each other and at the
same distances from everything else, and naming each distinct row by its
first occurrence keeps the index order. When two distinct rows are at
distance 0 (by underflow), duplicates no longer merge strictly first, and all
m rows are linked instead.
"""

from __future__ import annotations

import logging
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
# Smallest distance buffer handed to the allocator, in float64 entries
# (32 MiB). glibc serves smaller blocks from its heap, where the changing
# sizes of a grid's cells would stay resident after they are freed.
_MIN_DIST_ENTRIES = 2**22

log = logging.getLogger("hyperclust.cluster")


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

    Exact duplicate rows are collapsed first. Their distance is 0 and their
    distances to every other row are the same floats, so under the tie rule
    they merge before anything else: group by group in order of the group's
    first row, each later member merging into that first row in ascending
    order, at height 0. The u distinct rows, each named by its first
    occurrence, are then linked on their own; since that naming keeps the
    index order, the lexicographic tie rule picks the same pairs and the
    heights are the same floats. Collapsing is exact only if no two distinct
    rows are at distance 0 (as underflow can make them); when the distinct
    rows' first merge height is 0, all m rows are linked instead.

    The linkage keeps the square distance matrix of the live clusters with
    max-updates after each merge and a cached best partner per cluster; since
    complete-linkage distances only grow under merges, a cached partner goes
    stale only when it was one of the merged clusters. Memory and expected
    work are O(u^2) in the number u of distinct rows.
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

    _, first, inverse = np.unique(x, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    firsts = first[order]  # distinct rows by first occurrence
    u = firsts.size
    rank = np.empty(u, dtype=np.intp)
    rank[order] = np.arange(u)
    group = rank[inverse.reshape(-1)]
    dups = np.flatnonzero(firsts[group] != np.arange(m))
    dups = dups[np.argsort(group[dups], kind="stable")]
    zero_merges = np.column_stack([firsts[group[dups]], dups])

    floor = min(m * m, _MIN_DIST_ENTRIES)
    linked, heights, compactions = _link(x[firsts], floor)
    if 1 < u < m and heights[0] == 0.0:
        merges, heights, compactions = _link(x, floor)
        log.debug("complete_linkage: m=%d u=%d compactions=%d, linked all rows", m, u, compactions)
    else:
        merges = np.concatenate([zero_merges, firsts[linked]])
        heights = np.concatenate([np.zeros(m - u), heights])
        log.debug("complete_linkage: m=%d u=%d compactions=%d", m, u, compactions)
    return Dendrogram(leaves=m, merges=tuple(map(tuple, merges.tolist())), heights=heights)


def _link(x: np.ndarray, floor: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Complete linkage of the rows of x under the tie rule.

    Returns the (u - 1) x 2 merge array, the heights and the number of
    compactions. A merged-away cluster is retired by an inf entry in
    ``penalty``, which every partner scan adds to its row; once the live
    clusters are at most half the matrix, their rows and columns move to the
    front of the same buffer and the partner cache is rebuilt.
    """
    u = x.shape[0]
    # at least `floor` entries, of which only the first u^2 are touched
    buf = np.empty(max(u * u, floor))
    size = u
    dist = buf[: u * u].reshape(u, u)
    cdist(x, x, out=dist)
    names = np.arange(u)
    penalty = np.zeros(u)
    # best live partner to the right of each slot: ties take the smallest index
    nn_idx = np.empty(u, dtype=np.intp)
    nn_dist = np.empty(u)

    def refresh(i: int) -> None:
        right = dist[i, i + 1 :] + penalty[i + 1 :]
        if right.size == 0:
            nn_idx[i], nn_dist[i] = -1, np.inf
            return
        j = int(np.argmin(right))
        nn_idx[i] = i + 1 + j
        nn_dist[i] = right[j]

    for i in range(u):
        refresh(i)

    merges = np.empty((u - 1, 2), dtype=np.intp)
    heights = np.empty(u - 1)
    compactions = 0
    live = u
    for step in range(u - 1):
        i = int(np.argmin(nn_dist))
        j = int(nn_idx[i])
        heights[step] = nn_dist[i]
        merges[step] = names[i], names[j]

        merged = np.maximum(dist[i], dist[j])
        dist[i] = merged
        dist[:, i] = merged
        penalty[j] = np.inf
        nn_dist[j] = np.inf
        nn_idx[j] = -1
        live -= 1

        if 2 * live <= size and live > 1:
            # live slots keep their order, so the tie rule is unchanged; new
            # row r never overwrites an unread source row, since keep[r] >= r
            keep = np.flatnonzero(penalty == 0)
            for r, k in enumerate(keep):
                buf[r * live : (r + 1) * live] = buf[k * size + keep]
            size = live
            dist = buf[: live * live].reshape(live, live)
            names = names[keep]
            penalty = np.zeros(live)
            nn_idx = np.empty(live, dtype=np.intp)
            nn_dist = np.empty(live)
            for r in range(live):
                refresh(r)
            compactions += 1
            continue

        stale = np.flatnonzero((nn_idx == i) | (nn_idx == j))
        refresh(i)
        for k in stale:
            if k != i:
                refresh(int(k))

    return merges, heights, compactions


def cut_at_k(dend: Dendrogram, k: int) -> Partition:
    """Partition after exactly m - k merges, labels canonicalized to 1..k.

    Each of the first m - k merges points b at a; pointer jumping then sends
    every item to the representative of its cluster.
    """
    m = dend.leaves
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    parent = np.arange(m)
    pairs = np.array(dend.merges[: m - k], dtype=np.intp).reshape(-1, 2)
    parent[pairs[:, 1]] = pairs[:, 0]
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    _, inverse = np.unique(parent, return_inverse=True)
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
