import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hyperclust import (
    Partition,
    adjusted_rand_index,
    choose_k_by_gap,
    complete_linkage,
    cut_at_k,
)


def naive_complete_linkage(points):
    """Recompute-everything reference: at each step scan all live cluster
    pairs, computing the max pairwise point distance from scratch, and merge
    the minimal pair; ties go to the pair whose sorted smallest members are
    lexicographically least."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    clusters = {i: [i] for i in range(len(pts))}
    merges, heights = [], []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            dist = max(
                np.linalg.norm(pts[p] - pts[q])
                for p in clusters[a]
                for q in clusters[b]
            )
            key = (dist, min(a, b), max(a, b))
            if best is None or key < best:
                best = key
        dist, a, b = best
        merges.append((a, b))
        heights.append(dist)
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return merges, heights


def reference_complete_linkage(points):
    """The square-matrix engine without duplicate collapsing: max-updates of
    full rows and columns, retired clusters set to inf, and a cached best
    partner to the right of each slot (ties take the smallest index)."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    m = x.shape[0]
    dist = cdist(x, x)
    np.fill_diagonal(dist, np.inf)
    active = np.ones(m, dtype=bool)
    nn_idx = np.empty(m, dtype=int)
    nn_dist = np.empty(m)

    def refresh(i):
        right = dist[i, i + 1 :]
        if right.size == 0:
            nn_idx[i], nn_dist[i] = -1, np.inf
            return
        j = int(np.argmin(right))
        nn_idx[i] = i + 1 + j
        nn_dist[i] = right[j]

    for i in range(m):
        refresh(i)
    merges, heights = [], np.empty(m - 1)
    for step in range(m - 1):
        i = int(np.argmin(nn_dist))
        j = int(nn_idx[i])
        heights[step] = nn_dist[i]
        merges.append((i, j))
        merged = np.maximum(dist[i], dist[j])
        merged[i] = merged[j] = np.inf
        dist[i, :] = dist[:, i] = merged
        dist[j, :] = dist[:, j] = np.inf
        active[j] = False
        nn_dist[j], nn_idx[j] = np.inf, -1
        stale = np.flatnonzero(active & ((nn_idx == i) | (nn_idx == j)))
        refresh(i)
        for k in stale:
            if k != i:
                refresh(int(k))
    return merges, heights


def relabel_cut(dend, k):
    """Cut by relabelling b's cluster as a for each of the first m - k merges."""
    labels = np.arange(dend.leaves)
    for a, b in dend.merges[: dend.leaves - k]:
        labels[labels == b] = a
    return Partition.from_labels(labels).labels


def direct_ari(labels_a, labels_b):
    """Contingency-table formula evaluated directly with exact counts."""
    n = len(labels_a)
    cells = {}
    for x, y in zip(labels_a, labels_b):
        cells[(x, y)] = cells.get((x, y), 0) + 1
    rows, cols = {}, {}
    for (x, y), c in cells.items():
        rows[x] = rows.get(x, 0) + c
        cols[y] = cols.get(y, 0) + c
    sum_cells = sum(math.comb(c, 2) for c in cells.values())
    sum_rows = sum(math.comb(c, 2) for c in rows.values())
    sum_cols = sum(math.comb(c, 2) for c in cols.values())
    total = math.comb(n, 2)
    if total == 0:
        return 1.0
    expected = sum_rows * sum_cols / total
    denom = (sum_rows + sum_cols) / 2 - expected
    if denom == 0:
        return 1.0
    return (sum_cells - expected) / denom


class TestCompleteLinkage:
    def test_line_example(self):
        dend = complete_linkage(np.array([[0.0], [1.0], [10.0]]))
        assert dend.merges == ((0, 1), (0, 2))
        assert np.allclose(dend.heights, [1.0, 10.0])

    def test_duplicates_merge_first_at_zero(self):
        dend = complete_linkage(np.array([[5.0], [0.0], [5.0], [9.0]]))
        assert dend.merges[0] == (0, 2)
        assert dend.heights[0] == 0.0

    def test_single_point(self):
        dend = complete_linkage(np.array([[1.0, 2.0]]))
        assert dend.leaves == 1 and dend.merges == ()

    def test_two_points(self):
        dend = complete_linkage(np.array([[0.0], [3.0]]))
        assert dend.merges == ((0, 1),)
        assert dend.heights[0] == pytest.approx(3.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            complete_linkage(np.array([[0.0], [np.nan]]))
        with pytest.raises(ValueError):
            complete_linkage(np.empty((0, 2)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(30)
        for trial in range(60):
            m = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            pts = rng.normal(size=(m, d))
            if trial % 5 == 0 and m >= 3:
                pts[1] = pts[0]  # force ties at height zero
            dend = complete_linkage(pts)
            merges, heights = naive_complete_linkage(pts)
            assert list(dend.merges) == merges, f"trial {trial}"
            assert np.allclose(dend.heights, heights, atol=1e-12)

    def test_heights_are_nondecreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(2, 40)), 2))
            heights = complete_linkage(pts).heights
            assert (np.diff(heights) >= -1e-12).all()

    def test_heights_recomputable_from_members(self):
        rng = np.random.default_rng(32)
        pts = rng.normal(size=(12, 2))
        dend = complete_linkage(pts)
        members = {i: [i] for i in range(12)}
        for (a, b), height in zip(dend.merges, dend.heights):
            spread = max(
                np.linalg.norm(pts[p] - pts[q])
                for p in members[a]
                for q in members[b]
            )
            assert height == pytest.approx(spread, abs=1e-12)
            members[a] = members[a] + members[b]
            del members[b]

    def test_matches_reference_engine_on_ties_and_duplicates(self):
        rng = np.random.default_rng(40)
        for trial in range(12):
            m = int(rng.integers(150, 401))
            d = int(rng.integers(1, 4))
            if trial % 2 == 0:
                # integer grid: many exactly tied distances and duplicates
                pts = rng.integers(0, 6, size=(m, d)).astype(float)
            else:
                pts = rng.normal(size=(m, d))
                dup = rng.permutation(m)[: m // 3]
                pts[dup] = pts[rng.integers(0, m, size=dup.size)]
            dend = complete_linkage(pts)
            merges, heights = reference_complete_linkage(pts)
            assert list(dend.merges) == merges, f"trial {trial}"
            assert np.array_equal(dend.heights, heights), f"trial {trial}"

    def test_distinct_rows_at_distance_zero_match_naive_oracle(self):
        # 1e-170 - 0 squares to 0 by underflow, so two distinct rows are at
        # distance 0 and must interleave with the exact duplicates
        pts = np.array([[0.0], [1e-170], [0.0], [5.0]])
        dend = complete_linkage(pts)
        merges, heights = naive_complete_linkage(pts)
        assert list(dend.merges) == merges == [(0, 1), (0, 2), (0, 3)]
        assert np.array_equal(dend.heights, heights)

    def test_debug_line_reports_sizes_and_compactions(self, caplog):
        pts = np.repeat(np.arange(50.0), 2)[:, None] ** 1.5
        with caplog.at_level(logging.DEBUG, logger="hyperclust.cluster"):
            complete_linkage(pts)
        (record,) = caplog.records
        assert record.getMessage().startswith("complete_linkage: m=100 u=50 compactions=")
        assert int(record.getMessage().split("compactions=")[1]) > 0

    def test_peak_memory_scales_with_distinct_rows(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=(1000, 2))
        pts = values[rng.permutation(np.repeat(np.arange(1000), 3))]
        tracemalloc.start()
        try:
            complete_linkage(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8 / 2


class TestCuts:
    def test_trivial_cuts(self):
        pts = np.array([[0.0], [1.0], [10.0]])
        dend = complete_linkage(pts)
        assert cut_at_k(dend, 3).labels.tolist() == [1, 2, 3]
        assert cut_at_k(dend, 1).labels.tolist() == [1, 1, 1]
        assert cut_at_k(dend, 2).labels.tolist() == [1, 1, 2]

    def test_out_of_range_k(self):
        dend = complete_linkage(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            cut_at_k(dend, 0)
        with pytest.raises(ValueError):
            cut_at_k(dend, 3)

    def test_cuts_are_nested(self):
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(20, 2))
        dend = complete_linkage(pts)
        for k in range(2, 20):
            finer = cut_at_k(dend, k).labels
            coarser = cut_at_k(dend, k - 1).labels
            # items sharing a finer cluster share the coarser one
            for label in np.unique(finer):
                group = coarser[finer == label]
                assert (group == group[0]).all()

    def test_labels_cover_1_to_k(self):
        rng = np.random.default_rng(34)
        pts = rng.normal(size=(15, 3))
        dend = complete_linkage(pts)
        for k in (1, 4, 15):
            part = cut_at_k(dend, k)
            assert sorted(np.unique(part.labels)) == list(range(1, k + 1))

    def test_matches_relabel_loop(self):
        rng = np.random.default_rng(42)
        pts = rng.integers(0, 5, size=(120, 2)).astype(float)
        dend = complete_linkage(pts)
        for k in (1, 2, 3, 7, 25, 60, 119, 120):
            assert np.array_equal(cut_at_k(dend, k).labels, relabel_cut(dend, k)), k


class TestChooseK:
    def test_two_blobs(self):
        rng = np.random.default_rng(35)
        pts = np.vstack(
            [rng.normal(0, 0.05, size=(12, 2)), rng.normal(6, 0.05, size=(12, 2))]
        )
        dend = complete_linkage(pts)
        assert choose_k_by_gap(dend) == 2

    def test_three_blobs_with_k_max(self):
        rng = np.random.default_rng(36)
        pts = np.vstack(
            [
                rng.normal(0, 0.03, size=(8, 2)),
                rng.normal(5, 0.03, size=(8, 2)),
                rng.normal((0, 9), 0.03, size=(8, 2)),
            ]
        )
        dend = complete_linkage(pts)
        assert choose_k_by_gap(dend, k_max=10) == 3

    def test_identical_points_give_one_cluster(self):
        dend = complete_linkage(np.zeros((6, 2)))
        assert choose_k_by_gap(dend) == 1

    def test_single_point(self):
        assert choose_k_by_gap(complete_linkage(np.zeros((1, 2)))) == 1

    def test_two_points(self):
        assert choose_k_by_gap(complete_linkage(np.array([[0.0], [2.0]]))) == 2
        assert choose_k_by_gap(complete_linkage(np.zeros((2, 1)))) == 1

    def test_k_max_cap_of_one(self):
        dend = complete_linkage(np.array([[0.0], [1.0], [9.0]]))
        assert choose_k_by_gap(dend, k_max=1) == 1

    def test_duplicate_heavy_input_uses_additive_fallback(self):
        pts = np.array([[0.0], [0.0], [0.0], [0.0], [10.0], [11.0]])
        dend = complete_linkage(pts)
        assert choose_k_by_gap(dend) == 2


class TestAdjustedRandIndex:
    def test_permuted_labels_score_one(self):
        a = [1, 1, 2, 2, 3]
        b = [5, 5, 9, 9, 1]
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_crossed_pairs_score_minus_half(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(2, 50))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            assert adjusted_rand_index(a, b) == pytest.approx(
                direct_ari(list(a), list(b)), abs=1e-12
            )

    def test_independent_labelings_cluster_near_zero(self):
        rng = np.random.default_rng(38)
        values = [
            adjusted_rand_index(rng.integers(0, 3, 1000), rng.integers(0, 3, 1000))
            for _ in range(100)
        ]
        assert abs(np.mean(values)) <= 0.02

    def test_accepts_partitions(self):
        a = Partition.from_labels([1, 1, 2])
        b = Partition.from_labels([2, 2, 1])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_degenerate_identical_scores_one(self):
        assert adjusted_rand_index([1, 1, 1], [4, 4, 4]) == 1.0
        assert adjusted_rand_index([1, 2, 3], [3, 1, 2]) == 1.0
        assert adjusted_rand_index([7], [3]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1, 2], [1, 2, 3])


class TestPartition:
    def test_canonicalization(self):
        part = Partition.from_labels([10, 10, -3, 7])
        assert part.labels.tolist() == [3, 3, 1, 2]
        assert part.k == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_labels([])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=30),
    st.lists(st.integers(0, 4), min_size=2, max_size=30),
)
def test_ari_is_symmetric_and_bounded(a, b):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    forward = adjusted_rand_index(a, b)
    assert forward == pytest.approx(adjusted_rand_index(b, a), abs=1e-12)
    assert -1.0 - 1e-9 <= forward <= 1.0 + 1e-9


def test_perfect_recovery_on_separated_groups():
    # tight groups far apart: some cut equals the planted partition exactly
    rng = np.random.default_rng(39)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [7.0, 7.0]])
    labels = rng.integers(0, 4, size=40)
    pts = centers[labels] + rng.normal(scale=0.01, size=(40, 2))
    dend = complete_linkage(pts)
    part = cut_at_k(dend, len(np.unique(labels)))
    assert adjusted_rand_index(part, labels) == 1.0
