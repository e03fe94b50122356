"""Core types for interaction hypergraphs and their blockmodel ground truth.

An interaction hypergraph on nodes 1..n is a multiset of interactions, each a
nonempty subset of the nodes. Interactions are the sampling units, so the same
vertex set may occur more than once. Node and interaction indices are 1-based
in the public interface. The incidence matrix R is a ``scipy.sparse.csc_array``
of int64 ones, n x m, whose column p holds the 0-based row indices of the
vertices of e_p in ascending order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "InteractionHypergraph",
    "BlockModelSpec",
    "MeanMatrix",
    "incidence_matrix",
    "node_degree",
    "interaction_degree",
    "interaction_size",
    "type_matrix",
    "mean_matrix",
]


def _frozen_array(a, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class InteractionHypergraph:
    """A node count plus an ordered multiset of vertex subsets.

    Interactions are normalized to sorted tuples of distinct 1-based vertex
    ids, so two hypergraphs with the same interactions in the same order
    compare equal regardless of the input vertex order.
    """

    n: int
    interactions: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, interactions: Iterable[Iterable[int]]):
        if int(n) != n or n < 1:
            raise ValueError(f"node count must be a positive integer, got {n!r}")
        normalized = []
        for idx, raw in enumerate(interactions):
            verts = [int(v) for v in raw]
            if not verts:
                raise ValueError(f"interaction {idx + 1} is empty")
            if len(set(verts)) != len(verts):
                raise ValueError(f"interaction {idx + 1} repeats a vertex: {sorted(verts)}")
            if min(verts) < 1 or max(verts) > n:
                raise ValueError(
                    f"interaction {idx + 1} has vertex ids outside [1, {n}]: {sorted(verts)}"
                )
            normalized.append(tuple(sorted(verts)))
        if not normalized:
            raise ValueError("a hypergraph needs at least one interaction")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "interactions", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.interactions)


@dataclass(frozen=True, eq=False)
class BlockModelSpec:
    """Ground truth of a blockmodel instance: class labels and type counts.

    ``z`` holds 1-based class labels for every node; ``type_matrix`` is the
    d x m integer matrix whose column p counts the members of e_p per class.
    Derived fields (class sizes, binarized types) are computed on construction.
    """

    z: np.ndarray
    type_matrix: np.ndarray
    d: int = field(init=False)
    class_sizes: np.ndarray = field(init=False)
    basic_type_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=int)
        tmat = np.asarray(self.type_matrix, dtype=int)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("z must be a nonempty 1-d array of class labels")
        if tmat.ndim != 2 or tmat.shape[1] == 0:
            raise ValueError("type matrix must be d x m with m >= 1")
        d = int(z.max())
        if z.min() < 1:
            raise ValueError("class labels must be >= 1")
        if tmat.shape[0] != d:
            raise ValueError(
                f"type matrix has {tmat.shape[0]} rows but labels reach class {d}"
            )
        sizes = np.bincount(z, minlength=d + 1)[1:]
        if (sizes < 1).any():
            missing = [r + 1 for r in range(d) if sizes[r] < 1]
            raise ValueError(f"every class needs at least one node; empty: {missing}")
        if (tmat < 0).any():
            raise ValueError("type counts must be nonnegative")
        if (tmat > sizes[:, None]).any():
            raise ValueError("a type count exceeds its class size")
        if (tmat.sum(axis=0) < 1).any():
            raise ValueError("every interaction must involve at least one node")
        object.__setattr__(self, "z", _frozen_array(z))
        object.__setattr__(self, "type_matrix", _frozen_array(tmat))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "class_sizes", _frozen_array(sizes))
        object.__setattr__(self, "basic_type_matrix", _frozen_array((tmat > 0).astype(int)))

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def m(self) -> int:
        return self.type_matrix.shape[1]

    def interaction_sizes(self) -> np.ndarray:
        return self.type_matrix.sum(axis=0)

    def class_members(self, r: int) -> np.ndarray:
        """1-based ids of the nodes in class r."""
        return np.flatnonzero(self.z == r) + 1

    def membership_matrix(self) -> np.ndarray:
        """The n x d 0/1 matrix with one 1 per row marking the node's class."""
        out = np.zeros((self.n, self.d))
        out[np.arange(self.n), self.z - 1] = 1.0
        return out

    def mean_column(self, p: int) -> np.ndarray:
        """Column p of the mean matrix without materializing all of it."""
        if not 1 <= p <= self.m:
            raise IndexError(f"interaction index {p} outside [1, {self.m}]")
        ratios = self.type_matrix[:, p - 1] / self.class_sizes
        return ratios[self.z - 1]


@dataclass(frozen=True, eq=False)
class MeanMatrix:
    """Dense n x m expected incidence matrix; rank is at most d."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma.setflags(write=False)


def incidence_matrix(h: InteractionHypergraph) -> sp.csc_array:
    """Build the sparse incidence matrix of ``h`` (entry 1 iff node in e_p)."""
    sizes = np.fromiter(map(len, h.interactions), dtype=np.int64, count=h.m)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = np.fromiter(itertools.chain.from_iterable(h.interactions), dtype=np.int64) - 1
    data = np.ones(indices.size, dtype=np.int64)
    return sp.csc_array((data, indices, indptr), shape=(h.n, h.m))


def node_degree(h: InteractionHypergraph, v: int) -> int:
    """Number of interactions that contain node ``v``."""
    if not 1 <= v <= h.n:
        raise IndexError(f"node id {v} outside [1, {h.n}]")
    return sum(1 for e in h.interactions if v in e)


def interaction_degree(h: InteractionHypergraph, p: int) -> int:
    """Number of other interactions sharing at least one node with e_p."""
    if not 1 <= p <= h.m:
        raise IndexError(f"interaction index {p} outside [1, {h.m}]")
    target = set(h.interactions[p - 1])
    return sum(
        1 for q, e in enumerate(h.interactions) if q != p - 1 and not target.isdisjoint(e)
    )


def interaction_size(h: InteractionHypergraph, p: int) -> int:
    """Number of nodes in e_p."""
    if not 1 <= p <= h.m:
        raise IndexError(f"interaction index {p} outside [1, {h.m}]")
    return len(h.interactions[p - 1])


def type_matrix(h: InteractionHypergraph, z: Sequence[int]) -> BlockModelSpec:
    """Count class memberships of every interaction under the labeling ``z``."""
    labels = np.asarray(z, dtype=int)
    if labels.shape != (h.n,):
        raise ValueError(f"expected {h.n} labels, got shape {labels.shape}")
    if labels.min() < 1:
        raise ValueError("class labels must be >= 1")
    indicator = np.zeros((int(labels.max()), h.n), dtype=np.int64)
    indicator[labels - 1, np.arange(h.n)] = 1
    return BlockModelSpec(z=labels, type_matrix=indicator @ incidence_matrix(h))


def mean_matrix(spec: BlockModelSpec) -> MeanMatrix:
    """Dense expected incidence matrix: entry (i, p) is tau_{z_i p} / n_{z_i}."""
    ratios = spec.type_matrix / spec.class_sizes[:, None]
    return MeanMatrix(gamma=ratios[spec.z - 1, :])
