"""Core types for interaction hypergraphs and their blockmodel ground truth.

An interaction hypergraph on nodes 1..n is a multiset of interactions, each a
nonempty subset of the nodes. Interactions are the sampling units, so the same
vertex set may occur more than once. A hypergraph is stored as the CSC arrays
of its n x m incidence matrix R: ``indptr`` (m + 1 offsets) and ``indices``
(0-based vertex ids, ascending within each interaction). ``incidence_matrix``
wraps them in a ``scipy.sparse.csc_array`` of int64 ones. Node and interaction
indices are 1-based in the public interface, so the ``interactions`` view
lists sorted tuples of 1-based vertex ids.
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
    "incidence_matrix",
    "type_matrix",
    "mean_matrix",
]


def _frozen_array(a) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class InteractionHypergraph:
    """A node count plus an ordered multiset of vertex subsets, as CSC arrays.

    ``indices[indptr[p]:indptr[p + 1]]`` holds the 0-based vertex ids of
    interaction p + 1 in ascending order; both arrays are read-only int64. Two
    hypergraphs with the same interactions in the same order compare equal
    regardless of the input vertex order.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __init__(self, n: int, interactions: Iterable[Iterable[int]]):
        """Build from 1-based vertex ids, one iterable per interaction."""
        groups = list(map(tuple, interactions))
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        flat = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64, count=int(sizes.sum()))
        self._adopt(n, np.concatenate(([0], np.cumsum(sizes))), flat - 1)

    @classmethod
    def from_arrays(cls, n: int, indptr, indices) -> "InteractionHypergraph":
        """Build from CSC arrays holding 0-based vertex ids in any order
        within an interaction. The arguments are copied, not kept."""
        h = object.__new__(cls)
        h._adopt(n, np.array(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64))
        return h

    def _adopt(self, n, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Sort within interactions, validate, and store read-only arrays."""
        if int(n) != n or n < 1:
            raise ValueError(f"node count must be a positive integer, got {n!r}")
        n = int(n)
        m = indptr.size - 1
        if m < 1:
            raise ValueError("a hypergraph needs at least one interaction")
        if m * n >= 2**63:
            raise ValueError(f"n * m must stay below 2**63 to fit the int64 sort key, got n = {n} and m = {m}")
        sizes = indptr[1:] - indptr[:-1]
        smallest = sizes.min()
        if indptr[0] != 0 or indptr[-1] != indices.size or smallest < 0:
            raise ValueError("indptr must rise from 0 to the number of vertex ids")
        # with every id in [0, n), sorting p * n + id sorts within interactions
        # and a repeated vertex shows as two equal neighbours
        base = np.repeat(np.arange(0, m * n, n), sizes)
        key = base + indices
        key.sort()
        if smallest == 0 or indices.min() < 0 or indices.max() >= n or (key[1:] == key[:-1]).any():
            for p, verts in enumerate(np.split(indices + 1, indptr[1:-1])):
                verts = sorted(verts.tolist())
                if not verts:
                    raise ValueError(f"interaction {p + 1} is empty")
                if len(set(verts)) != len(verts):
                    raise ValueError(f"interaction {p + 1} repeats a vertex: {verts}")
                if verts[0] < 1 or verts[-1] > n:
                    raise ValueError(f"interaction {p + 1} has vertex ids outside [1, {n}]: {verts}")
        indices = key - base
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    @property
    def interactions(self) -> tuple[tuple[int, ...], ...]:
        """Each interaction as a sorted tuple of 1-based vertex ids."""
        flat = (self.indices + 1).tolist()
        return tuple(tuple(flat[a:b]) for a, b in itertools.pairwise(self.indptr.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionHypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True, eq=False)
class BlockModelSpec:
    """Ground truth of a blockmodel instance: class labels and type counts.

    ``z`` holds 1-based class labels for every node; ``type_matrix`` is the
    d x m integer matrix whose column p counts the members of e_p per class.
    Derived fields (class count, class sizes) are computed on construction.
    """

    z: np.ndarray
    type_matrix: np.ndarray
    d: int = field(init=False)
    class_sizes: np.ndarray = field(init=False)

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

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def m(self) -> int:
        return self.type_matrix.shape[1]

    def interaction_sizes(self) -> np.ndarray:
        return self.type_matrix.sum(axis=0)


def incidence_matrix(h: InteractionHypergraph) -> sp.csc_array:
    """The sparse incidence matrix of ``h`` (entry 1 iff node in e_p).

    The matrix is in canonical CSC form and shares the read-only index arrays
    of ``h``; only its ``data`` array of int64 ones is new.
    """
    data = np.ones(h.indices.size, dtype=np.int64)
    return sp.csc_array((data, h.indices, h.indptr), shape=(h.n, h.m))


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


def mean_matrix(spec: BlockModelSpec) -> np.ndarray:
    """Dense read-only n x m expected incidence matrix, entry (i, p) tau_{z_i p} / n_{z_i}.

    Row i is row z_i of the d x m ratio block T / n_r, from which the spectral
    layer works without forming this matrix.
    """
    return _frozen_array((spec.type_matrix / spec.class_sizes[:, None])[spec.z - 1])
