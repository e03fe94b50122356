"""Random interaction hypergraphs: weighted draws, blockmodel draws, designs.

:class:`SimulationDesign` is the paper's two-class benchmark, and
:func:`generate_design` draws one instance of it: interaction sizes
2 + Binomial(k_max - 2, alpha), then the type matrix, then the memberships.
:func:`sample_hyper_sbm` draws the memberships class by class with one
row-wise permutation of the class members per chunk of interactions, and
writes them straight into the CSC arrays of the hypergraph (see
:mod:`hyperclust.core`). Its transient buffers hold at most
``_CHUNK_ENTRIES`` entries, or one row for a larger class, whatever m is.
Reproducibility is built on counter-based Philox streams: a
:class:`RngStream` is a (seed, key) pair, identical pairs yield identical
draws, and distinct keys yield statistically independent streams. The
experiment harness keys streams by (regime, n, m, replicate) so results do
not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import BlockModelSpec, InteractionHypergraph

__all__ = [
    "RngStream",
    "SimulationDesign",
    "draw_weighted_sequence",
    "sample_weighted_without_replacement",
    "sample_hyper_sbm",
    "generate_design",
]

# entries (rows x class size) that sample_hyper_sbm shuffles per rng.permuted
# call: each transient int64 buffer stays at 512 KiB, which kept the peak RSS
# of a fixed(80, 26973) replicate below the per-interaction loop's and ran
# faster than chunks of 2**18 or 2**20 entries
_CHUNK_ENTRIES = 2**16

GROWING = "growing"
FIXED = "fixed"


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by a 64-bit seed and a key path.

    The generator is Philox seeded through ``SeedSequence(seed, spawn_key=key)``,
    so the draw sequence is a pure function of (seed, key) and independent
    streams are obtained by extending the key.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.key + tuple(int(k) for k in key))


@dataclass(frozen=True)
class SimulationDesign:
    """Two-class benchmark layout: basic types (1,0), (0,1), (1,1) in thirds.

    Interaction sizes follow 2 + Binomial(k_max - 2, alpha). The growing
    regime sets k_max = n/d; the fixed regime pins k_max = 5. Nodes split
    evenly into the d = 2 classes, so 2 <= k_max <= n/d.
    """

    d: ClassVar[int] = 2
    n: int
    m: int
    regime: str
    alpha: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.regime not in (GROWING, FIXED):
            raise ValueError(f"regime must be '{GROWING}' or '{FIXED}', got {self.regime!r}")
        if self.n < 2 or self.n % self.d != 0:
            raise ValueError(f"n must be a positive multiple of d={self.d}, got {self.n}")
        if self.m < 3 or self.m % 3 != 0:
            raise ValueError(f"m must be a positive multiple of 3, got {self.m}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.k_max < 2:
            raise ValueError(f"k_max={self.k_max} is below the smallest interaction size 2")
        if self.k_max > self.n // self.d:
            raise ValueError(f"k_max={self.k_max} exceeds the class size {self.n // self.d}")

    @property
    def k_max(self) -> int:
        return self.n // self.d if self.regime == GROWING else 5


def draw_weighted_sequence(weights, k: int, rng: np.random.Generator) -> list[int]:
    """Draw k distinct candidate indices sequentially, in draw order.

    Each step is a multinomial trial over the remaining candidates with
    probabilities proportional to their weights (the drawn candidate's weight
    is then zeroed). Implemented as a partial-sum search, O(k n).
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if not np.all(np.isfinite(w)) or (w < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    support = int((w > 0).sum())
    if k < 0:
        raise ValueError(f"cannot draw {k} items")
    if k > support:
        raise ValueError(f"cannot draw {k} items from {support} positively weighted candidates")
    out: list[int] = []
    for _ in range(k):
        cumulative = np.cumsum(w)
        u = rng.random() * cumulative[-1]
        i = int(np.searchsorted(cumulative, u, side="right"))
        if i >= w.size or w[i] <= 0.0:
            # float roundoff pushed u to the top of the scale; take the last
            # positively weighted candidate
            i = int(np.flatnonzero(w > 0)[-1])
        out.append(i)
        w[i] = 0.0
    return out


def sample_weighted_without_replacement(weights, k: int, rng: np.random.Generator) -> frozenset[int]:
    """Unordered set of k distinct candidate indices from sequential draws."""
    return frozenset(draw_weighted_sequence(weights, k, rng))


def sample_hyper_sbm(spec: BlockModelSpec, rng: np.random.Generator) -> InteractionHypergraph:
    """Sample a hypergraph: each interaction draws a uniform tau_{rp}-subset
    of class r, independently across classes and interactions.

    The draws run class by class. For class r, the interactions p with
    tau_{rp} > 0 are taken in column order, in chunks of at most
    ``_CHUNK_ENTRIES`` // n_r rows; each row of a chunk is an independent
    Fisher-Yates shuffle of the class members (``rng.permuted``), and its first
    tau_{rp} entries are the subset. They are written into the CSC ``indices``
    slice of p after the ids of the classes before r. The output does not
    depend on the chunk size.
    """
    tmat = spec.type_matrix
    indptr = np.concatenate(([0], np.cumsum(tmat.sum(axis=0))))
    indices = np.empty(indptr[-1], dtype=np.int64)
    start = indptr[:-1].copy()  # where class r's ids go in each interaction
    for r in range(spec.d):
        members = np.flatnonzero(spec.z == r + 1)
        slot = np.arange(members.size)
        cols = np.flatnonzero(tmat[r])
        rows = max(1, _CHUNK_ENTRIES // members.size)
        for lo in range(0, cols.size, rows):
            chunk = cols[lo : lo + rows]
            shuffled = rng.permuted(np.broadcast_to(members, (chunk.size, members.size)), axis=1)
            keep = slot < tmat[r, chunk, None]
            indices[(start[chunk, None] + slot)[keep]] = shuffled[keep]
        start += tmat[r]
    return InteractionHypergraph.from_arrays(spec.n, indptr, indices)


def generate_design(
    design: SimulationDesign, stream: RngStream | None = None
) -> tuple[BlockModelSpec, InteractionHypergraph]:
    """Draw one benchmark instance: sizes, then the type matrix, then memberships.

    The m sizes are 2 + Binomial(k_max - 2, alpha), drawn in one call on
    stream child 0; size 2 is the least that gives a pure type two nodes and
    a mixed type one node per class. Column layout: the first m/3
    interactions are pure class 1, the next third pure class 2, the last
    third mixed. A mixed interaction of size k puts 1 + Binomial(k - 2, 1/2)
    nodes in class 1 (stream child 1), so both classes are represented and
    the split is symmetric. Memberships come from stream child 2. Without a
    stream the draws come from ``RngStream(design.seed)``. Identical
    (design, stream) pairs give bitwise-identical output.
    """
    if stream is None:
        stream = RngStream(design.seed)
    n, m, d = design.n, design.m, design.d
    z = np.repeat(np.arange(1, d + 1), n // d)

    third = m // 3
    sizes = 2 + stream.child(0).generator().binomial(design.k_max - 2, design.alpha, size=m)
    mixed = sizes[2 * third :]
    first = 1 + stream.child(1).generator().binomial(mixed - 2, 0.5)
    tmat = np.zeros((d, m), dtype=int)
    tmat[0, :third] = sizes[:third]
    tmat[1, third : 2 * third] = sizes[third : 2 * third]
    tmat[0, 2 * third :] = first
    tmat[1, 2 * third :] = mixed - first

    spec = BlockModelSpec(z=z, type_matrix=tmat)
    h = sample_hyper_sbm(spec, stream.child(2).generator())
    return spec, h
