"""Spectral embedding of interactions via the hollowed Gram matrix.

For an incidence matrix R (a ``scipy.sparse.csc_array``, or a dense array such
as the mean matrix), the hollowed Gram matrix is RR^T with its diagonal
zeroed; its off-diagonal entries count co-memberships of node pairs. Under the
blockmodel its expectation splits into a rank-d block carried by the class
membership space plus, per class r, a multiple -mu_r of the centering
projector, so the spectrum consists of d signal eigenvalues together with
bulk values -mu_r of multiplicity n_r - 1. Embedding selects the signal
eigenpairs (U, Lambda), takes the thin SVD U^T R = X S V^T, and uses the rows
of V S as interaction coordinates; their noiseless counterparts come from the
thin SVD of the mean matrix. The Gram matrix is built and eigendecomposed once
per instance: :class:`EmbeddingResult` carries it together with the full
spectrum, and :func:`diagnostics` reuses that Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from .core import BlockModelSpec

__all__ = [
    "SignalSelectionError",
    "HollowedGram",
    "ExpectedGramStructure",
    "SignalGap",
    "EmbeddingResult",
    "TheoreticalEmbedding",
    "DiagnosticsReport",
    "hollowed_gram",
    "expected_gram",
    "signal_gap",
    "select_signal_eigenpairs",
    "embed_interactions",
    "theoretical_embedding",
    "procrustes_align",
    "diagnostics",
    "nearest_neighbor_gaps",
    "min_type_separation",
    "two_to_inf",
]


class SignalSelectionError(RuntimeError):
    """Trapping-based selection found the wrong number of eigenvalues.

    ``found`` is how many eigenvalues fell outside every bulk exclusion
    interval; ``expected`` is the requested dimension. A mismatch means the
    spectrum does not separate signal from bulk at the given radius.
    """

    def __init__(self, found: int, expected: int):
        self.found = found
        self.expected = expected
        super().__init__(
            f"found {found} eigenvalues outside the bulk exclusion intervals, expected {expected}"
        )


@dataclass(frozen=True, eq=False)
class HollowedGram:
    """Symmetric n x n co-membership counts with an exactly zero diagonal."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ExpectedGramStructure:
    """Closed-form eigenstructure of the expected hollowed Gram matrix.

    ``signal_eigenvalues`` (descending) are the eigenvalues of
    sqrt(B) Sigma sqrt(B) where Sigma = T T^T - diag(T 1) and B = diag(1/n_r);
    ``signal_basis`` holds the corresponding orthonormal eigenvectors, which
    are constant within classes. Each bulk value -mu_r appears with
    multiplicity n_r - 1.
    """

    signal_eigenvalues: np.ndarray
    signal_basis: np.ndarray
    bulk_values: np.ndarray
    bulk_multiplicities: np.ndarray

    def eigenvalue_multiset(self) -> np.ndarray:
        """All n predicted eigenvalues, sorted ascending."""
        bulk = np.repeat(-self.bulk_values, self.bulk_multiplicities)
        return np.sort(np.concatenate([self.signal_eigenvalues, bulk]))


@dataclass(frozen=True)
class SignalGap:
    """Distance from the signal eigenvalues to the bulk, and the exclusion radius.

    ``delta`` is min_{r,s} |lambda_r + mu_s|; ``b`` is the high-probability
    perturbation radius 7 sqrt(m log(m) k_max k_bar / c_tilde); ``satisfied``
    reports whether delta >= 3 b. That is the condition under which oracle
    selection at radius b is guaranteed to trap exactly the d signal
    eigenvalues, whenever the Gram deviation ||H(RR^T) - E H(RR^T)||_2 is at
    most b.
    """

    delta: float
    b: float
    satisfied: bool
    k_max: int
    k_bar: float
    c_tilde: float


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Selected eigenpairs and the interaction coordinates V S.

    ``u_hat`` (n x d) and ``lambda_hat`` are the selected eigenpairs of the
    hollowed Gram matrix; ``x_hat``, ``s_hat``, ``v_hat`` form the thin SVD of
    u_hat^T R; ``embedding`` holds the rows of v_hat * s_hat. ``gram`` is the
    hollowed Gram matrix the eigenpairs came from and ``spectrum`` all n of
    its eigenvalues, ascending.
    """

    u_hat: np.ndarray
    lambda_hat: np.ndarray
    s_hat: np.ndarray
    v_hat: np.ndarray
    x_hat: np.ndarray
    embedding: np.ndarray
    gram: HollowedGram
    spectrum: np.ndarray


@dataclass(frozen=True, eq=False)
class TheoreticalEmbedding:
    """Thin SVD of the mean matrix; rows of v * s are the noiseless positions."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return self.v * self.s


@dataclass(frozen=True)
class DiagnosticsReport:
    """Alignment and concentration measurements for one sampled instance.

    The aligners are closed-form orthogonal Procrustes minimizers computed
    from the data (``w_star`` aligns the right singular bases, ``w`` aligns
    the scaled embeddings); they replace the analysis-only alignment, and can
    only shrink the reported errors, so upper-bound checks remain valid.
    """

    incidence_error: float
    gram_error: float
    singular_alignment_error: float
    inverse_singular_alignment_error: float
    subspace_row_error: float
    embedding_row_error: float

    def as_metric_rows(self) -> list[tuple[str, float]]:
        return [
            ("norm_R_Gamma", self.incidence_error),
            ("norm_hollow", self.gram_error),
            ("norm_SW", self.singular_alignment_error),
            ("norm_Sinv", self.inverse_singular_alignment_error),
            ("norm_V_2inf", self.subspace_row_error),
            ("norm_VS_2inf", self.embedding_row_error),
        ]


def _fix_column_signs(*mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flip signs so each column of the first matrix has a positive entry of
    largest magnitude (first such entry on ties); companion matrices get the
    same flips so factored products are preserved."""
    lead = mats[0].copy()
    rest = [m.copy() for m in mats[1:]]
    for j in range(lead.shape[1]):
        i = int(np.argmax(np.abs(lead[:, j])))
        if lead[i, j] < 0:
            lead[:, j] = -lead[:, j]
            for m in rest:
                m[:, j] = -m[:, j]
    return (lead, *rest)


def two_to_inf(mat: np.ndarray) -> float:
    """Maximum Euclidean row norm (the 2->infinity operator norm)."""
    if mat.size == 0:
        return 0.0
    return float(np.sqrt((np.asarray(mat) ** 2).sum(axis=1)).max())


def nearest_neighbor_gaps(values: np.ndarray) -> np.ndarray:
    """Distance of each sorted value to its nearest neighbor among the rest."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size < 2:
        return np.zeros_like(v)
    diffs = np.diff(v)
    gaps = np.empty_like(v)
    gaps[0] = diffs[0]
    gaps[-1] = diffs[-1]
    if v.size > 2:
        gaps[1:-1] = np.minimum(diffs[:-1], diffs[1:])
    return gaps


def _as_operand(R) -> sp.sparray | np.ndarray:
    """Sparse incidence input as it is; anything else as a float array."""
    return R if sp.issparse(R) else np.asarray(R, dtype=float)


def hollowed_gram(R: sp.sparray | np.ndarray) -> HollowedGram:
    """Co-membership counts: entry (i, j), i != j, counts interactions holding both.

    The product R R^T is densified when R is sparse, so incidence input gives
    exact int64 counts; a dense array (such as the mean matrix) gives floats.
    """
    R = _as_operand(R)
    gram = R @ R.T
    if sp.issparse(gram):
        gram = gram.toarray()
    np.fill_diagonal(gram, 0)
    return HollowedGram(matrix=gram)


def _signal_core(spec: BlockModelSpec) -> np.ndarray:
    """The d x d matrix sqrt(B) (T T^T - diag(T 1)) sqrt(B)."""
    tmat = spec.type_matrix.astype(float)
    sigma = tmat @ tmat.T - np.diag(tmat.sum(axis=1))
    scale = 1.0 / np.sqrt(spec.class_sizes)
    return sigma * scale[:, None] * scale[None, :]


def bulk_values(spec: BlockModelSpec) -> np.ndarray:
    """mu_r = sum_p tau_rp (tau_rp - 1) / (n_r (n_r - 1)); zero for singleton classes."""
    tmat = spec.type_matrix.astype(float)
    numer = (tmat * (tmat - 1.0)).sum(axis=1)
    sizes = spec.class_sizes.astype(float)
    mu = np.zeros(spec.d)
    big = sizes > 1
    mu[big] = numer[big] / (sizes[big] * (sizes[big] - 1.0))
    return mu


def expected_gram(spec: BlockModelSpec) -> tuple[np.ndarray, ExpectedGramStructure]:
    """Expected hollowed Gram matrix and its closed-form eigenstructure.

    The matrix is the d x d class block (T / n_r)(T / n_r)^T with the bulk
    values mu_r on its diagonal, indexed by the class labels on both sides and
    hollowed: mu_r within class r, sum_p tau_rp tau_sp / (n_r n_s) across.
    """
    core = _signal_core(spec)
    eigvals, eigvecs = np.linalg.eigh(core)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    mu = bulk_values(spec)
    z = spec.z - 1
    ratios = spec.type_matrix / spec.class_sizes[:, None]
    block = ratios @ ratios.T
    np.fill_diagonal(block, mu)
    matrix = block[np.ix_(z, z)]
    np.fill_diagonal(matrix, 0.0)

    # row i of the orthonormal Z sqrt(B) is e_{z_i} / sqrt(n_{z_i})
    basis, = _fix_column_signs((eigvecs * (1.0 / np.sqrt(spec.class_sizes))[:, None])[z])
    structure = ExpectedGramStructure(
        signal_eigenvalues=eigvals,
        signal_basis=basis,
        bulk_values=mu,
        bulk_multiplicities=spec.class_sizes - 1,
    )
    return matrix, structure


def signal_gap(spec: BlockModelSpec, c_tilde: float | None = None) -> SignalGap:
    """Signal strength delta and exclusion radius b for a blockmodel instance.

    ``c_tilde`` defaults to min_r n_r / n, the largest admissible balance
    constant; log is natural.
    """
    balance_cap = spec.class_sizes.min() / spec.n
    if c_tilde is None:
        c_tilde = float(balance_cap)
    if not 0.0 < c_tilde <= balance_cap + 1e-12:
        raise ValueError(f"c_tilde must lie in (0, {balance_cap}], got {c_tilde}")
    eigvals = np.linalg.eigvalsh(_signal_core(spec))
    mu = bulk_values(spec)
    delta = float(np.abs(eigvals[:, None] + mu[None, :]).min())
    sizes = spec.interaction_sizes()
    k_max = int(sizes.max())
    k_bar = float(sizes.mean())
    m = spec.m
    b = 7.0 * math.sqrt(m * math.log(m) * k_max * k_bar / c_tilde)
    return SignalGap(
        delta=delta,
        b=b,
        satisfied=delta >= 3.0 * b,
        k_max=k_max,
        k_bar=k_bar,
        c_tilde=c_tilde,
    )


def select_signal_eigenpairs(
    g: HollowedGram | np.ndarray,
    d: int,
    mode: Literal["oracle", "empirical"] = "empirical",
    *,
    mu: np.ndarray | None = None,
    b: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick d eigenpairs of the hollowed Gram matrix, descending by eigenvalue.

    Oracle mode keeps exactly the eigenvalues outside every interval
    [-mu_r - b, -mu_r + b] and raises :class:`SignalSelectionError` if their
    count differs from d. Exactly d is guaranteed only when the signal gap
    satisfies delta >= 3 b (:attr:`SignalGap.satisfied`) and the Gram
    deviation is at most b; without that the intervals can swallow signal
    eigenvalues or leave bulk ones outside, and the count mismatch raises.
    Empirical mode, for data without ground truth, ranks eigenvalues by their
    distance to the nearest other eigenvalue (bulk values cluster tightly,
    signal values sit isolated) and keeps the d largest-gap ones, breaking
    ties by magnitude.
    """
    matrix = g.matrix if isinstance(g, HollowedGram) else np.asarray(g)
    return _choose_eigenpairs(*np.linalg.eigh(matrix.astype(float)), d, mode, mu, b)


def _choose_eigenpairs(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    d: int,
    mode: str,
    mu: np.ndarray | None,
    b: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The selection rule of :func:`select_signal_eigenpairs` applied to an
    ascending eigendecomposition."""
    n = eigvals.size
    if d < 1 or d > n:
        raise ValueError(f"d must lie in [1, {n}], got {d}")
    if mode == "oracle":
        if mu is None or b is None:
            raise ValueError("oracle mode needs the bulk values mu and a radius b")
        mu = np.asarray(mu, dtype=float)
        outside = np.all(np.abs(eigvals[:, None] + mu[None, :]) > b, axis=1)
        chosen = np.flatnonzero(outside)
        if chosen.size != d:
            raise SignalSelectionError(found=int(chosen.size), expected=d)
    elif mode == "empirical":
        gaps = nearest_neighbor_gaps(eigvals)  # eigvals already ascending
        # rank: wide gap first, then large magnitude, then low position
        order = np.lexsort((np.arange(n), -np.abs(eigvals), -gaps))
        chosen = np.sort(order[:d])
    else:
        raise ValueError(f"unknown selection mode {mode!r}")

    by_value = chosen[np.argsort(eigvals[chosen])[::-1]]
    u_hat, = _fix_column_signs(eigvecs[:, by_value])
    return u_hat, eigvals[by_value]


def embed_interactions(
    R: sp.sparray | np.ndarray,
    d: int,
    mode: Literal["oracle", "empirical"] = "empirical",
    *,
    spec: BlockModelSpec | None = None,
    c_tilde: float | None = None,
    b: float | None = None,
) -> EmbeddingResult:
    """Full pipeline: hollowed Gram, eigenpair selection, thin SVD of U^T R.

    Oracle mode needs ``spec``: the bulk values mu come from its type counts,
    and the radius b, unless given, from its signal gap. The sign
    convention makes each right singular vector's largest-magnitude entry
    positive, so output is deterministic.
    """
    R = _as_operand(R)
    n, m = R.shape
    if d > min(n, m):
        raise ValueError(f"d={d} exceeds min(n, m)={min(n, m)}")
    mu = None
    if mode == "oracle":
        if spec is None:
            raise ValueError("oracle mode needs a spec")
        mu = bulk_values(spec)
        if b is None:
            b = signal_gap(spec, c_tilde).b
    gram = hollowed_gram(R)
    spectrum, eigvecs = np.linalg.eigh(gram.matrix.astype(float))
    u_hat, lambda_hat = _choose_eigenpairs(spectrum, eigvecs, d, mode, mu, b)
    x_hat, s_hat, vt = np.linalg.svd(u_hat.T @ R, full_matrices=False)
    v_hat, x_hat = _fix_column_signs(vt.T, x_hat)
    return EmbeddingResult(
        u_hat=u_hat,
        lambda_hat=lambda_hat,
        s_hat=s_hat,
        v_hat=v_hat,
        x_hat=x_hat,
        embedding=v_hat * s_hat,
        gram=gram,
        spectrum=spectrum,
    )


def theoretical_embedding(spec: BlockModelSpec) -> TheoreticalEmbedding:
    """Thin SVD of the mean matrix via its d x m factor.

    The mean matrix factors as (Z sqrt(B)) (sqrt(B) T) with an orthonormal
    left factor, so only the small factor is decomposed; no dense n x m SVD.
    """
    scale = 1.0 / np.sqrt(spec.class_sizes)
    small = spec.type_matrix * scale[:, None]
    x, s, vt = np.linalg.svd(small, full_matrices=False)
    v, x = _fix_column_signs(vt.T, x)
    return TheoreticalEmbedding(u=(x * scale[:, None])[spec.z - 1], s=s, v=v)


def procrustes_align(a: np.ndarray, b_target: np.ndarray) -> np.ndarray:
    """Orthogonal w minimizing ||a - b_target w||_F, via SVD of b_target^T a."""
    a = np.asarray(a, dtype=float)
    b_target = np.asarray(b_target, dtype=float)
    if a.shape != b_target.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b_target.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b_target).all()):
        raise ValueError("inputs must be finite")
    p, _, qt = np.linalg.svd(b_target.T @ a)
    return p @ qt


def min_type_separation(spec: BlockModelSpec) -> float:
    """Smallest squared distance between distinct noiseless positions.

    For type vectors tau_p != tau_q the squared distance of the corresponding
    rows of V S is sum_r (tau_rp - tau_rq)^2 / n_r; the minimum runs over the
    distinct type vectors present in the instance.
    """
    unique = np.unique(spec.type_matrix.T, axis=0).astype(float)
    if unique.shape[0] < 2:
        return float("inf")
    diffs = unique[:, None, :] - unique[None, :, :]
    sq = (diffs**2 / spec.class_sizes[None, None, :]).sum(axis=2)
    return float(sq[np.triu_indices_from(sq, k=1)].min())


def diagnostics(
    R: sp.sparray | np.ndarray,
    spec: BlockModelSpec,
    embedding: EmbeddingResult,
    theo: TheoreticalEmbedding,
) -> DiagnosticsReport:
    """Concentration and alignment errors of one instance against its truth.

    Spectral norms for the incidence and Gram deviations; Frobenius norms for
    the singular-value intertwinings; maximum row norms for the subspace and
    embedding deviations. Both spectral norms are taken of n x n matrices
    built from the Gram ``embedding`` was computed from and the d x m ratio
    block T / n_r; no n x m array is formed. Alignment matrices are
    Procrustes minimizers (see :class:`DiagnosticsReport`).
    """
    R = _as_operand(R)
    if R.shape != (spec.n, spec.m):
        raise ValueError(f"incidence {R.shape} does not match spec {(spec.n, spec.m)}")
    if embedding.v_hat.shape != theo.v.shape:
        raise ValueError("embedding and theoretical dimensions differ")

    # y is the top eigenvector of (R - Gamma)(R - Gamma)^T, with Gamma =
    # ratios[z]; the norm is that of the m-vector (R - Gamma)^T y, since
    # sqrt(lambda_max) would square before subtracting and lose half the digits
    z = spec.z - 1
    ratios = spec.type_matrix / spec.class_sizes[:, None]
    cross = (R @ ratios.T)[:, z]
    dev = embedding.gram.matrix - cross - cross.T + (ratios @ ratios.T)[np.ix_(z, z)]
    dev[np.diag_indices_from(dev)] += (R.power(2) if sp.issparse(R) else R**2).sum(axis=1)
    y = np.linalg.eigh(dev)[1][:, -1]
    incidence_error = float(np.linalg.norm(R.T @ y - ratios.T @ np.bincount(z, weights=y, minlength=spec.d)))
    expected_matrix, _ = expected_gram(spec)
    gram_error = float(np.linalg.norm(embedding.gram.matrix - expected_matrix, 2))

    w_star = procrustes_align(embedding.v_hat, theo.v)
    w = procrustes_align(embedding.embedding, theo.positions)

    s_mat = np.diag(theo.s)
    s_hat_mat = np.diag(embedding.s_hat)
    singular_alignment_error = float(np.linalg.norm(s_mat @ w - w_star @ s_hat_mat, "fro"))
    if np.any(theo.s <= 0) or np.any(embedding.s_hat <= 0):
        inverse_singular_alignment_error = float("nan")
    else:
        inverse_singular_alignment_error = float(
            np.linalg.norm(np.diag(1.0 / theo.s) @ w - w_star @ np.diag(1.0 / embedding.s_hat), "fro")
        )
    subspace_row_error = two_to_inf(embedding.v_hat - theo.v @ w_star)
    embedding_row_error = two_to_inf(embedding.embedding - theo.positions @ w)
    return DiagnosticsReport(
        incidence_error=incidence_error,
        gram_error=gram_error,
        singular_alignment_error=singular_alignment_error,
        inverse_singular_alignment_error=inverse_singular_alignment_error,
        subspace_row_error=subspace_row_error,
        embedding_row_error=embedding_row_error,
    )
