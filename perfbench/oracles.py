"""Correctness oracles computed without the program's own algorithms.

Every function returns a list of failure messages (empty when the output is
right). They run outside the timed regions.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

# c05's bound for fixed(40, 8991), kept for the linkage workload's smaller m:
# complete linkage recovers the true types
ARI_TRUE_K_MIN = 0.99
REL_TOL = 1e-8


def _close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def complete_linkage(points: np.ndarray, merges, heights: np.ndarray, rtol: float = 1e-12) -> list[str]:
    """The merge history must be a valid complete-linkage dendrogram.

    Replays the merges on the point distance matrix (clusters named by their
    smallest member, as the program names them) and checks at every step that
    the height is the merged clusters' largest pairwise distance and that no
    live cluster was closer to either of them. Heights are nondecreasing, so
    checking the two merged rows covers every pair. Equality with scipy is not
    required: distinct interactions that differ by the same vertices embed at
    exactly equal distances, and under such ties scipy's NN-chain can return
    another valid dendrogram with other heights.
    """
    m = points.shape[0]
    if len(merges) != m - 1 or heights.shape != (m - 1,):
        return [f"{len(merges)} merges and {heights.size} heights for {m} points"]
    dist = cdist(points, points)
    alive = np.ones(m, dtype=bool)
    previous = -np.inf
    for step, ((a, b), h) in enumerate(zip(merges, heights.tolist())):
        if not (0 <= a < b < m and alive[a] and alive[b]):
            return [f"merge {step}: ({a}, {b}) is not a pair of live clusters"]
        tol = rtol * h + 1e-15
        if h < previous - tol:
            return [f"merge {step}: height {h!r} below the previous {previous!r}"]
        if abs(dist[a, b] - h) > tol:
            return [f"merge {step}: height {h!r}, but the clusters are {float(dist[a, b])!r} apart"]
        alive[a] = alive[b] = False
        if alive.any():
            nearest = min(dist[a, alive].min(), dist[b, alive].min())
            if nearest < h - tol:
                return [f"merge {step}: merged at {h!r} while a pair {float(nearest)!r} apart was live"]
        merged = np.maximum(dist[a], dist[b])
        dist[a] = merged
        dist[:, a] = merged
        alive[a] = True
        previous = h
    return []


def incidence(interactions, n: int) -> sp.csr_array:
    """n x m 0/1 incidence built directly from the vertex lists (1-based ids)."""
    sizes = np.fromiter((len(e) for e in interactions), dtype=np.int64, count=len(interactions))
    rows = np.fromiter((v - 1 for e in interactions for v in e), dtype=np.int64, count=int(sizes.sum()))
    cols = np.repeat(np.arange(sizes.size), sizes)
    return sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, sizes.size))


def hollow_gram(R: sp.csr_array) -> np.ndarray:
    gram = (R @ R.T).toarray()
    np.fill_diagonal(gram, 0.0)
    return gram


def spectral_chain(interactions, z, tmat, d, grams, u_hat, lambda_hat, incidence_error, gram_error, delta) -> list[str]:
    """Gram, eigenpairs, diagnostics norms and signal selection of one instance.

    ``z`` (1-based classes) and ``tmat`` (d x m class counts) are the ground
    truth; the expected matrices are built entrywise from them. Diagnostics
    norms are taken from n x n matrices: ||R - Gamma||_2^2 is the top
    eigenvalue of (R - Gamma)(R - Gamma)^T and Gamma = Z diag(1/n_r) T.
    """
    errors = []
    n = z.size
    R = incidence(interactions, n)
    gram = hollow_gram(R)
    for j, g in enumerate(grams):
        if g.shape != gram.shape or not np.array_equal(np.asarray(g, dtype=float), gram):
            errors.append(f"hollowed Gram call {j + 1} differs from R R^T with the diagonal zeroed")

    resid = np.linalg.norm(gram @ u_hat - u_hat * lambda_hat)
    if resid > 1e-8 * np.abs(lambda_hat).max() * math.sqrt(u_hat.shape[1]):
        errors.append(f"selected eigenpairs are not eigenpairs of the Gram matrix (residual {resid:.3g})")

    tmat = np.asarray(tmat, dtype=float)
    sizes = np.bincount(z, minlength=d + 1)[1:].astype(float)
    member = np.zeros((n, d))
    member[np.arange(n), z - 1] = 1.0
    ratios = tmat / sizes[:, None]  # Gamma = member @ ratios
    r_gamma = (R @ ratios.T) @ member.T
    gamma_gamma = member @ (ratios @ ratios.T) @ member.T
    dev = (R @ R.T).toarray() - r_gamma - r_gamma.T + gamma_gamma
    ref_incidence = math.sqrt(max(np.linalg.eigvalsh(dev).max(), 0.0))
    if not _close(incidence_error, ref_incidence, 1e-6):
        errors.append(f"incidence_error {incidence_error!r}, n x n oracle gives {ref_incidence!r}")

    # E[R_ip R_jp] summed over p: tau_rp (tau_rp - 1) / (n_r (n_r - 1)) within
    # class r, tau_rp tau_sp / (n_r n_s) across classes
    within = (tmat * (tmat - 1.0)).sum(axis=1) / (sizes * np.maximum(sizes - 1.0, 1.0))
    across = ratios @ ratios.T
    block = across.copy()
    np.fill_diagonal(block, within)
    expected = block[np.ix_(z - 1, z - 1)]
    np.fill_diagonal(expected, 0.0)
    ref_gram = float(np.abs(np.linalg.eigvalsh(gram - expected)).max())
    if not _close(gram_error, ref_gram, 1e-6):
        errors.append(f"gram_error {gram_error!r}, n x n oracle gives {ref_gram!r}")

    scale = 1.0 / np.sqrt(sizes)
    core = (tmat @ tmat.T - np.diag(tmat.sum(axis=1))) * scale[:, None] * scale[None, :]
    signal = np.linalg.eigvalsh(core)
    ref_delta = float(np.abs(signal[:, None] + within[None, :]).min())
    if not _close(delta, ref_delta):
        errors.append(f"delta {delta!r}, closed form gives {ref_delta!r}")

    # oracle selection: eigenvalues outside every [-mu_r - b, -mu_r + b], b = delta / 3
    eig = np.linalg.eigvalsh(gram)
    outside = eig[np.all(np.abs(eig[:, None] + within[None, :]) > ref_delta / 3.0, axis=1)]
    chosen = np.sort(np.asarray(lambda_hat))[::-1]
    if outside.size != d or not np.allclose(np.sort(outside)[::-1], chosen, rtol=1e-9):
        errors.append(f"empirical selection {chosen} differs from oracle selection at delta/3: {outside}")
    return errors


def embedding_csv(path: Path, m: int, d: int, reference: np.ndarray | None) -> list[str]:
    """The CSV holds m rows 1..m of d finite coordinates that match
    ``reference`` when one is given."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["interaction"] + [f"coord_{j + 1}" for j in range(d)]
    if rows[:1] == [] or rows[0][: d + 1] != header:
        return [f"{path.name}: header {rows[:1]} does not start with {header}"]
    body = rows[1:]
    if len(body) != m:
        return [f"{path.name}: {len(body)} rows, expected {m}"]
    if [int(r[0]) for r in body] != list(range(1, m + 1)):
        return [f"{path.name}: interaction ids are not 1..{m}"]
    coords = np.array([[float(v) for v in r[1 : d + 1]] for r in body])
    if not np.isfinite(coords).all():
        return [f"{path.name}: non-finite coordinates"]
    if reference is not None and not np.allclose(coords, reference, rtol=1e-9, atol=1e-12):
        return [f"{path.name}: coordinates differ from embedding the re-read file"]
    return []


def svg_document(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name} is not XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []
