"""Acceptance suite: one check per criterion, each printing a pass/fail line.

Heavy shared computations (the score-table cells) run once per session. Every
tolerance is pinned here; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from hyperclust import (
    BlockModelSpec,
    RngStream,
    SimulationDesign,
    adjusted_rand_index,
    diagnostics,
    draw_weighted_sequence,
    embed_interactions,
    expected_gram,
    generate_design,
    hollowed_gram,
    incidence_matrix,
    mean_matrix,
    min_type_separation,
    sample_hyper_sbm,
    select_signal_eigenpairs,
    signal_gap,
    theoretical_embedding,
)
from hyperclust.harness import ExperimentGrid, replicate_stream, run_cell, run_grid
from hyperclust.spectral import SignalSelectionError

from conftest import random_spec
from test_cluster import direct_ari, naive_complete_linkage
from test_spectral import entrywise_expected_gram


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


def test_c01_expected_gram_eigenstructure_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        spec = random_spec(rng, n_max=30, d_max=3, m_max=20)
        dense = np.sort(np.linalg.eigvalsh(entrywise_expected_gram(spec)))
        _, structure = expected_gram(spec)
        worst = max(worst, float(np.abs(dense - structure.eigenvalue_multiset()).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10
    assert _report(1, "eigenstructure oracle", ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_c02_expected_incidence_monte_carlo():
    started = time.perf_counter()
    z = np.repeat([1, 2], 5)
    tmat = np.array([[2, 0, 5, 1, 3, 5], [1, 3, 0, 1, 2, 5]])
    spec = BlockModelSpec(z=z, type_matrix=tmat)
    gamma = mean_matrix(spec)
    rng = np.random.default_rng(202)
    draws = 20_000
    total = np.zeros_like(gamma)
    for _ in range(draws):
        h = sample_hyper_sbm(spec, rng)
        for p, e in enumerate(h.interactions):
            total[np.array(e) - 1, p] += 1
    mean = total / draws
    se = np.sqrt(gamma * (1 - gamma) / draws)
    deviation = np.abs(mean - gamma)
    ok_entries = deviation <= 3 * se + 1e-15  # exact where the law is degenerate
    elapsed = time.perf_counter() - started
    ok = bool(ok_entries.all()) and elapsed < 20
    worst = float((deviation - 3 * se).max())
    assert _report(2, "incidence mean Monte Carlo", ok, f"max excess {worst:.2e}, {elapsed:.1f}s")


def test_c03_weighted_sampler_second_draw():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    trials = 100_000
    hits = sum(draw_weighted_sequence([1.0, 2.0, 3.0], 2, rng)[1] == 2 for _ in range(trials))
    p_hat = hits / trials
    p = 7 / 20
    sigma = np.sqrt(p * (1 - p) / trials)
    elapsed = time.perf_counter() - started
    ok = abs(p_hat - p) <= 3 * sigma and elapsed < 5
    assert _report(3, "weighted second-draw marginal", ok, f"{p_hat:.4f} vs {p} (3 sigma {3*sigma:.4f}), {elapsed:.1f}s")


def _trapping_instance(spec, h, hypothesis: bool):
    """Oracle selection at the formula radius b on one instance.

    Asserts that the signal-gap hypothesis delta >= 3b holds exactly when
    ``hypothesis`` says it does, before selecting. Returns delta / 3b,
    ||H(RR^T) - E H(RR^T)||_2 / b, the number of eigenvalues selection found,
    and whether it trapped d eigenvalues each within b of its expected value.
    """
    gap = signal_gap(spec)
    assert gap.satisfied is hypothesis, f"delta {gap.delta:.1f} vs 3b {3 * gap.b:.1f}"
    expected, structure = expected_gram(spec)
    gram = hollowed_gram(incidence_matrix(h))
    noise = float(np.linalg.norm(gram.matrix - expected, 2))
    ratios = (gap.delta / (3 * gap.b), noise / gap.b)
    try:
        _, lam = select_signal_eigenpairs(gram, spec.d, "oracle", mu=structure.bulk_values, b=gap.b)
    except SignalSelectionError as err:
        return (*ratios, err.found, False)
    deviation = np.abs(np.sort(lam) - np.sort(structure.signal_eigenvalues)).max()
    close = lam.size == spec.d and deviation <= gap.b
    return (*ratios, lam.size, bool(close))


def _pinned_two_class_model() -> BlockModelSpec:
    """Two classes of 10 nodes; 60000 interactions of 9 nodes, the first half
    inside class 1 and the second half inside class 2. Here delta / 3b = 1.105."""
    m = 60_000
    tmat = np.zeros((2, m), dtype=int)
    tmat[0, : m // 2] = 9
    tmat[1, m // 2 :] = 9
    return BlockModelSpec(z=np.repeat([1, 2], 10), type_matrix=tmat)


def test_c04_eigenvalue_trapping_at_formula_radius():
    # Oracle selection uses the bulk exclusion radius b of the concentration
    # bound, with its explicit constant and the default c_tilde. Trapping is
    # promised only where delta >= 3b. (a) At the benchmark cell growing(10, 999)
    # that hypothesis fails (delta / 3b ~ 0.06): the bound ||G - EG|| <= b
    # still holds, and the exclusion intervals cover the spectrum, so selection
    # must report a count mismatch. (b) On a pinned model where the hypothesis
    # holds, selection must trap exactly d eigenvalues, each within b.
    started = time.perf_counter()
    cell = []
    for seed in range(20):
        design = SimulationDesign(n=10, m=999, regime="growing", seed=seed)
        spec, h = generate_design(design, RngStream(seed, (4,)))
        cell.append(_trapping_instance(spec, h, hypothesis=False))
    cell_ok = all(noise <= 1 and found != 2 for _, noise, found, _ in cell)
    spec = _pinned_two_class_model()
    pinned = [
        _trapping_instance(spec, sample_hyper_sbm(spec, RngStream(seed, (4, 2)).generator()), hypothesis=True)
        for seed in range(20)
    ]
    elapsed = time.perf_counter() - started
    ok = cell_ok and sum(t for *_, t in pinned) >= 19 and elapsed < 120

    def worst(label, part):
        return (
            f"{label}: min delta/3b {min(r for r, *_ in part):.3f}, "
            f"max |G-EG|/b {max(e for _, e, *_ in part):.4f}, "
            f"{sum(t for *_, t in part)}/20 trapped"
        )

    assert _report(
        4,
        "eigenvalue trapping",
        ok,
        f"{worst('growing(10, 999)', cell)}; {worst('pinned two-class', pinned)}; {elapsed:.1f}s",
    )


CRITERION5_CELLS = {
    ("growing", 10, 999): ("mean >=", 0.99),
    ("growing", 20, 999): ("mean >=", 0.99),
    ("growing", 40, 999): ("mean >=", 0.97),
    ("fixed", 10, 999): ("mean >=", 0.99),
    ("fixed", 40, 8991): ("mean >=", 0.99),
    ("fixed", 80, 999): ("band", (0.595, 0.895)),
}


@pytest.fixture(scope="module")
def score_table_cells():
    """Ten replicates of every criterion-5 cell, with the per-instance
    minimum squared type separation recomputed for the recovery check."""
    results = {}
    for (regime, n, m) in CRITERION5_CELLS:
        cell = []
        for rep in range(10):
            outcome = run_cell(regime, n, m, rep, master_seed=0)
            design = SimulationDesign(n=n, m=m, regime=regime, seed=0)
            spec, _ = generate_design(design, replicate_stream(regime, n, m, rep, 0))
            cell.append((outcome, min_type_separation(spec)))
        results[(regime, n, m)] = cell
    return results


def test_c05_score_table_reproduction(score_table_cells):
    started = time.perf_counter()
    failures = []
    details = []
    for key, (kind, bound) in CRITERION5_CELLS.items():
        values = [outcome.ari_true_k for outcome, _ in score_table_cells[key]]
        mean = float(np.mean(values))
        regime, n, m = key
        details.append(f"{regime[0]}({n},{m})={mean:.3f}")
        if kind == "mean >=":
            if mean < bound:
                failures.append(f"{key}: {mean:.3f} < {bound}")
        else:
            lo, hi = bound
            if not lo <= mean <= hi:
                failures.append(f"{key}: {mean:.3f} outside [{lo}, {hi}]")
    elapsed = time.perf_counter() - started
    ok = not failures
    assert _report(5, "score table", ok, "; ".join(details + failures) + f", {elapsed:.0f}s")


def test_c06_convergence_trend():
    started = time.perf_counter()
    m_values = (999, 2997, 8991)
    means = []
    for m in m_values:
        errors = []
        for rep in range(10):
            design = SimulationDesign(n=20, m=m, regime="fixed", seed=0)
            stream = RngStream(0, (6, 20, m, rep))
            spec, h = generate_design(design, stream)
            R = incidence_matrix(h)
            emb = embed_interactions(R, 2)
            report = diagnostics(R, spec, emb, theoretical_embedding(spec))
            errors.append(report.embedding_row_error)
        means.append(float(np.mean(errors)))
    decreasing = means[0] > means[1] > means[2]
    slope = float(np.polyfit(np.log(m_values), np.log(means), 1)[0])
    elapsed = time.perf_counter() - started
    ok = decreasing and slope <= -0.3 and elapsed < 900
    assert _report(
        6,
        "convergence trend",
        ok,
        f"means {', '.join(f'{v:.4f}' for v in means)}; slope {slope:.3f}, {elapsed:.0f}s",
    )


def test_c07_perfect_clustering_on_low_noise_replicates(score_table_cells):
    checked = violations = 0
    for cell in score_table_cells.values():
        for outcome, separation in cell:
            if 2 * outcome.norm_VS_2inf < 0.8 * separation:
                checked += 1
                if outcome.ari_true_k != 1.0:
                    violations += 1
    ok = violations == 0 and checked > 0
    assert _report(
        7, "perfect clustering", ok, f"{checked} replicates under the threshold, {violations} violations"
    )


def test_c08_complete_linkage_matches_naive_oracle():
    from hyperclust import complete_linkage

    started = time.perf_counter()
    rng = np.random.default_rng(808)
    mismatches = 0
    for trial in range(500):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(m, d))
        if trial % 7 == 0 and m >= 3:
            pts[-1] = pts[0]  # exercise the tie rule
        dend = complete_linkage(pts)
        merges, heights = naive_complete_linkage(pts)
        if list(dend.merges) != merges or not np.allclose(dend.heights, heights, atol=1e-12):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10
    assert _report(8, "linkage oracle", ok, f"{mismatches} mismatches in 500, {elapsed:.1f}s")


def test_c09_ari_against_direct_formula():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 51))
        a = rng.integers(0, 6, size=n)
        b = rng.integers(0, 6, size=n)
        worst = max(worst, abs(adjusted_rand_index(a, b) - direct_ari(list(a), list(b))))
    crossed = adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1])
    ok = worst <= 1e-12 and crossed == pytest.approx(-0.5, abs=1e-12)
    assert _report(9, "ARI formula", ok, f"max dev {worst:.2e}; crossed case {crossed:.3f}")


def test_c10_row_space_projection_annihilates_noise():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng)
        h = sample_hyper_sbm(spec, rng)
        dense = incidence_matrix(h).toarray()
        gamma = mean_matrix(spec)
        u = theoretical_embedding(spec).u
        ratio = np.linalg.norm(u.T @ (dense - gamma)) / np.linalg.norm(dense)
        worst = max(worst, float(ratio))
    ok = worst <= 1e-9
    assert _report(10, "identical actions", ok, f"max ratio {worst:.2e}")


def test_c11_grid_determinism_across_thread_counts(tmp_path):
    grid = ExperimentGrid(
        regime="growing", m_values=(999,), n_values=(10,), replicates=3, seed=42
    )
    a = tmp_path / "threads1.csv"
    b = tmp_path / "threads4.csv"
    run_grid(grid, threads=1, csv_path=a)
    run_grid(grid, threads=4, csv_path=b)
    ok = a.read_bytes() == b.read_bytes()
    assert _report(11, "grid determinism", ok, f"{a.stat().st_size} bytes each")
