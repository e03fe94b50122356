import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hyperclust import (
    BlockModelSpec,
    RngStream,
    SignalSelectionError,
    SimulationDesign,
    diagnostics,
    embed_interactions,
    expected_gram,
    generate_design,
    hollowed_gram,
    incidence_matrix,
    mean_matrix,
    min_type_separation,
    procrustes_align,
    sample_hyper_sbm,
    select_signal_eigenpairs,
    signal_gap,
    theoretical_embedding,
    type_matrix,
)
from hyperclust.harness import replicate_stream
from hyperclust.spectral import bulk_values, two_to_inf

from conftest import TOY_LABELS, random_spec


def entrywise_expected_gram(spec):
    """Independent construction of the expected hollowed Gram matrix from the
    per-entry casework: zero diagonal, mu_r within a class, cross-class
    sums of tau_rp tau_sp / (n_r n_s)."""
    n = spec.n
    tmat = spec.type_matrix.astype(float)
    sizes = spec.class_sizes.astype(float)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r, s = spec.z[i] - 1, spec.z[j] - 1
            if r == s:
                out[i, j] = (tmat[r] * (tmat[r] - 1)).sum() / (sizes[r] * (sizes[r] - 1))
            else:
                out[i, j] = (tmat[r] * tmat[s]).sum() / (sizes[r] * sizes[s])
    return out


def power_iteration_norm(mat, iters=3000, seed=0):
    """Spectral norm by power iteration on mat^T mat."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=mat.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ (mat.T @ (mat @ v))))


class TestHollowedGram:
    def test_toy_entries(self, toy_hypergraph):
        g = hollowed_gram(incidence_matrix(toy_hypergraph))
        assert g.matrix[0, 1] == 1  # nodes 1, 2 share only the first interaction
        assert g.matrix[3, 4] == 2  # nodes 4, 5 share the last two
        assert g.matrix.dtype == np.int64

    def test_singletons_give_zero(self):
        from hyperclust import InteractionHypergraph

        h = InteractionHypergraph(4, [[1], [2], [3]])
        assert not hollowed_gram(incidence_matrix(h)).matrix.any()

    def test_full_interaction_gives_all_ones_offdiag(self):
        from hyperclust import InteractionHypergraph

        h = InteractionHypergraph(4, [range(1, 5)])
        expected = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(hollowed_gram(incidence_matrix(h)).matrix, expected)

    def test_symmetric_zero_diagonal(self, toy_hypergraph):
        g = hollowed_gram(incidence_matrix(toy_hypergraph)).matrix
        assert np.array_equal(g, g.T)
        assert not g.diagonal().any()

    def test_dense_path_matches_sparse(self, toy_hypergraph):
        R = incidence_matrix(toy_hypergraph)
        sparse = hollowed_gram(R).matrix
        dense = hollowed_gram(R.toarray()).matrix
        assert np.allclose(sparse, dense)


class TestExpectedGram:
    def test_two_node_single_interaction(self):
        spec = BlockModelSpec(z=np.array([1, 1]), type_matrix=np.array([[2]]))
        matrix, structure = expected_gram(spec)
        assert np.allclose(matrix, [[0, 1], [1, 0]])
        assert structure.bulk_values[0] == pytest.approx(1.0)

    def test_two_class_diagonal_types(self):
        spec = BlockModelSpec(
            z=np.array([1, 1, 2, 2]), type_matrix=np.array([[2, 0], [0, 2]])
        )
        matrix, structure = expected_gram(spec)
        assert np.allclose(structure.bulk_values, [1.0, 1.0])
        assert np.allclose(structure.signal_eigenvalues, [1.0, 1.0])
        assert np.allclose(matrix[:2, 2:], 0)

    def test_singleton_class_has_zero_bulk_weight(self):
        spec = BlockModelSpec(z=np.array([1, 1, 2]), type_matrix=np.array([[2], [1]]))
        mu = bulk_values(spec)
        assert np.isfinite(mu).all()
        assert mu[1] == 0.0
        assert spec.class_sizes[1] - 1 == 0

    def test_matches_entrywise_casework(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            spec = random_spec(rng)
            matrix, _ = expected_gram(spec)
            assert np.allclose(matrix, entrywise_expected_gram(spec), atol=1e-12)

    def test_eigenstructure_matches_dense_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = random_spec(rng)
            matrix, structure = expected_gram(spec)
            dense = np.sort(np.linalg.eigvalsh(matrix))
            assert np.allclose(dense, structure.eigenvalue_multiset(), atol=1e-9)

    def test_signal_basis_is_orthonormal_eigenbasis(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng)
        matrix, structure = expected_gram(spec)
        basis = structure.signal_basis
        assert np.allclose(basis.T @ basis, np.eye(spec.d), atol=1e-10)
        assert np.allclose(
            matrix @ basis, basis * structure.signal_eigenvalues, atol=1e-9
        )


class TestSignalGap:
    def test_alpha_mixture_fixture(self):
        # d=2, n=12, k=3, alpha=1/3: three pure interactions per class of size
        # k and three mixed with k nodes from each class
        k, n, m = 3, 12, 9
        cols = [[k, 0]] * 3 + [[0, k]] * 3 + [[k, k]] * 3
        spec = BlockModelSpec(
            z=np.repeat([1, 2], 6), type_matrix=np.array(cols).T
        )
        _, structure = expected_gram(spec)
        alpha = 1 / 3
        lam = (2 * m / n) * np.array(
            [
                (2 - 3 * alpha) * k**2 - (1 - alpha) * k,
                alpha * k**2 - (1 - alpha) * k,
            ]
        )
        assert np.allclose(structure.signal_eigenvalues, sorted(lam, reverse=True), atol=1e-9)
        # both bulk weights equal 4 (1-alpha) m k (k-1) / (n (n-2))
        mu = 4 * (1 - alpha) * m * k * (k - 1) / (n * (n - 2))
        assert np.allclose(structure.bulk_values, [mu, mu], atol=1e-9)

    def test_two_to_one_mixture_fixture(self):
        # d=2, n=12, k=2: all interactions have 3k nodes, half with (2k, k)
        # and half with (k, 2k)
        k, n, m = 2, 12, 10
        cols = [[2 * k, k]] * 5 + [[k, 2 * k]] * 5
        spec = BlockModelSpec(z=np.repeat([1, 2], 6), type_matrix=np.array(cols).T)
        _, structure = expected_gram(spec)
        lam = (m / n) * np.array([3 * k * (3 * k - 1), k * (k - 3)])
        assert np.allclose(structure.signal_eigenvalues, lam, atol=1e-9)
        mu = 2 * m * (5 * k**2 - 3 * k) / (n * (n - 2))
        assert np.allclose(structure.bulk_values, [mu, mu], atol=1e-9)
        # squared singular-value ratio of the mean matrix is exactly 9
        theo = theoretical_embedding(spec)
        assert (theo.s[0] / theo.s[1]) ** 2 == pytest.approx(9.0, abs=1e-9)
        # removing the per-class size totals connects the squared singular
        # values to the hollowed-Gram signal eigenvalues
        shift = spec.type_matrix.sum(axis=1)[0] / spec.class_sizes[0]
        assert np.allclose(theo.s**2 - shift, structure.signal_eigenvalues, atol=1e-9)

    def test_delta_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_spec(rng)
            gap = signal_gap(spec)
            _, structure = expected_gram(spec)
            brute = min(
                abs(lam + mu)
                for lam in structure.signal_eigenvalues
                for mu in structure.bulk_values
            )
            assert gap.delta == pytest.approx(brute, abs=1e-12)

    def test_radius_formula(self):
        spec = BlockModelSpec(
            z=np.array([1, 1, 2, 2]), type_matrix=np.array([[2, 0, 1], [0, 2, 1]])
        )
        gap = signal_gap(spec, c_tilde=0.5)
        sizes = spec.interaction_sizes()
        expected = 7 * np.sqrt(3 * np.log(3) * sizes.max() * sizes.mean() / 0.5)
        assert gap.b == pytest.approx(expected)
        assert gap.k_max == 2 and gap.k_bar == pytest.approx(2.0)

    def test_c_tilde_validation(self):
        spec = BlockModelSpec(z=np.array([1, 1, 2, 2]), type_matrix=np.array([[1], [1]]))
        with pytest.raises(ValueError):
            signal_gap(spec, c_tilde=0.9)
        with pytest.raises(ValueError):
            signal_gap(spec, c_tilde=0.0)


def growing_cell(seed, n=10, m=999):
    design = SimulationDesign(n=n, m=m, regime="growing", seed=seed)
    return design, *generate_design(design, RngStream(seed))


class TestSelection:
    def test_noiseless_trapping(self):
        _, spec, _ = growing_cell(0, n=10, m=99)
        matrix, structure = expected_gram(spec)
        gap = signal_gap(spec)
        u, lam = select_signal_eigenpairs(
            matrix, spec.d, "oracle", mu=structure.bulk_values, b=0.5 * gap.delta
        )
        assert np.allclose(lam, structure.signal_eigenvalues, atol=1e-9)
        assert np.allclose(u.T @ u, np.eye(spec.d), atol=1e-10)

    def test_matches_exhaustive_interval_filter(self):
        spec = BlockModelSpec(
            z=np.array([1, 1, 2, 2]), type_matrix=np.array([[2, 0, 1], [0, 2, 1]])
        )
        matrix, structure = expected_gram(spec)
        mu = structure.bulk_values
        b = 0.25 * signal_gap(spec).delta
        eigvals = np.linalg.eigvalsh(matrix)
        outside = [
            v for v in eigvals if all(abs(v + mu_r) > b for mu_r in mu)
        ]
        _, lam = select_signal_eigenpairs(matrix, len(outside), "oracle", mu=mu, b=b)
        assert np.allclose(sorted(lam), sorted(outside), atol=1e-12)

    def test_selection_error_carries_found_count(self):
        _, spec, h = growing_cell(1)
        g = hollowed_gram(incidence_matrix(h))
        with pytest.raises(SignalSelectionError) as info:
            select_signal_eigenpairs(g, 2, "oracle", mu=bulk_values(spec), b=1e9)
        assert info.value.found == 0
        assert info.value.expected == 2

    def test_eigenvalue_deviation_within_radius(self):
        # sorted spectra of sampled and expected hollowed Gram matrices stay
        # within the exclusion radius b; checked over 10 seeds
        for seed in range(10):
            _, spec, h = growing_cell(seed)
            observed = np.linalg.eigvalsh(
                hollowed_gram(incidence_matrix(h)).matrix.astype(float)
            )
            matrix, _ = expected_gram(spec)
            expected = np.linalg.eigvalsh(matrix)
            deviation = np.abs(observed - expected).max()
            assert deviation <= signal_gap(spec).b

    def test_trapping_with_valid_radius_on_sampled_data(self):
        # with any radius between the actual perturbation and the signal gap,
        # selection returns exactly d eigenvalues near the expected signal
        for seed in range(10):
            _, spec, h = growing_cell(seed)
            g = hollowed_gram(incidence_matrix(h))
            _, structure = expected_gram(spec)
            radius = signal_gap(spec).delta / 3
            u, lam = select_signal_eigenpairs(
                g, 2, "oracle", mu=structure.bulk_values, b=radius
            )
            assert np.abs(np.sort(lam) - np.sort(structure.signal_eigenvalues)).max() <= radius

    def test_trapping_at_formula_radius_when_condition_holds(self):
        # a regime where the signal condition delta >= 3b genuinely holds:
        # one class of 100 nodes, 6000 interactions of size 99 (each omits one
        # uniformly random node), so the signal eigenvalue sits near 5.8e5
        # while 3b is about 4.8e5
        n, m, size = 100, 6000, 99
        spec = BlockModelSpec(z=np.ones(n, dtype=int), type_matrix=np.full((1, m), size))
        gap = signal_gap(spec)
        assert gap.satisfied, (gap.delta, 3 * gap.b)
        h = sample_hyper_sbm(spec, np.random.default_rng(55))
        g = hollowed_gram(incidence_matrix(h))
        _, structure = expected_gram(spec)
        u, lam = select_signal_eigenpairs(
            g, 1, "oracle", mu=structure.bulk_values, b=gap.b
        )
        assert abs(lam[0] - structure.signal_eigenvalues[0]) <= gap.b

    def test_empirical_agrees_with_oracle_on_strong_signal(self):
        _, spec, h = growing_cell(2)
        g = hollowed_gram(incidence_matrix(h))
        _, structure = expected_gram(spec)
        u_emp, lam_emp = select_signal_eigenpairs(g, 2, "empirical")
        u_orc, lam_orc = select_signal_eigenpairs(
            g, 2, "oracle", mu=structure.bulk_values, b=signal_gap(spec).delta / 3
        )
        assert np.allclose(lam_emp, lam_orc)
        assert np.allclose(u_emp, u_orc)

    def test_mode_and_argument_validation(self, toy_hypergraph):
        g = hollowed_gram(incidence_matrix(toy_hypergraph))
        with pytest.raises(ValueError, match="mode"):
            select_signal_eigenpairs(g, 2, "bogus")
        with pytest.raises(ValueError, match="oracle"):
            select_signal_eigenpairs(g, 2, "oracle")
        with pytest.raises(ValueError, match="d must lie"):
            select_signal_eigenpairs(g, 99)


class TestEmbedding:
    def test_noiseless_rows_collapse_and_align(self):
        _, spec, _ = growing_cell(3, n=10, m=99)
        gamma = mean_matrix(spec)
        emb = embed_interactions(gamma, 2)
        theo = theoretical_embedding(spec)
        w = procrustes_align(emb.embedding, theo.positions)
        assert two_to_inf(emb.embedding - theo.positions @ w) <= 1e-9
        # equal type vectors embed to identical rows
        _, codes = np.unique(spec.type_matrix.T, axis=0, return_inverse=True)
        for c in np.unique(codes):
            rows = emb.embedding[codes == c]
            assert np.abs(rows - rows[0]).max() <= 1e-10

    def test_svd_residual_and_orthogonality(self):
        _, spec, h = growing_cell(4)
        R = incidence_matrix(h)
        emb = embed_interactions(R, 2)
        dense = R.toarray()
        residual = emb.u_hat.T @ dense - emb.x_hat @ np.diag(emb.s_hat) @ emb.v_hat.T
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(dense)
        assert np.allclose(emb.u_hat.T @ emb.u_hat, np.eye(2), atol=1e-10)
        assert np.allclose(emb.v_hat.T @ emb.v_hat, np.eye(2), atol=1e-10)
        assert np.all(emb.s_hat[:-1] >= emb.s_hat[1:]) and np.all(emb.s_hat >= 0)
        assert np.allclose(emb.embedding, emb.v_hat * emb.s_hat)

    def test_sparse_and_dense_inputs_agree(self):
        _, spec, h = growing_cell(5, n=10, m=99)
        R = incidence_matrix(h)
        a = embed_interactions(R, 2)
        b = embed_interactions(R.toarray(), 2)
        assert np.allclose(a.embedding, b.embedding, atol=1e-10)

    def test_oracle_mode_from_spec(self):
        _, spec, h = growing_cell(6)
        R = incidence_matrix(h)
        # the default formula radius is too wide at this scale and must
        # report the miscount; an explicit valid radius succeeds
        with pytest.raises(SignalSelectionError):
            embed_interactions(R, 2, "oracle", spec=spec)
        emb = embed_interactions(
            R, 2, "oracle", spec=spec, b=signal_gap(spec).delta / 3
        )
        assert emb.embedding.shape == (999, 2)

    def test_oracle_mode_needs_a_spec(self, toy_hypergraph):
        with pytest.raises(ValueError, match="oracle mode needs a spec"):
            embed_interactions(incidence_matrix(toy_hypergraph), 2, "oracle", b=1.0)

    def test_dimension_validation(self, toy_hypergraph):
        with pytest.raises(ValueError, match="exceeds"):
            embed_interactions(incidence_matrix(toy_hypergraph), 5)


class TestTheoreticalEmbedding:
    def test_reconstructs_mean_matrix(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            spec = random_spec(rng)
            theo = theoretical_embedding(spec)
            gamma = mean_matrix(spec)
            assert np.allclose(theo.u @ np.diag(theo.s) @ theo.v.T, gamma, atol=1e-9)

    def test_singular_values_match_dense_svd(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            spec = random_spec(rng)
            dense = np.linalg.svd(mean_matrix(spec), compute_uv=False)
            theo = theoretical_embedding(spec)
            assert np.allclose(np.sort(theo.s), np.sort(dense[: spec.d]), atol=1e-9)

    def test_equal_type_columns_collapse(self):
        spec = BlockModelSpec(
            z=np.array([1, 1, 2, 2]), type_matrix=np.array([[2, 2, 1], [0, 0, 2]])
        )
        positions = theoretical_embedding(spec).positions
        assert np.abs(positions[0] - positions[1]).max() <= 1e-12

    def test_squared_distance_identity(self):
        # squared distances between noiseless rows equal the per-class
        # normalized squared count differences
        rng = np.random.default_rng(16)
        for _ in range(10):
            spec = random_spec(rng)
            positions = theoretical_embedding(spec).positions
            tmat = spec.type_matrix.astype(float)
            for p in range(min(spec.m, 6)):
                for q in range(min(spec.m, 6)):
                    formula = ((tmat[:, p] - tmat[:, q]) ** 2 / spec.class_sizes).sum()
                    observed = ((positions[p] - positions[q]) ** 2).sum()
                    assert observed == pytest.approx(formula, abs=1e-10)

    def test_separation_lower_bound_on_designs(self):
        # distinct types are separated by at least 1/(c_tilde n) in squared
        # distance for the benchmark designs
        for seed, regime in ((0, "growing"), (1, "fixed")):
            design = SimulationDesign(n=10, m=99, regime=regime, seed=seed)
            spec, _ = generate_design(design)
            assert min_type_separation(spec) >= (1 - 1e-12) / (0.5 * spec.n)

    def test_min_separation_matches_position_brute_force(self):
        design = SimulationDesign(n=10, m=99, regime="fixed", seed=2)
        spec, _ = generate_design(design)
        positions = theoretical_embedding(spec).positions
        _, codes = np.unique(spec.type_matrix.T, axis=0, return_inverse=True)
        best = np.inf
        for p in range(spec.m):
            for q in range(p + 1, spec.m):
                if codes[p] != codes[q]:
                    best = min(best, ((positions[p] - positions[q]) ** 2).sum())
        assert min_type_separation(spec) == pytest.approx(best, abs=1e-9)


class TestProcrustes:
    def test_identity(self):
        a = np.random.default_rng(17).normal(size=(6, 3))
        assert np.allclose(procrustes_align(a, a), np.eye(3), atol=1e-12)

    def test_recovers_exact_rotation(self):
        rng = np.random.default_rng(18)
        base = rng.normal(size=(8, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w = procrustes_align(base @ q, base)
        assert np.allclose(w, q, atol=1e-10)
        assert np.linalg.norm(base @ q - base @ w) <= 1e-10

    def test_orthogonality(self):
        rng = np.random.default_rng(19)
        w = procrustes_align(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        assert np.allclose(w.T @ w, np.eye(2), atol=1e-12)

    def test_beats_random_search(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2))
        best = np.linalg.norm(a - b @ procrustes_align(a, b))
        for _ in range(10_000):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            assert best <= np.linalg.norm(a - b @ q) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))


class TestDiagnostics:
    def test_noiseless_instance_measures_zero(self):
        _, spec, _ = growing_cell(7, n=10, m=99)
        gamma = mean_matrix(spec)
        emb = embed_interactions(gamma, 2)
        theo = theoretical_embedding(spec)
        report = diagnostics(gamma, spec, emb, theo)
        assert report.incidence_error <= 1e-10
        assert report.singular_alignment_error <= 1e-9
        assert report.inverse_singular_alignment_error <= 1e-9
        assert report.subspace_row_error <= 1e-10
        assert report.embedding_row_error <= 1e-9
        # the Gram deviation is the one diagnostic that cannot vanish at the
        # mean matrix: the expectation of RR^T carries within-interaction
        # covariance that the squared mean lacks, so the residual equals that
        # correction exactly
        from hyperclust import expected_gram, hollowed_gram

        expected_matrix, _ = expected_gram(spec)
        correction = np.linalg.norm(hollowed_gram(gamma).matrix - expected_matrix, 2)
        assert report.gram_error == pytest.approx(correction, abs=1e-9)

    def test_spectral_norms_match_power_iteration(self):
        _, spec, h = growing_cell(8, n=40, m=999)
        dense = incidence_matrix(h).toarray()
        gamma = mean_matrix(spec)
        direct = np.linalg.norm(dense - gamma, 2)
        iterated = power_iteration_norm(dense - gamma)
        assert abs(direct - iterated) <= 1e-8 * max(1.0, direct)

    def test_incidence_error_matches_dense_norm(self):
        cases = []
        for regime in ("growing", "fixed"):
            for n in (10, 20):
                design = SimulationDesign(n=n, m=999, regime=regime, seed=0)
                spec, h = generate_design(design, replicate_stream(regime, n, 999, 0, 0))
                cases.append((spec, incidence_matrix(h)))
        rng = np.random.default_rng(24)
        while len(cases) < 12:
            spec = random_spec(rng, d_max=5, m_max=40)
            if spec.d > 2 and spec.m >= spec.d:
                cases.append((spec, incidence_matrix(sample_hyper_sbm(spec, rng))))
        # dense input with entries other than 0 and 1
        cases += [(spec, rng.random((spec.n, spec.m))) for spec, _ in cases[-2:]]
        for spec, R in cases:
            emb = embed_interactions(R, spec.d)
            report = diagnostics(R, spec, emb, theoretical_embedding(spec))
            dense = R.toarray() if sp.issparse(R) else R
            direct = np.linalg.norm(dense - mean_matrix(spec), 2)
            assert report.incidence_error == pytest.approx(direct, rel=1e-12)

    def test_no_dense_incidence_sized_allocation(self):
        n, m = 80, 8991
        design = SimulationDesign(n=n, m=m, regime="fixed", seed=0)
        spec, h = generate_design(design, replicate_stream("fixed", n, m, 0, 0))
        R = incidence_matrix(h)
        emb = embed_interactions(R, design.d)
        theo = theoretical_embedding(spec)
        tracemalloc.start()
        try:
            diagnostics(R, spec, emb, theo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8

    def test_report_rows_and_alignment_note(self):
        _, spec, h = growing_cell(9, n=10, m=99)
        R = incidence_matrix(h)
        emb = embed_interactions(R, 2)
        report = diagnostics(R, spec, emb, theoretical_embedding(spec))
        names = [name for name, _ in report.as_metric_rows()]
        assert names == [
            "norm_R_Gamma",
            "norm_hollow",
            "norm_SW",
            "norm_Sinv",
            "norm_V_2inf",
            "norm_VS_2inf",
        ]

    def test_dimension_mismatch_rejected(self, toy_hypergraph):
        spec = type_matrix(toy_hypergraph, TOY_LABELS)
        other = BlockModelSpec(z=np.array([1, 2]), type_matrix=np.array([[1], [1]]))
        R = incidence_matrix(toy_hypergraph)
        emb = embed_interactions(R, 2)
        theo = theoretical_embedding(spec)
        with pytest.raises(ValueError):
            diagnostics(R, other, emb, theo)


class TestIdenticalActions:
    def test_row_space_projection_annihilates_noise(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            spec = random_spec(rng)
            h = sample_hyper_sbm(spec, rng)
            dense = incidence_matrix(h).toarray()
            gamma = mean_matrix(spec)
            u = theoretical_embedding(spec).u
            assert np.linalg.norm(u.T @ (dense - gamma)) <= 1e-9 * np.linalg.norm(dense)
