import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hyperclust import (
    BlockModelSpec,
    RngStream,
    SimulationDesign,
    draw_weighted_sequence,
    generate_design,
    sample_hyper_sbm,
    sample_weighted_without_replacement,
    sampling,
    type_matrix,
    write_interactions,
)
from hyperclust.harness import replicate_stream


class TestRngStream:
    def test_same_seed_and_key_reproduce(self):
        a = RngStream(7, (1, 2)).generator().random(5)
        b = RngStream(7, (1, 2)).generator().random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = RngStream(7, (1,)).generator().random(5)
        b = RngStream(7, (2,)).generator().random(5)
        assert not np.array_equal(a, b)

    def test_child_extends_key(self):
        assert RngStream(7, (1,)).child(2, 3).key == (1, 2, 3)


def exact_pair_probabilities(weights):
    """Enumerate ordered two-draw sequences; return unordered pair masses."""
    total = sum(weights)
    mass = {}
    for i, j in itertools.permutations(range(len(weights)), 2):
        p = (weights[i] / total) * (weights[j] / (total - weights[i]))
        key = frozenset((i, j))
        mass[key] = mass.get(key, 0.0) + p
    return mass


class TestWeightedSampler:
    def test_exhaustive_draw_returns_support(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_weighted_without_replacement([1, 1, 1], 3, rng) == frozenset({0, 1, 2})

    def test_zero_weight_candidates_never_drawn(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            got = sample_weighted_without_replacement([1.0, 0.0, 2.0, 0.0], 2, rng)
            assert got == {0, 2}

    def test_errors(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="cannot draw"):
            draw_weighted_sequence([1.0, 0.0], 2, rng)
        with pytest.raises(ValueError, match="cannot draw"):
            draw_weighted_sequence([0.0, 0.0], 1, rng)
        with pytest.raises(ValueError, match="nonnegative"):
            draw_weighted_sequence([1.0, -1.0], 1, rng)
        with pytest.raises(ValueError, match="finite"):
            draw_weighted_sequence([1.0, np.inf], 1, rng)

    def test_zero_draws(self):
        rng = np.random.default_rng(9)
        assert sample_weighted_without_replacement([1.0, 2.0], 0, rng) == frozenset()

    def test_exhaustive_draw_ignores_zero_weights(self):
        rng = np.random.default_rng(10)
        assert sample_weighted_without_replacement([0.5, 0.0, 0.5], 2, rng) == {0, 2}

    def test_pair_distribution_matches_enumeration(self):
        # weights (1,2,3), k=2: unordered pair masses from the two-step product
        weights = [1.0, 2.0, 3.0]
        exact = exact_pair_probabilities(weights)
        rng = np.random.default_rng(3)
        trials = 30_000
        counts = {key: 0 for key in exact}
        for _ in range(trials):
            counts[sample_weighted_without_replacement(weights, 2, rng)] += 1
        for key, p in exact.items():
            se = np.sqrt(p * (1 - p) / trials)
            assert abs(counts[key] / trials - p) <= 3 * se, key

    def test_second_draw_marginal_mini(self):
        # item 3 is the second draw with probability 7/20
        rng = np.random.default_rng(4)
        trials = 20_000
        hits = sum(draw_weighted_sequence([1, 2, 3], 2, rng)[1] == 2 for _ in range(trials))
        p = 7 / 20
        assert abs(hits / trials - p) <= 3 * np.sqrt(p * (1 - p) / trials)


class TestHyperSbm:
    def test_forced_full_draw(self):
        spec = BlockModelSpec(z=np.array([1, 1, 2]), type_matrix=np.array([[2, 2], [1, 1]]))
        h = sample_hyper_sbm(spec, np.random.default_rng(0))
        assert h.interactions == ((1, 2, 3), (1, 2, 3))

    def test_class_counts_match_types_exactly(self):
        z = np.array([1, 1, 1, 2, 2, 3, 3, 3, 3])
        tmat = np.array([[1, 3, 0], [2, 0, 1], [0, 2, 4]])
        spec = BlockModelSpec(z=z, type_matrix=tmat)
        rng = np.random.default_rng(1)
        for _ in range(25):
            h = sample_hyper_sbm(spec, rng)
            for p, e in enumerate(h.interactions):
                counts = np.bincount(z[np.array(e) - 1], minlength=4)[1:]
                assert np.array_equal(counts, tmat[:, p])

    def test_uniform_pairs_chi_square(self):
        # one class of 4 nodes, tau=2: all 6 pairs equally likely
        spec = BlockModelSpec(z=np.array([1, 1, 1, 1]), type_matrix=np.array([[2]]))
        rng = np.random.default_rng(2)
        counts = {}
        trials = 60_000
        for _ in range(trials):
            h = sample_hyper_sbm(spec, rng)
            counts[h.interactions[0]] = counts.get(h.interactions[0], 0) + 1
        assert len(counts) == 6
        observed = np.array(list(counts.values()))
        chi2 = ((observed - trials / 6) ** 2 / (trials / 6)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=5)


class TestChunkedDraws:
    """The class-by-class draw gives one hypergraph whatever its chunk size."""

    @pytest.mark.parametrize("entries", [1, 40, 333])
    def test_chunk_size_does_not_change_the_draw(self, monkeypatch, entries):
        spec, _ = generate_design(SimulationDesign(n=40, m=999, regime="growing"), RngStream(3))
        default = sample_hyper_sbm(spec, np.random.default_rng(4))
        monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", entries)
        assert sample_hyper_sbm(spec, np.random.default_rng(4)) == default

    def test_class_counts_exact_across_chunk_boundaries(self, monkeypatch):
        # unequal classes of 6, 5 and 3 nodes, labels interleaved
        z = np.array([2, 1, 2, 1, 1, 3, 2, 1, 3, 2, 1, 2, 3, 1])
        rng = np.random.default_rng(5)
        sizes = np.bincount(z)[1:]
        tmat = rng.integers(0, sizes[:, None] + 1, size=(3, 500))
        tmat[0, tmat.sum(axis=0) == 0] = 1
        spec = BlockModelSpec(z=z, type_matrix=tmat)
        monkeypatch.setattr(sampling, "_CHUNK_ENTRIES", 20)
        h = sample_hyper_sbm(spec, rng)
        assert np.array_equal(type_matrix(h, z).type_matrix, tmat)

    def test_uniform_pairs_chi_square_in_one_call(self):
        # 60000 interactions of one 4-node class, tau=2: all 6 pairs equally likely
        trials = 60_000
        spec = BlockModelSpec(z=np.array([1, 1, 1, 1]), type_matrix=np.full((1, trials), 2))
        h = sample_hyper_sbm(spec, np.random.default_rng(12))
        pairs = h.indices.reshape(trials, 2)
        observed = np.bincount(4 * pairs[:, 0] + pairs[:, 1], minlength=16)[[1, 2, 3, 6, 7, 11]]
        assert (observed > 0).all() and observed.sum() == trials
        chi2 = ((observed - trials / 6) ** 2 / (trials / 6)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=5)


class TestSizeLaw:
    """Interaction sizes of a design follow 2 + Binomial(k_max - 2, alpha)."""

    def test_degenerate_law(self):
        # growing n = 4 has k_max = 2, so every size is 2
        spec, _ = generate_design(SimulationDesign(n=4, m=99, regime="growing", seed=0))
        assert (spec.interaction_sizes() == 2).all()

    def test_fixed_regime_mean(self):
        m = 30_000
        spec, _ = generate_design(SimulationDesign(n=10, m=m, regime="fixed", alpha=0.4, seed=1))
        sd = np.sqrt(3 * 0.4 * 0.6 / m)
        assert abs(spec.interaction_sizes().mean() - 3.2) <= 3 * sd

    def test_growing_regime_mean_formula(self):
        # k_max = n/2 gives mean sizes 2 + 0.4 (n/2 - 2) = 1.2 + 0.2 n
        m = 9999
        for n in (10, 40):
            spec, _ = generate_design(SimulationDesign(n=n, m=m, regime="growing", alpha=0.4, seed=2))
            sd = np.sqrt((n // 2 - 2) * 0.4 * 0.6 / m)
            assert abs(spec.interaction_sizes().mean() - (1.2 + 0.2 * n)) <= 3 * sd

    def test_invalid_laws(self):
        with pytest.raises(ValueError, match="alpha"):
            SimulationDesign(n=10, m=999, regime="fixed", alpha=1.0)
        with pytest.raises(ValueError, match="k_max=1 is below the smallest interaction size 2"):
            SimulationDesign(n=2, m=3, regime="growing")


class TestDesign:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            SimulationDesign(n=10, m=1000, regime="growing")  # m not divisible by 3
        with pytest.raises(ValueError):
            SimulationDesign(n=9, m=999, regime="growing")  # n not divisible by d
        with pytest.raises(ValueError):
            SimulationDesign(n=10, m=999, regime="bogus")

    def test_k_max_above_the_class_size_is_rejected(self):
        with pytest.raises(ValueError, match="k_max=5 exceeds the class size 4"):
            SimulationDesign(n=8, m=999, regime="fixed")

    def test_dimension_is_not_a_field(self):
        assert SimulationDesign(n=10, m=999, regime="fixed").d == 2
        with pytest.raises(TypeError):
            SimulationDesign(n=10, m=999, regime="fixed", d=2)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 20).map(lambda k: 2 * k),
        m=st.integers(1, 33).map(lambda k: 3 * k),
        regime=st.sampled_from(["growing", "fixed"]),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_accepted_design_can_be_drawn(self, n, m, regime, alpha, seed):
        try:
            design = SimulationDesign(n=n, m=m, regime=regime, alpha=alpha, seed=seed)
        except ValueError:
            return
        spec, h = generate_design(design)
        sizes = spec.interaction_sizes()
        assert (h.n, h.m) == (n, m)
        assert sizes.min() >= 2 and sizes.max() <= design.k_max

    def test_k_max_rule(self):
        assert SimulationDesign(n=40, m=999, regime="growing").k_max == 20
        assert SimulationDesign(n=40, m=999, regime="fixed").k_max == 5

    def test_thirds_layout(self):
        design = SimulationDesign(n=10, m=999, regime="fixed", seed=11)
        spec, _ = generate_design(design)
        basic = spec.type_matrix > 0
        assert np.array_equal(basic[:, :333], np.tile([[1], [0]], 333))
        assert np.array_equal(basic[:, 333:666], np.tile([[0], [1]], 333))
        assert np.array_equal(basic[:, 666:], np.tile([[1], [1]], 333))

    def test_pure_interaction_type_is_its_size(self):
        design = SimulationDesign(n=10, m=99, regime="growing", seed=3)
        spec, _ = generate_design(design)
        sizes = spec.interaction_sizes()
        assert np.array_equal(spec.type_matrix[0, :33], sizes[:33])
        assert (spec.type_matrix[1, :33] == 0).all()

    def test_mixed_interactions_cover_both_classes(self):
        design = SimulationDesign(n=12, m=300, regime="growing", seed=5)
        spec, _ = generate_design(design)
        mixed = spec.type_matrix[:, 200:]
        assert (mixed >= 1).all()
        assert np.array_equal(mixed.sum(axis=0), spec.interaction_sizes()[200:])

    def test_mixed_split_law_matches_binomial(self):
        # class-1 share of a size-5 mixed interaction is 1 + Binomial(3, 1/2)
        design = SimulationDesign(n=10, m=29_997, regime="fixed", alpha=0.9, seed=6)
        spec, _ = generate_design(design)
        mixed = spec.type_matrix[:, 2 * design.m // 3 :]
        first = mixed[0, mixed.sum(axis=0) == 5]
        trials = first.size
        assert trials > 5000
        pmf = stats.binom.pmf(np.arange(0, 4), 3, 0.5)
        for value, p in zip(range(1, 5), pmf):
            se = np.sqrt(p * (1 - p) / trials)
            assert abs((first == value).mean() - p) <= 3 * se

    def test_reproducible_generation(self):
        design = SimulationDesign(n=10, m=99, regime="fixed", seed=9)
        spec1, h1 = generate_design(design, RngStream(77, (1,)))
        spec2, h2 = generate_design(design, RngStream(77, (1,)))
        assert h1 == h2
        assert np.array_equal(spec1.type_matrix, spec2.type_matrix)
        _, h3 = generate_design(design, RngStream(77, (2,)))
        assert h3 != h1

    def test_membership_probability_matches_mean(self):
        # empirical P(node in interaction) approaches tau / n_r
        z = np.array([1, 1, 1, 2, 2])
        tmat = np.array([[2, 1], [1, 2]])
        spec = BlockModelSpec(z=z, type_matrix=tmat)
        rng = np.random.default_rng(8)
        trials = 4000
        hits = np.zeros((5, 2))
        for _ in range(trials):
            h = sample_hyper_sbm(spec, rng)
            for p, e in enumerate(h.interactions):
                for v in e:
                    hits[v - 1, p] += 1
        from hyperclust import mean_matrix

        gamma = mean_matrix(spec)
        se = np.sqrt(gamma * (1 - gamma) / trials)
        assert (np.abs(hits / trials - gamma) <= 3 * se + 1e-12).all()

    def test_column_exchangeability_smoke(self):
        # permuting type columns leaves sampled degree statistics distributed alike
        design = SimulationDesign(n=10, m=99, regime="fixed", seed=21)
        spec, _ = generate_design(design)
        perm = np.random.default_rng(0).permutation(spec.m)
        permuted = BlockModelSpec(z=spec.z, type_matrix=spec.type_matrix[:, perm])

        def degree_sample(s, seed, reps=60):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(reps):
                h = sample_hyper_sbm(s, rng)
                counts = np.zeros(s.n)
                for e in h.interactions:
                    counts[np.array(e) - 1] += 1
                out.extend(counts)
            return np.array(out)

        a = degree_sample(spec, 101)
        b = degree_sample(permuted, 202)
        assert stats.ks_2samp(a, b).pvalue > 0.001


# sha256 of the write_interactions text and of the int64 type-matrix bytes of
# replicate 0, seed 0, drawn by the row-wise permutation sampler; a change to
# the random stream must update these
SAMPLER_DIGESTS = {
    ("growing", 40, 2997): (
        "4cd2e3b8d4183454445fae2443fa6a9dc94dc2bd3929d0222b0d9dcb0109d055",
        "8b33dcdcc193395d9b253499af5579e7165d3d4db309436481481dbdf7b10837",
    ),
    ("fixed", 80, 2997): (
        "b4c7d1e420407817c0df7a0c2d65159fe5eef6ea0627e68a2c7fa8bbc412a107",
        "b77e9fa33e1bb30a4319c8b9455d47066f5efdde9c2c2f6d6faa4e8a21b9c046",
    ),
    ("growing", 320, 999): (
        "f945c0f09a8662e653fbbc96a08c4bdffd1f97157618cb8449fc150b727e15ed",
        "d9479ce517d80385cc4a07384a187d5138e4bd1b47e10702e451a74f6c955591",
    ),
}


@pytest.mark.parametrize("cell", sorted(SAMPLER_DIGESTS))
def test_generate_design_matches_golden_digest(cell, tmp_path):
    regime, n, m = cell
    design = SimulationDesign(n=n, m=m, regime=regime, seed=0)
    spec, h = generate_design(design, replicate_stream(regime, n, m, 0, 0))
    path = tmp_path / "h.txt"
    write_interactions(h, path)
    text_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    type_digest = hashlib.sha256(np.ascontiguousarray(spec.type_matrix, dtype=np.int64).tobytes()).hexdigest()
    assert (text_digest, type_digest) == SAMPLER_DIGESTS[cell]
