import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclust import (
    InteractionHypergraph,
    incidence_matrix,
    mean_matrix,
    type_matrix,
)

from conftest import TOY_DENSE, TOY_LABELS, random_spec


class TestInteractionHypergraph:
    def test_vertices_are_normalized_sorted(self):
        h = InteractionHypergraph(4, [[3, 1], [2, 4, 3]])
        assert h.interactions == ((1, 3), (2, 3, 4))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            InteractionHypergraph(4, [[1, 1, 2]])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            InteractionHypergraph(3, [[1, 4]])
        with pytest.raises(ValueError, match="outside"):
            InteractionHypergraph(3, [[0, 1]])

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError):
            InteractionHypergraph(3, [])
        with pytest.raises(ValueError):
            InteractionHypergraph(3, [[]])
        with pytest.raises(ValueError):
            InteractionHypergraph(0, [[1]])

    def test_duplicate_interactions_allowed(self):
        h = InteractionHypergraph(3, [[1, 2], [1, 2]])
        assert h.m == 2

    def test_stored_as_read_only_csc_arrays(self):
        h = InteractionHypergraph(5, [[3, 1], [5, 2, 4]])
        assert h.indptr.tolist() == [0, 2, 5]
        assert h.indices.tolist() == [0, 2, 1, 3, 4]
        assert h.indptr.dtype == h.indices.dtype == np.int64
        with pytest.raises(ValueError):
            h.indices[0] = 4
        with pytest.raises(ValueError):
            h.indptr[1] = 1

    def test_first_bad_interaction_is_named(self):
        with pytest.raises(ValueError, match=r"interaction 2 repeats a vertex: \[2, 2\]"):
            InteractionHypergraph(4, [[1, 2], [2, 2], [5]])
        with pytest.raises(ValueError, match=r"interaction 2 is empty"):
            InteractionHypergraph(4, [[1, 2], [], [1, 1]])
        with pytest.raises(ValueError, match=r"interaction 2 has vertex ids outside \[1, 4\]: \[3, 5\]"):
            InteractionHypergraph(4, [[1, 2], [5, 3]])

    def test_from_arrays_matches_constructor(self):
        h = InteractionHypergraph(5, [[3, 1], [5, 2, 4]])
        assert InteractionHypergraph.from_arrays(5, [0, 2, 5], [2, 0, 4, 1, 3]) == h
        with pytest.raises(ValueError, match="interaction 1 repeats"):
            InteractionHypergraph.from_arrays(5, [0, 2], [2, 2])
        with pytest.raises(ValueError, match="indptr"):
            InteractionHypergraph.from_arrays(5, [0, 3], [2, 1])

    def test_sort_key_overflow_rejected(self):
        # the validator sorts by the int64 key p * n + id, whose top value is
        # n * m - 1; just below the limit the ids must come back as ints
        n = 2**61
        with pytest.raises(ValueError, match=f"got n = {n} and m = 4"):
            InteractionHypergraph(n, [[1, 2], [1], [1], [1]])
        with pytest.raises(ValueError, match=f"got n = {n} and m = 4"):
            InteractionHypergraph.from_arrays(n, [0, 2, 3, 4, 5], [1, 0, 0, 0, 0])
        assert InteractionHypergraph(n, [[2, n], [1], [1]]).interactions == ((2, n), (1,), (1,))

    def test_equality_follows_interaction_order(self):
        h = InteractionHypergraph(4, [[1, 2], [2, 3, 4]])
        assert h == InteractionHypergraph.from_arrays(4, h.indptr, h.indices)
        assert h == InteractionHypergraph(4, [[2, 1], [4, 3, 2]])
        assert h != InteractionHypergraph(4, [[2, 3, 4], [1, 2]])
        assert h != InteractionHypergraph(5, [[1, 2], [2, 3, 4]])


class TestIncidenceMatrix:
    def test_toy_matrix(self, toy_hypergraph):
        R = incidence_matrix(toy_hypergraph)
        assert np.array_equal(R.toarray(), TOY_DENSE)
        assert np.array_equal(R.toarray()[:, 0], [1, 1, 0, 0, 0, 0])

    def test_full_interaction_is_ones_column(self):
        R = incidence_matrix(InteractionHypergraph(5, [range(1, 6)]))
        assert np.array_equal(R.toarray(), np.ones((5, 1)))

    def test_singletons_are_basis_vectors(self):
        h = InteractionHypergraph(4, [[2], [4], [1]])
        dense = incidence_matrix(h).toarray()
        expected = np.zeros((4, 3))
        expected[1, 0] = expected[3, 1] = expected[0, 2] = 1
        assert np.array_equal(dense, expected)

    def test_column_sums_are_sizes(self, toy_hypergraph):
        R = incidence_matrix(toy_hypergraph)
        assert np.array_equal(R.toarray().sum(axis=0), [2, 3, 3, 4])
        assert np.array_equal(np.diff(R.indptr), [2, 3, 3, 4])

    def test_canonical_csc_of_int64_ones(self, toy_hypergraph):
        R = incidence_matrix(toy_hypergraph)
        assert R.format == "csc" and R.has_canonical_format
        assert R.dtype == np.int64 and R.shape == (6, 4)
        assert (R.data == 1).all()

    def test_wraps_the_hypergraph_arrays(self):
        h = InteractionHypergraph(6, [[6, 2], [1], [5, 3, 4]])
        R = incidence_matrix(h)
        assert np.array_equal(R.indptr, h.indptr)
        assert np.array_equal(R.indices, h.indices)
        assert R.has_canonical_format


class TestTypeMatrix:
    def test_toy_types(self, toy_hypergraph):
        spec = type_matrix(toy_hypergraph, TOY_LABELS)
        assert np.array_equal(spec.type_matrix, [[2, 2, 0, 2], [0, 1, 3, 2]])
        assert np.array_equal(spec.type_matrix > 0, [[1, 1, 0, 1], [0, 1, 1, 1]])
        assert np.array_equal(spec.class_sizes, [3, 3])

    def test_single_class_gives_size_row(self, toy_hypergraph):
        spec = type_matrix(toy_hypergraph, [1] * 6)
        assert np.array_equal(spec.type_matrix, [[2, 3, 3, 4]])

    def test_unused_class_row_is_zero(self):
        h = InteractionHypergraph(4, [[1, 2], [1, 3]])
        spec = type_matrix(h, [1, 1, 1, 2])
        assert np.array_equal(spec.type_matrix[1] > 0, [0, 0])

    def test_column_sums_equal_interaction_sizes(self, toy_hypergraph):
        spec = type_matrix(toy_hypergraph, TOY_LABELS)
        assert np.array_equal(spec.type_matrix.sum(axis=0), [2, 3, 3, 4])

    def test_wrong_label_count_rejected(self, toy_hypergraph):
        with pytest.raises(ValueError):
            type_matrix(toy_hypergraph, [1, 2])


class TestBlockModelSpecValidation:
    def test_count_exceeding_class_size_rejected(self):
        from hyperclust import BlockModelSpec

        with pytest.raises(ValueError, match="exceeds"):
            BlockModelSpec(z=np.array([1, 1, 2]), type_matrix=np.array([[3], [1]]))

    def test_empty_interaction_rejected(self):
        from hyperclust import BlockModelSpec

        with pytest.raises(ValueError, match="at least one node"):
            BlockModelSpec(z=np.array([1, 2]), type_matrix=np.array([[0], [0]]))

    def test_arrays_are_immutable(self, toy_hypergraph):
        spec = type_matrix(toy_hypergraph, TOY_LABELS)
        with pytest.raises(ValueError):
            spec.type_matrix[0, 0] = 9


class TestMeanMatrix:
    def test_saturated_interaction_gives_ones(self):
        from hyperclust import BlockModelSpec

        spec = BlockModelSpec(z=np.array([1, 1, 2]), type_matrix=np.array([[2], [1]]))
        assert np.array_equal(mean_matrix(spec), np.ones((3, 1)))

    def test_forced_membership_column(self):
        from hyperclust import BlockModelSpec

        spec = BlockModelSpec(z=np.array([1, 1, 2, 2]), type_matrix=np.array([[2], [0]]))
        assert np.array_equal(mean_matrix(spec)[:, 0], [1, 1, 0, 0])

    def test_toy_column(self, toy_hypergraph):
        spec = type_matrix(toy_hypergraph, TOY_LABELS)
        expected = np.array([2, 2, 2, 1, 1, 1]) / 3.0
        assert np.allclose(mean_matrix(spec)[:, 1], expected, atol=1e-15)

    def test_is_a_read_only_array(self, toy_hypergraph):
        gamma = mean_matrix(type_matrix(toy_hypergraph, TOY_LABELS))
        assert gamma.shape == (6, 4)
        with pytest.raises(ValueError):
            gamma[0, 0] = 1.0

    def test_columns_sum_to_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = random_spec(rng)
            gamma = mean_matrix(spec)
            assert np.allclose(gamma.sum(axis=0), spec.interaction_sizes(), atol=1e-9)
            assert gamma.min() >= 0 and gamma.max() <= 1 + 1e-12
            assert np.linalg.matrix_rank(gamma) <= spec.d


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=6))
    interactions = [
        draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
        for _ in range(m)
    ]
    return InteractionHypergraph(n, interactions)


@settings(max_examples=40, deadline=None)
@given(hypergraphs(), st.randoms(use_true_random=False))
def test_incidence_round_trip(h, pyrandom):
    R = incidence_matrix(h)
    rebuilt = InteractionHypergraph(R.shape[0], [list(col + 1) for col in np.split(R.indices, R.indptr[1:-1])])
    assert rebuilt == h


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_type_columns_sum_to_sizes(h):
    labels = [1 + (v % 2) for v in range(h.n)] if h.n > 1 else [1]
    spec = type_matrix(h, labels)
    assert np.array_equal(spec.type_matrix.sum(axis=0), np.diff(h.indptr))
