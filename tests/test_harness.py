import csv
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperclust import (
    BlockModelSpec,
    ExperimentGrid,
    FileFormatError,
    InteractionHypergraph,
    RngStream,
    SimulationDesign,
    adjusted_rand_index,
    choose_k_by_gap,
    complete_linkage,
    embed_interactions,
    generate_design,
    harness,
    incidence_matrix,
    run_grid,
    spectral,
    type_partition,
    write_interactions,
)
from hyperclust.harness import (
    GRID_CSV_COLUMNS,
    cluster_file,
    diagnose_instance,
    embed_file,
    expected_distinct_types,
    read_embedding_csv,
    run_cell,
    write_diagnostics_csv,
    write_grid_csv,
)


def tiny_grid(**overrides):
    base = dict(regime="growing", m_values=(99,), n_values=(10,), replicates=2, seed=5)
    base.update(overrides)
    return ExperimentGrid(**base)


class TestGrid:
    def test_csv_schema_and_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        results = run_grid(tiny_grid(), csv_path=out)
        assert len(results) == 2
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == GRID_CSV_COLUMNS
        assert len(rows) == 2
        for row in rows:
            assert -1.0 <= float(row["ari_true_k"]) <= 1.0
            assert float(row["norm_VS_2inf"]) >= 0.0
            assert row["runtime_ms"] == "0"

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid(tiny_grid(), csv_path=a)
        run_grid(tiny_grid(), csv_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        grid = tiny_grid(replicates=3)
        run_grid(grid, threads=1, csv_path=a)
        run_grid(grid, threads=3, csv_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_replicates_run_in_calling_thread_in_sorted_order(self, monkeypatch):
        calls = []

        def record(regime, n, m, rep, master_seed, selection):
            calls.append((threading.get_ident(), (n, m, rep)))
            return (n, m, rep)

        monkeypatch.setattr(harness, "run_cell", record)
        grid = tiny_grid(n_values=(20, 10), m_values=(999, 99), replicates=3)
        results = run_grid(grid, threads=4)
        order = [job for _, job in calls]
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        assert order == sorted(order) and len(order) == 12
        assert results == order

    def test_repeated_axis_values_run_once(self, monkeypatch):
        calls = []
        inner = harness.run_cell

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(harness, "run_cell", counting)
        results = run_grid(tiny_grid(n_values=(10, 10), m_values=(99, 99)))
        assert [(r.n, r.m, r.rep) for r in results] == [(10, 99, 0), (10, 99, 1)]
        assert len(calls) == 2

    def test_different_seed_changes_results(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_grid(tiny_grid(seed=5), csv_path=a)
        run_grid(tiny_grid(seed=6), csv_path=b)
        assert a.read_bytes() != b.read_bytes()

    def test_timing_flag_records_wall_clock(self, tmp_path):
        out = tmp_path / "grid.csv"
        results = run_grid(tiny_grid(), csv_path=out, timing=True)
        assert all(r.runtime_ms >= 0 for r in results)

    def test_infeasible_cells_are_skipped_with_reason(self, tmp_path, caplog):
        grid = tiny_grid(m_values=(6, 99), n_values=(10, 12))
        with caplog.at_level("WARNING"):
            results = run_grid(grid, csv_path=tmp_path / "g.csv")
        # m=6 < n in both rows, and m=6 < n=12 as well: only (10, 99) and (12, 99) retained
        assert {(r.n, r.m) for r in results} == {(10, 99), (12, 99)}
        assert any("m >= n violated" in message for message in caplog.messages)

    def test_skip_reason_is_the_design_message(self, caplog, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", lambda *args: pytest.fail("a skipped cell ran"))
        with caplog.at_level("WARNING"):
            assert run_grid(tiny_grid(regime="fixed", n_values=(8, 9))) == []
        assert caplog.messages == [
            "skipping cell n=8 m=99: k_max=5 exceeds the class size 4",
            "skipping cell n=9 m=99: n must be a positive multiple of d=2, got 9",
        ]

    def test_growing_cell_below_size_two_is_skipped(self, caplog):
        # growing n = 2 has k_max = 1, below the smallest interaction size
        with caplog.at_level("WARNING"):
            results = run_grid(tiny_grid(n_values=(2, 10), replicates=1))
        assert [(r.n, r.m) for r in results] == [(10, 99)]
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "skipping cell n=2 m=99: k_max=1 is below the smallest interaction size 2"),
        ]

    def test_ari_trend_in_m(self):
        means = []
        for m in (99, 999):
            results = run_grid(tiny_grid(m_values=(m,), replicates=3))
            means.append(np.mean([r.ari_true_k for r in results]))
        assert means[1] >= means[0] - 0.02

    def test_replicate_failures_are_recorded_not_fatal(self, tmp_path, caplog):
        # oracle selection at the default radius cannot isolate d eigenvalues
        # at this scale; every replicate fails, is logged, and the sweep
        # still completes with an empty but well-formed CSV
        out = tmp_path / "grid.csv"
        with caplog.at_level("ERROR"):
            results = run_grid(tiny_grid(), selection="oracle", csv_path=out)
        assert results == []
        assert any("failed" in message for message in caplog.messages)
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows == []

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            ExperimentGrid(regime="bogus")
        with pytest.raises(ValueError):
            ExperimentGrid(regime="growing", m_values=())
        with pytest.raises(ValueError):
            ExperimentGrid(regime="growing", replicates=0)

    def test_desk_truncation(self):
        grid = ExperimentGrid(regime="fixed").desk_truncated()
        assert max(grid.m_values) == 8991
        assert max(grid.n_values) == 80


GOLDEN_GRID = Path(__file__).parent / "data" / "golden_grid.csv"
GOLDEN_FLOAT_COLUMNS = {
    "ari_true_k",
    "ari_gap_k",
    "norm_R_Gamma",
    "norm_hollow",
    "norm_SW",
    "norm_Sinv",
    "norm_V_2inf",
    "norm_VS_2inf",
    "delta",
    "b",
}


def test_grid_matches_golden_csv(tmp_path):
    """Both regimes, n in {10, 20}, m = 999, 2 replicates, seed 0, against a
    CSV written when the sampler moved to row-wise permutations, so results
    cannot drift between versions unnoticed."""
    results = []
    for regime in ("growing", "fixed"):
        grid = ExperimentGrid(regime=regime, m_values=(999,), n_values=(10, 20), replicates=2, seed=0)
        results += run_grid(grid)
    out = tmp_path / "grid.csv"
    write_grid_csv(results, out)
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    with GOLDEN_GRID.open() as fh:
        golden = list(csv.DictReader(fh))
    assert len(rows) == len(golden) == 8
    assert list(golden[0]) == GRID_CSV_COLUMNS
    for row, want in zip(rows, golden):
        for column in GRID_CSV_COLUMNS:
            if column not in GOLDEN_FLOAT_COLUMNS:
                assert row[column] == want[column], column
                continue
            got, expected = float(row[column]), float(want[column])
            assert (math.isnan(got) and math.isnan(expected)) or math.isclose(
                got, expected, rel_tol=1e-12, abs_tol=1e-12
            ), (column, got, expected)


@pytest.fixture
def gram_calls(monkeypatch):
    """Records every hollowed Gram build, including calls through a name
    bound by ``from .spectral import hollowed_gram``."""
    calls = []
    inner = spectral.hollowed_gram

    def counting(R):
        calls.append(R)
        return inner(R)

    monkeypatch.setattr(spectral, "hollowed_gram", counting)
    monkeypatch.setattr(harness, "hollowed_gram", counting, raising=False)
    return calls


class TestGramBuiltOnce:
    def test_run_cell(self, gram_calls):
        run_cell("fixed", 10, 99, 0, 0)
        assert len(gram_calls) == 1

    def test_embed_file_with_spectrum_log(self, tmp_path, toy_hypergraph, gram_calls, caplog):
        path = tmp_path / "toy.txt"
        write_interactions(toy_hypergraph, path)
        zpath = tmp_path / "z.txt"
        zpath.write_text("1\n1\n1\n2\n2\n2\n")
        with caplog.at_level("INFO", logger="hyperclust.harness"):
            embed_file(path, tmp_path / "emb.csv", d=2, communities_path=zpath)
        assert len(gram_calls) == 1
        assert any(m.startswith("spectrum: 6 eigenvalues") for m in caplog.messages)


class TestHelpers:
    def test_expected_distinct_types(self):
        assert expected_distinct_types(SimulationDesign(n=10, m=999, regime="fixed")) == 18
        assert expected_distinct_types(SimulationDesign(n=10, m=999, regime="growing")) == 18
        assert expected_distinct_types(SimulationDesign(n=40, m=999, regime="growing")) == 228

    def test_type_partition_groups_identical_columns(self):
        design = SimulationDesign(n=10, m=99, regime="fixed", seed=1)
        spec, _ = generate_design(design)
        part = type_partition(spec)
        tcols = spec.type_matrix.T
        for label in range(1, part.k + 1):
            group = tcols[part.labels == label]
            assert (group == group[0]).all()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), m=st.integers(1, 40), top=st.integers(1, 3))
    def test_type_partition_matches_unique_rows(self, data, d, m, top):
        # labels are the lexicographic codes np.unique gives the type vectors
        tmat = np.array(
            data.draw(st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m), min_size=d, max_size=d))
        )
        tmat[0, tmat.sum(axis=0) == 0] = 1
        spec = BlockModelSpec(z=np.repeat(np.arange(1, d + 1), top), type_matrix=tmat)
        _, codes = np.unique(tmat.T, axis=0, return_inverse=True)
        part = type_partition(spec)
        assert part.labels.dtype == np.int64
        assert np.array_equal(part.labels, codes + 1)
        assert part.k == codes.max() + 1

    def test_gap_rule_recovers_distinct_type_count(self):
        # benchmark cell n=10, m=999: the chosen k equals the number of
        # distinct type vectors present, across 10 seeds
        for seed in range(10):
            design = SimulationDesign(n=10, m=999, regime="growing", seed=seed)
            spec, h = generate_design(design, RngStream(seed, (40,)))
            emb = embed_interactions(incidence_matrix(h), 2)
            dend = complete_linkage(emb.embedding)
            k_cap = min(spec.m, 4 * expected_distinct_types(design))
            assert choose_k_by_gap(dend, k_cap) == type_partition(spec).k


class TestEmbedFile:
    def test_toy_embedding(self, tmp_path, toy_hypergraph):
        path = tmp_path / "toy.txt"
        write_interactions(toy_hypergraph, path)
        out = tmp_path / "emb.csv"
        rows = embed_file(path, out, d=2)
        assert rows == 4
        indices, coords, types = read_embedding_csv(out)
        assert indices.tolist() == [1, 2, 3, 4]
        assert coords.shape == (4, 2)
        assert types is None
        # interactions 1 and 3 are disjoint vertex sets and embed differently
        assert np.linalg.norm(coords[0] - coords[2]) > 1e-6

    def test_type_column_with_communities(self, tmp_path, toy_hypergraph):
        path = tmp_path / "toy.txt"
        write_interactions(toy_hypergraph, path)
        zpath = tmp_path / "z.txt"
        zpath.write_text("1\n1\n1\n2\n2\n2\n")
        out = tmp_path / "emb.csv"
        embed_file(path, out, d=2, communities_path=zpath)
        _, coords, types = read_embedding_csv(out)
        assert types is not None and len(types) == 4

    def test_repeated_interaction_embeds_identically(self, tmp_path):
        h = InteractionHypergraph(6, [[1, 2, 5]] * 12)
        path = tmp_path / "rep.txt"
        write_interactions(h, path)
        out = tmp_path / "emb.csv"
        embed_file(path, out, d=2)
        _, coords, _ = read_embedding_csv(out)
        assert np.abs(coords - coords[0]).max() <= 1e-10

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FileFormatError):
            embed_file(path, tmp_path / "emb.csv")

    def test_oracle_requires_communities(self, tmp_path, toy_hypergraph):
        path = tmp_path / "toy.txt"
        write_interactions(toy_hypergraph, path)
        with pytest.raises(ValueError, match="community"):
            embed_file(path, tmp_path / "emb.csv", mode="oracle")


class TestClusterFile:
    def test_partition_and_dendrogram_export(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text(
            "interaction,coord_1,coord_2\n"
            "1,0.0,0.0\n2,0.1,0.0\n3,5.0,5.0\n4,5.1,5.0\n"
        )
        out = tmp_path / "part.csv"
        dend_out = tmp_path / "dend.csv"
        part = cluster_file(emb, out, k=2, dendrogram_path=dend_out)
        assert part.k == 2
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["1", "1", "2", "2"]
        with dend_out.open() as fh:
            drows = list(csv.DictReader(fh))
        assert [r["step"] for r in drows] == ["1", "2", "3"]
        assert list(drows[0].keys()) == ["step", "a", "b", "height"]

    def test_gap_rule_default(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text(
            "interaction,coord_1,coord_2\n"
            "1,0.0,0.0\n2,0.01,0.0\n3,5.0,5.0\n4,5.01,5.0\n"
        )
        part = cluster_file(emb, tmp_path / "part.csv")
        assert part.k == 2

    def test_missing_coords_rejected(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("a,b\n1,2\n")
        with pytest.raises(FileFormatError, match="coord"):
            cluster_file(emb, tmp_path / "part.csv")

    def test_missing_interaction_column_rejected(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("coord_1\n0.0\n9.0\n")
        with pytest.raises(FileFormatError, match="no interaction column in header") as info:
            read_embedding_csv(emb)
        assert info.value.line_no == 1


class TestDiagnose:
    def test_rows_and_csv(self, tmp_path):
        rows = diagnose_instance(10, 99, "growing", seed=3)
        names = [row[4] for row in rows]
        assert names == [
            "norm_R_Gamma",
            "norm_hollow",
            "norm_SW",
            "norm_Sinv",
            "norm_V_2inf",
            "norm_VS_2inf",
            "delta",
            "b",
        ]
        out = tmp_path / "diag.csv"
        write_diagnostics_csv(rows, out)
        with out.open() as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0].keys()) == ["n", "m", "regime", "seed", "metric", "value"]
        assert len(parsed) == 8
