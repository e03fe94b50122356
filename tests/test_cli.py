import codecs
import csv
from pathlib import Path

import numpy as np
import pytest

from hyperclust import ExperimentGrid, harness
from hyperclust.cli import build_parser, main


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_interactions_and_communities(self, tmp_path):
        out = tmp_path / "h.txt"
        zout = tmp_path / "z.txt"
        code = run(
            ["simulate", "--n", 10, "--m", 99, "--regime", "fixed", "--seed", 3,
             "--out", out, "--communities-out", zout]
        )
        assert code == 0
        from hyperclust import read_communities, read_interactions

        h = read_interactions(out)
        assert (h.n, h.m) == (10, 99)
        assert len(read_communities(zout)) == 10

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(["simulate", "--n", 10, "--m", 33, "--seed", 7, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("# design\nm=33\nregime=fixed\n")
        out = tmp_path / "h.txt"
        code = run(
            ["simulate", "--n", 10, "--m", 99, "--regime", "growing",
             "--config", cfg, "--out", out]
        )
        assert code == 0
        from hyperclust import read_interactions

        assert read_interactions(out).m == 33

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("bogus=1\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "h.txt"]) == 2

    def test_invalid_design_is_usage_error(self, tmp_path):
        assert run(["simulate", "--n", 10, "--m", 100, "--out", tmp_path / "h.txt"]) == 1


class TestGridCommand:
    def test_grid_end_to_end(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(
            ["grid", "--regime", "growing", "--m-values", "99", "--n-values", "10",
             "--replicates", 2, "--seed", 5, "--out", out]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_rerun_reproducible_and_no_thread_flag(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["grid", "--regime", "fixed", "--m-values", "99", "--n-values", "10",
                "--replicates", 2, "--seed", 1]
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        with pytest.raises(SystemExit) as info:
            run(base + ["--threads", 2, "--out", b])
        assert info.value.code == 1

    def test_grid_where_no_cell_runs_is_one_error_line(self, tmp_path, caplog, capsys):
        # growing n = 2 has k_max = 1, so its only cell is skipped
        argv = ["grid", "--regime", "growing", "--n-values", 2, "--m-values", 3, "--out", tmp_path / "g.csv"]
        assert run(argv) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "no cell of the grid could run" in errors[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err

    def test_grid_with_one_runnable_cell_exits_0(self, tmp_path):
        out = tmp_path / "grid.csv"
        argv = ["grid", "--regime", "growing", "--n-values", "2,10", "--m-values", 99,
                "--replicates", 1, "--out", out]
        assert run(argv) == 0
        with out.open() as fh:
            assert [(row["n"], row["m"]) for row in csv.DictReader(fh)] == [("10", "99")]

    @pytest.fixture
    def grid_seen(self, monkeypatch):
        seen = []

        def capture(grid, **kwargs):
            seen.append(grid)
            return ["row"]

        monkeypatch.setattr(harness, "run_grid", capture)
        return seen

    def test_default_axes_are_desk_truncated(self, tmp_path, grid_seen):
        assert run(["grid", "--regime", "fixed", "--replicates", 3, "--seed", 9,
                    "--out", tmp_path / "g.csv"]) == 0
        assert grid_seen == [ExperimentGrid(regime="fixed", replicates=3, seed=9).desk_truncated()]

    def test_full_keeps_the_published_axes(self, tmp_path, grid_seen):
        assert run(["grid", "--full", "--out", tmp_path / "g.csv"]) == 0
        assert grid_seen == [ExperimentGrid(regime="growing", replicates=10, seed=0)]

    def test_explicit_values_are_kept_above_desk_limits(self, tmp_path, grid_seen):
        assert run(["grid", "--m-values", "26973", "--out", tmp_path / "g.csv"]) == 0
        (grid,) = grid_seen
        assert grid.m_values == (26973,)
        assert grid.n_values == (10, 20, 40, 80)

    @pytest.fixture
    def timing_seen(self, monkeypatch):
        seen = []

        def capture(grid, **kwargs):
            seen.append(kwargs["timing"])
            return ["row"]

        monkeypatch.setattr(harness, "run_grid", capture)
        return seen

    @pytest.mark.parametrize(
        "word, expected",
        [("1", True), ("TRUE", True), ("yes", True), ("On", True),
         ("0", False), ("false", False), ("No", False), ("OFF", False)],
    )
    def test_config_flag_words(self, tmp_path, timing_seen, word, expected):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"timing={word}\n")
        assert run(["grid", "--config", cfg, "--out", tmp_path / "g.csv"]) == 0
        assert timing_seen == [expected]

    def test_config_misspelled_flag_is_one_error_line(self, tmp_path, timing_seen, capsys, caplog):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("timing=ture\n")
        assert run(["grid", "--config", cfg, "--out", tmp_path / "g.csv"]) == 1
        assert timing_seen == []
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "'timing'" in errors[0].getMessage() and "'ture'" in errors[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_m_values_usage_error(self, tmp_path):
        assert run(["grid", "--m-values", "abc", "--out", tmp_path / "g.csv"]) == 1


class TestEmbedAndCluster:
    def embed_args(self, tmp_path, seed=2):
        interactions = tmp_path / "h.txt"
        run(["simulate", "--n", 10, "--m", 99, "--seed", seed, "--out", interactions])
        return interactions

    def test_embed_then_cluster_then_plot(self, tmp_path):
        interactions = self.embed_args(tmp_path)
        emb = tmp_path / "emb.csv"
        assert run(["embed", "--input", interactions, "--d", 2, "--out", emb]) == 0
        part = tmp_path / "part.csv"
        dend = tmp_path / "dend.csv"
        assert run(
            ["cluster", "--input", emb, "--out", part, "--dendrogram-out", dend]
        ) == 0
        assert part.exists() and dend.exists()
        svg = tmp_path / "scatter.svg"
        assert run(
            ["plot", "--results", emb, "--kind", "scatter", "--out", svg, "--no-timestamp"]
        ) == 0
        assert svg.read_text().startswith("<?xml")

    def test_embed_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 oops\n")
        assert run(["embed", "--input", bad, "--out", tmp_path / "e.csv"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "1 99999999999999999999\n",
            "#n=99999999999999999999\n1 2\n",
            "#n=2305843009213693952\n1 2\n1\n1\n1\n",
        ],
        ids=["id", "header", "n-times-m"],
    )
    def test_embed_ids_beyond_int64_exit_2(self, tmp_path, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run(["embed", "--input", bad, "--out", tmp_path / "e.csv"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["embed", "--input", tmp_path / "nope.txt", "--out", tmp_path / "e.csv"]) == 2

    def test_oracle_selection_mismatch_exit_3(self, tmp_path):
        interactions = self.embed_args(tmp_path)
        zpath = tmp_path / "z.txt"
        zpath.write_text("\n".join(["1"] * 5 + ["2"] * 5) + "\n")
        # the default exclusion radius dwarfs this spectrum: selection finds 0
        code = run(
            ["embed", "--input", interactions, "--mode", "oracle",
             "--communities", zpath, "--out", tmp_path / "e.csv"]
        )
        assert code == 3

    def test_embed_three_dimensions(self, tmp_path):
        interactions = self.embed_args(tmp_path)
        emb = tmp_path / "emb3.csv"
        assert run(["embed", "--input", interactions, "--d", 3, "--out", emb]) == 0
        with emb.open() as fh:
            header = fh.readline().strip()
        assert header == "interaction,coord_1,coord_2,coord_3"

    def test_cluster_with_fixed_k(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("interaction,coord_1\n1,0.0\n2,0.1\n3,9.0\n")
        part = tmp_path / "part.csv"
        assert run(["cluster", "--input", emb, "--k", 2, "--out", part]) == 0
        with part.open() as fh:
            labels = [row["label"] for row in csv.DictReader(fh)]
        assert labels == ["1", "1", "2"]

    def test_config_k_is_converted_like_the_flag(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("interaction,coord_1\n1,0.0\n2,0.1\n3,5.0\n4,9.0\n")
        cfg = tmp_path / "cluster.cfg"
        cfg.write_text("k=3\n")
        part = tmp_path / "part.csv"
        assert run(["cluster", "--input", emb, "--config", cfg, "--out", part]) == 0
        with part.open() as fh:
            labels = [row["label"] for row in csv.DictReader(fh)]
        assert labels == ["1", "1", "2", "3"]

    def test_config_bad_k_is_one_error_line(self, tmp_path, capsys, caplog):
        emb = tmp_path / "emb.csv"
        emb.write_text("interaction,coord_1\n1,0.0\n2,0.1\n3,9.0\n")
        cfg = tmp_path / "cluster.cfg"
        cfg.write_text("k=abc\n")
        code = run(["cluster", "--input", emb, "--config", cfg, "--out", tmp_path / "part.csv"])
        assert code == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "'abc'" in errors[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err


class TestPlotCommand:
    def test_grid_plots(self, tmp_path):
        out = tmp_path / "grid.csv"
        run(["grid", "--regime", "growing", "--m-values", "99,999", "--n-values", "10",
             "--replicates", 2, "--seed", 5, "--out", out])
        conv = tmp_path / "conv.svg"
        assert run(["plot", "--results", out, "--kind", "convergence", "--out", conv]) == 0
        assert "<!-- generated" in conv.read_text()
        table = tmp_path / "ari.svg"
        assert run(["plot", "--results", out, "--kind", "ari-table", "--out", table]) == 0
        diag = tmp_path / "diag.svg"
        assert run(["plot", "--results", out, "--kind", "diagnostics", "--out", diag]) == 0
        assert (tmp_path / "diag-norm_VS_2inf.svg").exists()

    def test_schema_mismatch_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run(["plot", "--results", bad, "--kind", "convergence", "--out", tmp_path / "x.svg"]) == 2

    def test_empty_results_exit_2_and_no_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("regime,n,m,ari_true_k\n")
        out = tmp_path / "x.svg"
        assert run(["plot", "--results", empty, "--kind", "ari-table", "--out", out]) == 2
        assert not out.exists()


class TestDiagnoseCommand:
    def test_oracle_selection_failure_exit_3(self, tmp_path):
        code = run(
            ["diagnose", "--n", 10, "--m", 99, "--selection", "oracle",
             "--seed", 1, "--out", tmp_path / "d.csv"]
        )
        assert code == 3

    def test_writes_metric_rows(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = run(
            ["diagnose", "--n", 10, "--m", 99, "--regime", "fixed",
             "--seed", 4, "--replicates", 2, "--out", out]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert {row["seed"] for row in rows} == {"4", "5"}


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--bogus", "--out", str(tmp_path / "x")])
        assert info.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_missing_required_out_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate"])
        assert info.value.code == 1


OUTPUT_FLAGS = {
    "simulate": ["--n", 10, "--m", 99, "--communities-out", "{new}/z/z.txt"],
    "grid": ["--regime", "fixed", "--m-values", "99", "--n-values", "10", "--replicates", 1],
    "embed": ["--input", "{h}"],
    "cluster": ["--input", "{emb}", "--k", 2, "--dendrogram-out", "{new}/d/dend.csv"],
    "plot": ["--results", "{emb}", "--kind", "scatter", "--no-timestamp"],
    "diagnose": ["--n", 10, "--m", 99],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_FLAGS))
def test_outputs_go_into_missing_directories(tmp_path, command):
    h, emb, new = tmp_path / "h.txt", tmp_path / "emb.csv", tmp_path / "new" / "a"
    assert run(["simulate", "--n", 10, "--m", 99, "--seed", 2, "--out", h]) == 0
    assert run(["embed", "--input", h, "--out", emb]) == 0
    flags = [str(f).format(h=h, emb=emb, new=new) for f in OUTPUT_FLAGS[command]]
    out = new / "out" / "result"
    assert run([command, *flags, "--out", out]) == 0
    outputs = [out] + [flags[i + 1] for i, f in enumerate(flags) if f.endswith("-out")]
    assert all(Path(p).is_file() for p in outputs)


class TestByteOrderMark:
    def test_config(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("\ufeffm=33\n", encoding="utf-8")
        out = tmp_path / "h.txt"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        from hyperclust import read_interactions

        assert read_interactions(out).m == 33

    def test_results_csv_for_plot(self, tmp_path):
        plain, bom = tmp_path / "grid.csv", tmp_path / "bom.csv"
        assert run(["grid", "--m-values", "99", "--n-values", "10", "--replicates", 1, "--out", plain]) == 0
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for results in (plain, bom):
            out = tmp_path / results.stem / "ari.svg"
            assert run(["plot", "--results", results, "--kind", "ari-table", "--no-timestamp", "--out", out]) == 0
        plots = [{p.name: p.read_bytes() for p in (tmp_path / stem).iterdir()} for stem in ("grid", "bom")]
        assert plots[0] and plots[0] == plots[1]

    def test_embedding_csv_keeps_interaction_ids(self, tmp_path):
        emb = tmp_path / "emb.csv"
        emb.write_text("\ufeffinteraction,coord_1\n5,0.0\n7,0.1\n9,9.0\n", encoding="utf-8")
        part = tmp_path / "part.csv"
        assert run(["cluster", "--input", emb, "--k", 2, "--out", part]) == 0
        with part.open() as fh:
            rows = [(row["item"], row["label"]) for row in csv.DictReader(fh)]
        assert rows == [("5", "1"), ("7", "1"), ("9", "2")]


class TestFileSystemErrors:
    """Every OSError is a data error: one error line and exit 2."""

    @pytest.mark.parametrize("target", ["adir", "afile/x.txt"], ids=["existing-directory", "under-a-file"])
    def test_unwritable_output_exits_2(self, tmp_path, target, capsys, caplog):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("a regular file\n")
        assert run(["simulate", "--n", 10, "--m", 99, "--out", tmp_path / target]) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "Traceback" not in capsys.readouterr().err


def test_embedding_csv_needs_an_interaction_column(tmp_path, caplog):
    emb = tmp_path / "emb.csv"
    emb.write_text("Interaction,coord_1\n5,0.0\n7,0.1\n9,9.0\n")
    part = tmp_path / "part.csv"
    assert run(["cluster", "--input", emb, "--k", 2, "--out", part]) == 2
    assert not part.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{emb}:1: no interaction column in header"]


SEED_ARGS = {
    "simulate": ["--n", 10, "--m", 99],
    "grid": ["--regime", "fixed", "--m-values", "99", "--n-values", "10", "--replicates", 1],
    "diagnose": ["--n", 10, "--m", 99],
}


UNSEEDED_ARGS = {
    "embed": ["--input", "h.txt"],
    "cluster": ["--input", "emb.csv"],
    "plot": ["--results", "emb.csv", "--kind", "scatter"],
}


class TestSeed:
    """Only the subcommands that draw random numbers take a seed."""

    @pytest.mark.parametrize("command", sorted(UNSEEDED_ARGS))
    def test_flag_rejected_where_nothing_is_drawn(self, command):
        args = [command, *UNSEEDED_ARGS[command], "--out", "o"]
        assert build_parser().parse_args(args).command == command
        with pytest.raises(SystemExit) as info:
            main([*args, "--seed", "1"])
        assert info.value.code == 1

    @pytest.mark.parametrize("command", sorted(UNSEEDED_ARGS))
    def test_config_key_unknown_where_nothing_is_drawn(self, tmp_path, command, caplog):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\n")
        assert run([command, *UNSEEDED_ARGS[command], "--config", cfg, "--out", tmp_path / "o"]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{cfg}: unknown config key 'seed'"]

    @pytest.mark.parametrize("command", sorted(SEED_ARGS))
    def test_seed_is_read(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\n")
        outputs = {}
        for tag, extra in (("flag", ["--seed", 3]), ("config", ["--config", cfg]), ("other", ["--seed", 4])):
            outputs[tag] = tmp_path / f"{tag}.out"
            assert run([command, *SEED_ARGS[command], *extra, "--out", outputs[tag]]) == 0
        data = {tag: path.read_bytes() for tag, path in outputs.items()}
        assert data["flag"] == data["config"] != data["other"]
