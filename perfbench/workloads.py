"""The four benchmark workloads.

Each workload times one *unit* at a time: ``unit(i)`` is the timed call,
``keep(i, out)`` turns its output into a small record (untimed, and may run
light checks right away), and ``check(record)`` runs the remaining oracles
after the timed loop, once peak RSS has been read. Both return one failure
message per failed attempt. Inputs come from the workload seed only: the
program sees it as ``master_seed`` / ``--seed``, or sees the files it wrote.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from hyperclust import cli, core, fileio, harness, sampling, spectral


@dataclass
class Kept:
    """What one unit leaves for the report: replicates attempted, failures
    found so far, a record for ``check`` and the (ari_true_k, ari_gap_k)
    pairs of the replicates it clustered."""

    attempts: int
    failures: list[str]
    record: object = None
    ari: list[tuple[float, float]] = field(default_factory=list)


class Workload:
    """Defaults: one replicate per unit, single-threaded, nothing left to
    check after the loop, no extra information."""

    replicates = 1
    threads = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def check(self, record) -> list[str]:
        return []

    def info(self, kept: list[Kept]) -> dict:
        return {}


def _swap(module, name, make):
    """Rebind ``module.name`` to ``make(current)``; returns a restore callable.

    Used to capture what a stage returned without changing what it does.
    """
    inner = getattr(module, name)
    setattr(module, name, make(inner))
    return lambda: setattr(module, name, inner)


class Linkage(Workload):
    """run_cell at fixed(40, 4995), a smaller m than the c05 cell
    fixed(40, 8991) so that a run holds ten or more replicates.

    Complete linkage dominates the replicate and its m x m distance matrix
    sets the peak; many embedded rows repeat, so duplicate collapsing and
    condensed/NN-chain linkage show here.
    """

    name = "linkage"
    unit_label = "one run_cell replicate"
    regime, n, m = "fixed", 40, 4995

    def warm_up(self) -> None:
        harness.run_cell("fixed", 10, 99, 0, self.seed)

    def unit(self, i: int):
        captured = []

        def capture(inner):
            def complete_linkage(points):
                dend = inner(points)
                captured.append((np.asarray(points), dend.merges, dend.heights))
                return dend

            return complete_linkage

        restore = _swap(harness, "complete_linkage", capture)
        try:
            result = harness.run_cell(self.regime, self.n, self.m, i, self.seed)
        finally:
            restore()
        return result, captured

    def keep(self, i: int, out) -> Kept:
        result, captured = out
        failures = []
        if result.ari_true_k < oracles.ARI_TRUE_K_MIN:
            failures.append(f"rep {i}: ari_true_k {result.ari_true_k} < {oracles.ARI_TRUE_K_MIN}")
        if len(captured) != 1:
            failures.append(f"rep {i}: complete_linkage ran {len(captured)} times, expected 1")
        # the dendrogram replay costs about half a replicate, so it checks the
        # first replicate of every run; the ARI bound checks all of them
        record = (i, captured) if i == 0 and len(captured) == 1 else None
        return Kept(1, failures[:1], record, [(result.ari_true_k, result.ari_gap_k)])

    def check(self, record) -> list[str]:
        if record is None:
            return []
        i, captured = record
        return [f"rep {i}: {msg}" for msg in oracles.complete_linkage(*captured[0])]


class Spectral(Workload):
    """The run_cell chain without clustering at fixed(80, 26973).

    Sampling, the hollowed Gram (built twice) and the dense n x m diagnostics
    carry the replicate; the cluster layer does not run at all.
    """

    name = "spectral"
    unit_label = "one replicate of the chain generate -> type_partition"
    regime, n, m = "fixed", 80, 26973

    def _chain(self, n: int, m: int, rep: int):
        grams = []

        def capture(inner):
            def hollowed_gram(R):
                g = inner(R)
                grams.append(np.array(g.matrix))
                return g

            return hollowed_gram

        restore = _swap(spectral, "hollowed_gram", capture)
        try:
            stream = harness.replicate_stream(self.regime, n, m, rep, self.seed)
            design = sampling.SimulationDesign(n=n, m=m, regime=self.regime, seed=self.seed)
            spec, h = sampling.generate_design(design, stream)
            R = core.incidence_matrix(h)
            emb = spectral.embed_interactions(R, d=design.d, mode="empirical", spec=spec)
            theo = spectral.theoretical_embedding(spec)
            report = spectral.diagnostics(R, spec, emb, theo)
            gap = spectral.signal_gap(spec)
            truth = harness.type_partition(spec)
        finally:
            restore()
        return spec, h, emb, report, gap, truth, grams

    def warm_up(self) -> None:
        self._chain(10, 99, 0)

    def unit(self, i: int):
        return self._chain(self.n, self.m, i)

    def keep(self, i: int, out) -> Kept:
        spec, h, emb, report, gap, truth, grams = out
        failures = oracles.spectral_chain(
            h.interactions,
            np.asarray(spec.z),
            spec.type_matrix,
            spec.d,
            grams,
            emb.u_hat,
            emb.lambda_hat,
            report.incidence_error,
            report.gram_error,
            gap.delta,
        )
        if truth.size != self.m:
            failures.append(f"type partition covers {truth.size} interactions, expected {self.m}")
        return Kept(1, [f"rep {i}: " + "; ".join(failures)] if failures else [])


GRID_N = (10, 20, 40, 80)
GRID_M = (999,)
GRID_REPLICATES = 2
GRID_THREADS = 2


class Grid(Workload):
    """run_grid with 2 threads over both regimes, n in {10, 20, 40, 80},
    m = 999, 2 replicates: 16 small replicates per pass, so fixed
    per-replicate costs and the thread pool show here and nowhere else."""

    name = "grid"
    unit_label = f"one grid pass ({2 * len(GRID_N) * len(GRID_M) * GRID_REPLICATES} replicates)"
    replicates = 2 * len(GRID_N) * len(GRID_M) * GRID_REPLICATES
    threads = GRID_THREADS

    def _pass(self, pass_seed: int, n_values, m_values, replicates: int):
        out = {}
        for regime in (sampling.GROWING, sampling.FIXED):
            grid = harness.ExperimentGrid(
                regime=regime, m_values=m_values, n_values=n_values, replicates=replicates, seed=pass_seed
            )
            path = self.workdir / f"grid-{regime}-{pass_seed}.csv"
            rows = harness.run_grid(grid, threads=GRID_THREADS, csv_path=path)
            out[regime] = (grid, rows, path)
        return out

    def warm_up(self) -> None:
        self._pass(self.seed, (10,), (99,), 1)

    def unit(self, i: int):
        return self._pass(self.seed * 1000 + i, GRID_N, GRID_M, GRID_REPLICATES)

    def keep(self, i: int, out) -> Kept:
        failures, ari, dropped = [], [], 0
        digest = hashlib.sha256()
        for regime, (grid, rows, path) in out.items():
            expected = {
                (regime, n, m, rep, grid.seed)
                for n in GRID_N
                for m in GRID_M
                for rep in range(GRID_REPLICATES)
            }
            seen = set()
            for r in rows:
                key = (r.regime, r.n, r.m, r.rep, r.seed)
                values = (r.ari_true_k, r.ari_gap_k, r.norm_R_Gamma, r.norm_hollow, r.norm_VS_2inf, r.delta)
                if key not in expected or key in seen:
                    failures.append(f"pass {i}: unexpected row {key}")
                elif not all(math.isfinite(v) for v in values) or not (
                    -1.0 <= r.ari_true_k <= 1.0 and -1.0 <= r.ari_gap_k <= 1.0 and r.k_gap >= 1
                ):
                    failures.append(f"pass {i}: row {key} out of range: {values} k_gap={r.k_gap}")
                else:
                    ari.append((r.ari_true_k, r.ari_gap_k))
                seen.add(key)
            missing = sorted(expected - seen)
            dropped += len(missing)
            failures += [f"pass {i}: replicate {key} dropped" for key in missing]
            digest.update(path.read_bytes())
            path.unlink()
        return Kept(self.replicates, failures, (digest.hexdigest(), dropped), ari)

    def info(self, kept: list[Kept]) -> dict:
        return {
            "grid_csv_sha256": kept[0].record[0],
            "replicates_dropped": sum(k.record[1] for k in kept),
        }


class Files(Workload):
    """In-process CLI simulate -> embed --communities -> plot --kind scatter
    at growing(320, 8991): the only workload through fileio, cli and svgplot,
    with Gram cliques up to k = 160 and the extra spectrum pass embed_file
    makes at INFO logging."""

    name = "files"
    unit_label = "one simulate -> embed -> plot pipeline"
    regime, n, m = "growing", 320, 4995

    def _pipeline(self, tag: str, n: int, m: int, seed: int):
        d = self.workdir / tag
        d.mkdir(parents=True, exist_ok=True)
        h, z, emb, svg = (str(d / name) for name in ("h.txt", "z.txt", "emb.csv", "emb.svg"))
        codes = [
            cli.main(["simulate", "--n", str(n), "--m", str(m), "--regime", self.regime,
                      "--seed", str(seed), "--out", h, "--communities-out", z]),
            cli.main(["embed", "--input", h, "--communities", z, "--out", emb]),
            cli.main(["plot", "--results", emb, "--kind", "scatter", "--no-timestamp", "--out", svg]),
        ]
        return d, codes

    def warm_up(self) -> None:
        d, _ = self._pipeline("warm-up", 10, 99, self.seed)
        shutil.rmtree(d)

    def unit(self, i: int):
        return self._pipeline(f"unit-{i}", self.n, self.m, self.seed * 1000 + i)

    def keep(self, i: int, out) -> Kept:
        d, codes = out
        if any(codes):
            return Kept(1, [f"pipeline {i}: CLI exit codes {codes}"], None)
        return Kept(1, [], (i, d))

    def check(self, record) -> list[str]:
        if record is None:
            return []
        i, d = record
        h = fileio.read_interactions(d / "h.txt")
        failures = []
        z = [line for line in (d / "z.txt").read_text(encoding="utf-8").splitlines() if line.strip()]
        if h.n != self.n or h.m != self.m or len(z) != self.n:
            failures.append(f"simulate wrote n={h.n} m={h.m} with {len(z)} labels")
        else:
            # embedding the re-read file again costs a third of a pipeline, so
            # coordinates are compared on the first pipeline of every run
            reference = None
            if i == 0:
                reference = spectral.embed_interactions(core.incidence_matrix(h), 2).embedding
            failures += oracles.embedding_csv(d / "emb.csv", self.m, 2, reference)
        failures += oracles.svg_document(d / "emb.svg")
        shutil.rmtree(d)
        return [f"pipeline {i}: " + "; ".join(failures)] if failures else []


WORKLOADS = {w.name: w for w in (Linkage, Spectral, Grid, Files)}
