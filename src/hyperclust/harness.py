"""Experiment grids and file pipelines; every file goes through :mod:`hyperclust.fileio`.

``run_grid`` sweeps (n, m) cells of the two-regime benchmark, running
generate -> embed -> diagnostics -> cluster -> ARI per replicate. Replicates
run one after another in the calling thread, in sorted (n, m, rep) order, and
every replicate derives its random stream from the master seed and its own
(regime, n, m, rep) key, so output bytes depend only on the grid and its seed.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .cluster import (
    Partition,
    adjusted_rand_index,
    choose_k_by_gap,
    complete_linkage,
    cut_at_k,
)
from .core import BlockModelSpec, incidence_matrix, type_matrix
from .fileio import FileFormatError, read_communities, read_interactions, read_text, write_csv
from .sampling import FIXED, GROWING, RngStream, SimulationDesign, generate_design
from .spectral import (
    diagnostics,
    embed_interactions,
    nearest_neighbor_gaps,
    signal_gap,
    theoretical_embedding,
)

__all__ = [
    "ExperimentGrid",
    "CellResult",
    "GRID_CSV_COLUMNS",
    "DEFAULT_M_VALUES",
    "DEFAULT_N_VALUES",
    "DESK_M_MAX",
    "DESK_N_MAX",
    "expected_distinct_types",
    "type_partition",
    "replicate_stream",
    "run_cell",
    "run_grid",
    "write_grid_csv",
    "embed_file",
    "read_embedding_csv",
    "cluster_file",
    "diagnose_instance",
    "write_diagnostics_csv",
]

log = logging.getLogger("hyperclust.harness")

DEFAULT_M_VALUES = tuple(999 * 3**j for j in range(6))
DEFAULT_N_VALUES = tuple(10 * 2**j for j in range(6))
# the largest published cells run for hours; the desk grid keeps the suite fast
DESK_M_MAX = 8991
DESK_N_MAX = 80

_REGIME_CODE = {GROWING: 1, FIXED: 2}


def replicate_stream(regime: str, n: int, m: int, rep: int, master_seed: int) -> RngStream:
    """The random stream a grid replicate draws from; pure in its arguments."""
    return RngStream(master_seed, (_REGIME_CODE[regime], n, m, rep))


@dataclass(frozen=True)
class ExperimentGrid:
    """A sweep over (n, m) cells for one regime."""

    regime: str
    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    replicates: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.regime not in _REGIME_CODE:
            raise ValueError(f"regime must be one of {sorted(_REGIME_CODE)}, got {self.regime!r}")
        if not self.m_values or not self.n_values:
            raise ValueError("m_values and n_values must be nonempty")
        if min(self.m_values) < 1 or min(self.n_values) < 1:
            raise ValueError("grid values must be positive")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    def desk_truncated(self) -> "ExperimentGrid":
        return ExperimentGrid(
            regime=self.regime,
            m_values=tuple(m for m in self.m_values if m <= DESK_M_MAX),
            n_values=tuple(n for n in self.n_values if n <= DESK_N_MAX),
            replicates=self.replicates,
            seed=self.seed,
        )


@dataclass(frozen=True)
class CellResult:
    """One replicate's scores, diagnostics, and timing; the fields, in order,
    are the grid CSV columns."""

    regime: str
    n: int
    m: int
    rep: int
    seed: int
    ari_true_k: float
    ari_gap_k: float
    k_gap: int
    norm_R_Gamma: float
    norm_hollow: float
    norm_SW: float
    norm_Sinv: float
    norm_V_2inf: float
    norm_VS_2inf: float
    delta: float
    b: float
    runtime_ms: int


GRID_CSV_COLUMNS = [f.name for f in fields(CellResult)]


def expected_distinct_types(design: SimulationDesign) -> int:
    """How many distinct type vectors the design can produce."""
    k_max = design.k_max
    pure = k_max - 1  # sizes 2..k_max, one vector per size and class
    mixed = k_max * (k_max - 1) // 2
    return 2 * pure + mixed


def type_partition(spec: BlockModelSpec) -> Partition:
    """Group interactions by identical type vector, labelled 1..k in the
    lexicographic order of the vectors."""
    tmat = spec.type_matrix
    order = np.lexsort(tmat[::-1])  # lexsort's last key is the primary one
    ordered = tmat[:, order]
    starts = np.concatenate(([True], (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)))
    labels = np.empty(tmat.shape[1], dtype=np.int64)
    labels[order] = np.cumsum(starts)
    return Partition(labels=labels, k=int(labels[order[-1]]))


def _skip_reason(regime: str, n: int, m: int) -> str | None:
    """Why the cell cannot run, or None: m >= n, then the design's own rules."""
    if m < n:
        return "m >= n violated"
    try:
        SimulationDesign(n=n, m=m, regime=regime)
    except ValueError as exc:
        return str(exc)
    return None


def _replicate_chain(regime: str, n: int, m: int, rep: int, seed: int, selection: str):
    """Sample one replicate, embed it, and compare it with the theory:
    (design, spec, embedding, diagnostics report, signal gap)."""
    stream = replicate_stream(regime, n, m, rep, seed)
    design = SimulationDesign(n=n, m=m, regime=regime, seed=seed)
    spec, h = generate_design(design, stream)
    R = incidence_matrix(h)
    emb = embed_interactions(R, d=design.d, mode=selection, spec=spec)
    report = diagnostics(R, spec, emb, theoretical_embedding(spec))
    return design, spec, emb, report, signal_gap(spec)


def run_cell(
    regime: str,
    n: int,
    m: int,
    rep: int,
    master_seed: int,
    selection: str = "empirical",
) -> CellResult:
    """Full pipeline on one replicate of one grid cell."""
    started = time.perf_counter()
    design, spec, emb, report, gap = _replicate_chain(regime, n, m, rep, master_seed, selection)

    dend = complete_linkage(emb.embedding)
    truth = type_partition(spec)
    ari_true = adjusted_rand_index(cut_at_k(dend, truth.k), truth)
    k_cap = min(m, 4 * expected_distinct_types(design))
    k_gap = choose_k_by_gap(dend, k_cap)
    ari_gap = adjusted_rand_index(cut_at_k(dend, k_gap), truth)
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - started)))

    return CellResult(
        regime=regime,
        n=n,
        m=m,
        rep=rep,
        seed=master_seed,
        ari_true_k=float(ari_true),
        ari_gap_k=float(ari_gap),
        k_gap=int(k_gap),
        **dict(report.as_metric_rows()),
        delta=gap.delta,
        b=gap.b,
        runtime_ms=elapsed_ms,
    )


def run_grid(
    grid: ExperimentGrid,
    *,
    selection: str = "empirical",
    threads: int = 1,
    csv_path=None,
    timing: bool = False,
) -> list[CellResult]:
    """Run every retained (cell, replicate) in the calling thread, in sorted
    (n, m, rep) order; repeated axis values count once. Cells violating the
    design assumptions are skipped with a logged reason. A replicate that
    fails is logged and omitted rather than aborting the sweep.

    ``threads`` is ignored: every stage holds the GIL, so a thread pool ran
    the grid more slowly than one thread. The keyword stays only because the
    benchmark's ``grid`` workload still passes it, and goes once it stops.
    """
    results = []
    for n in sorted(set(grid.n_values)):
        for m in sorted(set(grid.m_values)):
            reason = _skip_reason(grid.regime, n, m)
            if reason:
                log.warning("skipping cell n=%d m=%d: %s", n, m, reason)
                continue
            for rep in range(grid.replicates):
                try:
                    results.append(run_cell(grid.regime, n, m, rep, grid.seed, selection))
                except Exception:
                    log.exception("replicate n=%d m=%d rep=%d failed", n, m, rep)
    if csv_path is not None:
        write_grid_csv(results, csv_path, timing=timing)
    return results


def write_grid_csv(results: list[CellResult], path, *, timing: bool = False) -> None:
    """Write results in the given order; omitting --timing zeroes runtime_ms
    so reruns are byte-identical."""
    rows = (astuple(r if timing else replace(r, runtime_ms=0)) for r in results)
    write_csv(path, GRID_CSV_COLUMNS, rows)


def embed_file(
    input_path,
    output_path,
    d: int = 2,
    mode: str = "empirical",
    communities_path=None,
    c_tilde: float | None = None,
) -> int:
    """Embed the interactions of a file and write one CSV row per interaction.

    With a community file the true type id is appended per row and oracle
    selection becomes available. Returns the number of rows written.
    """
    h = read_interactions(input_path)
    R = incidence_matrix(h)
    spec = None
    if communities_path is not None:
        spec = type_matrix(h, read_communities(communities_path))
    if mode == "oracle" and spec is None:
        raise ValueError("oracle selection needs a community file to derive the bulk values")

    emb = embed_interactions(R, d, mode, spec=spec, c_tilde=c_tilde)
    eigvals = emb.spectrum
    gaps = nearest_neighbor_gaps(eigvals)
    top = np.argsort(gaps)[::-1][: max(d, 4)]
    log.info(
        "spectrum: %d eigenvalues in [%.4g, %.4g]; widest nearest-neighbor gaps at %s",
        eigvals.size,
        eigvals[0],
        eigvals[-1],
        ", ".join(f"{eigvals[i]:.4g} (gap {gaps[i]:.4g})" for i in sorted(top)),
    )
    log.info("selected eigenvalues: %s", ", ".join(f"{v:.6g}" for v in emb.lambda_hat))

    header = ["interaction"] + [f"coord_{j + 1}" for j in range(d)]
    rows = ([p + 1] + [repr(float(v)) for v in emb.embedding[p]] for p in range(h.m))
    if spec is not None:
        header.append("type")
        rows = (row + [int(t)] for row, t in zip(rows, type_partition(spec).labels))
    write_csv(output_path, header, rows)
    return h.m


def read_embedding_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Load (indices, coordinates, types-or-None) from an embedding CSV."""
    reader = csv.DictReader(read_text(path).splitlines())
    if reader.fieldnames is None:
        raise FileFormatError(path, 1, "missing header")
    coord_names = sorted(
        (name for name in reader.fieldnames if name.startswith("coord_")),
        key=lambda s: int(s.split("_", 1)[1]),
    )
    if not coord_names:
        raise FileFormatError(path, 1, "no coord_* columns in header")
    if "interaction" not in reader.fieldnames:
        raise FileFormatError(path, 1, "no interaction column in header")
    has_type = "type" in reader.fieldnames
    indices, coords, types = [], [], []
    for line_no, row in enumerate(reader, start=2):
        try:
            indices.append(int(row["interaction"]))
            coords.append([float(row[c]) for c in coord_names])
            if has_type:
                types.append(int(row["type"]))
        except (TypeError, ValueError):
            raise FileFormatError(path, line_no, f"malformed row: {row}") from None
    if not coords:
        raise FileFormatError(path, None, "no data rows")
    return (
        np.asarray(indices),
        np.asarray(coords),
        np.asarray(types) if has_type else None,
    )


def cluster_file(
    input_path,
    output_path,
    k: int | None = None,
    k_max: int | None = None,
    dendrogram_path=None,
) -> Partition:
    """Cluster the rows of an embedding CSV and write the partition."""
    indices, coords, _ = read_embedding_csv(input_path)
    dend = complete_linkage(coords)
    chosen = k if k is not None else choose_k_by_gap(dend, k_max)
    part = cut_at_k(dend, chosen)

    labelled = zip(indices, part.labels)
    write_csv(output_path, ["item", "label"], ([int(i), int(label)] for i, label in labelled))
    if dendrogram_path is not None:
        steps = enumerate(zip(dend.merges, dend.heights), start=1)
        write_csv(
            dendrogram_path,
            ["step", "a", "b", "height"],
            ([step, a + 1, b + 1, repr(float(height))] for step, ((a, b), height) in steps),
        )
    return part


def diagnose_instance(
    n: int,
    m: int,
    regime: str,
    seed: int,
    selection: str = "empirical",
) -> list[tuple[int, int, str, int, str, float]]:
    """Diagnostic norms of one generated instance as (n, m, regime, seed, metric, value) rows."""
    _, _, _, report, gap = _replicate_chain(regime, n, m, 0, seed, selection)
    metrics = report.as_metric_rows() + [("delta", gap.delta), ("b", gap.b)]
    return [(n, m, regime, seed, name, value) for name, value in metrics]


def write_diagnostics_csv(rows, path) -> None:
    header = ["n", "m", "regime", "seed", "metric", "value"]
    write_csv(path, header, ([*key, repr(float(value))] for *key, value in rows))
