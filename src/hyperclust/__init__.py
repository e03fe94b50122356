"""Sampling, spectral embedding, and clustering of interaction hypergraphs."""

from .cluster import (
    Dendrogram,
    Partition,
    adjusted_rand_index,
    choose_k_by_gap,
    complete_linkage,
    cut_at_k,
)
from .core import (
    BlockModelSpec,
    InteractionHypergraph,
    incidence_matrix,
    mean_matrix,
    type_matrix,
)
from .fileio import (
    FileFormatError,
    read_communities,
    read_interactions,
    write_communities,
    write_interactions,
)
from .harness import CellResult, ExperimentGrid, run_grid, type_partition
from .sampling import (
    RngStream,
    SimulationDesign,
    draw_weighted_sequence,
    generate_design,
    sample_hyper_sbm,
    sample_weighted_without_replacement,
)
from .spectral import (
    DiagnosticsReport,
    EmbeddingResult,
    ExpectedGramStructure,
    HollowedGram,
    SignalGap,
    SignalSelectionError,
    TheoreticalEmbedding,
    diagnostics,
    embed_interactions,
    expected_gram,
    hollowed_gram,
    min_type_separation,
    procrustes_align,
    select_signal_eigenpairs,
    signal_gap,
    theoretical_embedding,
    two_to_inf,
)

__version__ = "0.1.0"
