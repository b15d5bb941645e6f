"""Walk-based metapath augmentation for knowledge graph embeddings.

The pipeline: mine informative metapaths from the training graph, derive
metapath-to-relation rules, augment minibatches with random-walk triplets,
train a shallow embedding model with optional parameter sharing for the
minted relations, and evaluate by filtered link-prediction ranking.
"""

from .augment import (
    NewRelationRegistry,
    SegmentTable,
    build_minibatch,
    random_walk,
    walk_to_triplets,
)
from .errors import ConfigError, DataError, MiningLimitError, NumericError
from .evaluation import EvalFilter, RankingResult, compute_metrics, evaluate, rank_triplet
from .graph import (
    DatasetSplit,
    Dictionary,
    KnowledgeGraph,
    Triplet,
    build_adjacency,
    load_tsv_dataset,
    sample_edges,
)
from .mining import (
    AssociationStats,
    JoinTable,
    Metapath,
    MetapathInfo,
    PathGroup,
    correction_residual,
    mine_informative_metapaths,
    read_metapath_report,
    solve_correction,
    write_metapath_report,
)
from .models import (
    EmbeddingState,
    ModelConfig,
    TripletBatch,
    apply_update,
    batch_loss_and_grad,
    draw_negatives,
    init_state,
    loss_and_grad,
    negative_sample,
    score,
    score_and_grad,
)
from .rules import (
    RuleMap,
    build_rulemaps,
    metapath_pairs,
    read_rules_report,
    write_rules_report,
)
from .sharing import (
    BasisParams,
    RnnParams,
    SharingStrategy,
    SparseGrads,
    relation_vector,
)
from .storage import (
    Checkpoint,
    load_checkpoint,
    read_embedding_matrix,
    save_checkpoint,
    write_embedding_matrix,
    write_embedding_tsv,
)
from .training import EpochStats, TrainResult, train

__version__ = "0.1.0"

__all__ = [
    "AssociationStats", "BasisParams", "Checkpoint",
    "ConfigError", "DataError", "DatasetSplit", "Dictionary", "EmbeddingState",
    "EpochStats", "EvalFilter", "JoinTable", "KnowledgeGraph", "Metapath",
    "MetapathInfo", "MiningLimitError", "ModelConfig", "NewRelationRegistry",
    "NumericError", "PathGroup", "RankingResult", "RnnParams",
    "RuleMap", "SegmentTable", "SharingStrategy", "SparseGrads", "TrainResult", "Triplet",
    "TripletBatch", "apply_update", "batch_loss_and_grad", "build_adjacency",
    "build_minibatch", "build_rulemaps",
    "compute_metrics", "correction_residual",
    "draw_negatives", "evaluate", "init_state",
    "load_checkpoint", "load_tsv_dataset", "loss_and_grad",
    "metapath_pairs", "mine_informative_metapaths",
    "negative_sample", "random_walk", "rank_triplet", "read_embedding_matrix",
    "read_metapath_report", "read_rules_report", "relation_vector",
    "sample_edges", "save_checkpoint", "score", "score_and_grad",
    "solve_correction", "train", "walk_to_triplets",
    "write_embedding_matrix", "write_embedding_tsv", "write_metapath_report",
    "write_rules_report",
]
