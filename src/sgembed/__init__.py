"""Signed-network embeddings trained adversarially over balance-aware
tree walks, with a link-sign prediction evaluation stack."""

__version__ = "0.1.0"

from .sgraph import (
    EdgeListError,
    EdgeListSpec,
    LoadReport,
    Sign,
    SignedGraph,
    inject_sparsity,
    load_edge_list,
    random_connected_graph,
    save_edge_list,
    synth_balanced,
    top_degree_subgraph,
)
from .treewalk import (
    BfsTree,
    RelevanceTable,
    WalkBatch,
    build_bfs_tree,
    propagate,
    relevance_table,
    sample_walk,
    touched_nodes,
    tree_distribution,
)
from .generator import (
    DivergenceError,
    EmbeddingMatrix,
    generate_fakes,
    init_embeddings,
    policy_gradient_update,
)
from .discriminator import EDGE_DTYPE, edge_batch, sample_true_batch
from .trainer import (
    CheckpointError,
    TrainConfig,
    TrainReport,
    TrainState,
    TrainingDiverged,
    checkpoint,
    resume,
    train,
)
from .evalkit import (
    BalanceAudit,
    EdgeFeatureMode,
    FoldMetrics,
    MetricsReport,
    balance_audit,
    edge_feature_matrix,
    fold_metrics,
    kfold_link_prediction,
    logreg_predict_proba,
    logreg_train,
    sparsity_sweep,
    stratified_edge_folds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
