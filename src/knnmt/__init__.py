"""Retrieval-augmented translation datastores and transfer-analysis toolkit."""

from .align import (
    LinearMap,
    PairedContexts,
    apply_map,
    extract_training_pairs,
    fit_linear_map,
    load_linear_map,
    map_datastore,
    save_linear_map,
)
from .corpus import BOS_ID, EOS_ID, PAD_ID, Vocabulary
from .decode import (
    BeamHypothesis,
    KnnConfig,
    ToyBaseModel,
    decode_beam,
    decode_greedy,
    interpolate,
    knn_distribution,
    step_distribution,
    toy_base_model,
    trajectory_records,
)
from .features import (
    Corpus,
    RegressionReport,
    multi_parallel_overlap,
    pair_features_table,
    permutation_importance,
    predict_xsim_loo,
    size_ratio,
    src_subword_overlap,
    tgt_ngram_overlap,
    vocab_occupancy_ratio,
)
from .mteval import BleuScore, bleu
from .transfer import (
    BleuTable,
    ContextDumpSet,
    SimilarityMatrix,
    rtp,
    similarity_matrix,
    spearman,
    xsim,
)
from .vecstore import (
    NEIGHBOR_DTYPE,
    Datastore,
    DumpHeader,
    IndexSpec,
    build_datastore,
    context_rows,
    load_datastore,
    make_records,
    merge_datastores,
    query,
    read_datastore,
    read_dump,
    record_dtype,
    save_datastore,
    store_dtype,
    write_dump,
)

__version__ = "0.1.0"
