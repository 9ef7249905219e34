"""Tensor-format score networks, rank certificates and training experiments."""

from .decompositions import (
    CPTensor,
    HTTensor,
    TTTensor,
    cp_random,
    cp_to_dense,
    entry,
    ht_random,
    ht_to_dense,
    ranks_from_dense,
    tt_delta_example,
    tt_equal_cores_random,
    tt_random,
    tt_to_dense,
)
from .networks import (
    FeatureMap,
    PatchConfig,
    ScoreNetwork,
    apply_feature_map,
    build_similarity_network,
    extract_patches,
    make_score_network,
    network_gradients,
)
from .rank_analysis import (
    RankReport,
    cp_rank_lower_bound,
    verify_ht_tt_bounds,
    verify_hypothesis1,
    verify_theorem1,
)
from .svd import numerical_rank, singular_values
from .tensor import inner_product, matricize, odd_even_split
from .training import (
    Dataset,
    TrainConfig,
    adam_step,
    cross_entropy,
    decision_grid,
    make_circles,
    make_moons,
    train,
    train_lr_sweep,
)

__version__ = "0.1.0"
