"""chainrec: multi-behavior recommendation on multiplex bipartite graphs.

Learns user/item embeddings from explicit behavior patterns (exact relation
subsets per user-item pair) and implicit relation chains (staged transforms
along the relation order), trains them jointly with weighted ranking and
contrastive losses, and evaluates full-catalog top-K recommendation.
"""

from .config import RunConfig, make_config
from .graph import (DatasetSplit, MultiplexBipartiteGraph, RelationSchema,
                    load_interactions, make_schema, split_train_test)
from .model import DualChannelModel, ModelParams, TrainBatch, TrainingAbort
from .training import TrainResult, evaluate_model, train

__version__ = "0.1.0"

__all__ = [
    "DatasetSplit", "DualChannelModel", "ModelParams", "MultiplexBipartiteGraph",
    "RelationSchema", "RunConfig", "TrainBatch", "TrainResult", "TrainingAbort",
    "evaluate_model", "load_interactions", "make_config", "make_schema",
    "split_train_test", "train", "__version__",
]
