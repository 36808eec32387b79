"""Neighborhood-contrastive triple mining over citation-graph embeddings."""

from .ann import batch_neighbors
from .corpus import (
    CitationGraph,
    Document,
    filter_nodes,
    ingest_edges,
    split_edges,
    to_undirected,
)
from .encoder import EncoderParams, EncoderTrainConfig, tokenize, triplet_loss
from .graph_embed import (
    EmbeddingTable,
    GraphTrainConfig,
    LinkPredMetrics,
    eval_link_prediction,
    init_embeddings,
    train_epoch,
)
from .mining import (
    SamplingConfig,
    TripleSet,
    mine_triples,
    range_by_rank,
    subsample_triples,
)

__version__ = "0.1.0"

__all__ = [
    "CitationGraph",
    "Document",
    "EmbeddingTable",
    "EncoderParams",
    "EncoderTrainConfig",
    "GraphTrainConfig",
    "LinkPredMetrics",
    "SamplingConfig",
    "TripleSet",
    "batch_neighbors",
    "eval_link_prediction",
    "filter_nodes",
    "ingest_edges",
    "init_embeddings",
    "mine_triples",
    "range_by_rank",
    "split_edges",
    "subsample_triples",
    "to_undirected",
    "tokenize",
    "train_epoch",
    "triplet_loss",
]
