"""Generalized class prototypes for embedding-based retrieval.

Selectors turn a labeled gallery of embedding vectors into per-class
prototype sets (instances, centroids, k-means centroids, farthest-point
variants, or a learned attention decoder); the retrieval stack ranks
queries against prototypes and scores CMC/mAP; the harness wires it all
into reproducible experiments.
"""

from .errors import GcprotoError
from .model import (
    GcpConfig,
    GcpModel,
    build_memory,
    generate_prototypes,
    load_model,
    save_model,
    select_gcp,
    train,
)
from .retrieval import EvalReport, evaluate
from .selectors import SelectorConfig, run_selector
from .store import (
    EmbeddingRecord,
    EmbeddingSet,
    PrototypeSet,
    align_labels,
    load_embedding_set,
    save_embedding_set,
)
from .synthetic import (
    SyntheticSpec,
    generate_synthetic,
    tradeoff_spec,
    tradeoff_training,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingRecord",
    "EmbeddingSet",
    "EvalReport",
    "GcpConfig",
    "GcpModel",
    "GcprotoError",
    "PrototypeSet",
    "SelectorConfig",
    "SyntheticSpec",
    "align_labels",
    "build_memory",
    "evaluate",
    "generate_prototypes",
    "generate_synthetic",
    "load_embedding_set",
    "load_model",
    "run_selector",
    "save_embedding_set",
    "save_model",
    "select_gcp",
    "tradeoff_spec",
    "tradeoff_training",
    "train",
]
