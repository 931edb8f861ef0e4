"""Brute-force ranking oracle for the retrieval and acceptance tests.

``rank_query`` ranks one query against every prototype of a set with exact
``np.linalg.norm`` distances, computed here, and a stable sort; ``evaluate``,
the package's one ranking path, must agree with it.  It reads a set only
through ``per_class`` and ``total_count`` and stacks the rows itself, so it
shares no packing code with the evaluator either.
"""

from dataclasses import dataclass

import numpy as np

from gcproto.errors import DimensionMismatchError, EmptyPrototypeSetError
from gcproto.store import EmbeddingRecord, PrototypeSet


@dataclass(frozen=True)
class Ranking:
    query_id: str
    entries: tuple[tuple[int, int, float], ...]  # (class_id, prototype_index, distance)
    tie_rule_applied: bool


def rank_query(query: EmbeddingRecord, prototypes: PrototypeSet) -> Ranking:
    """Full ascending ranking of one query against every prototype.

    Rows are stacked in (class, prototype index) order, so a stable sort on
    distance applies the tie rule.
    """
    if prototypes.total_count() == 0:
        raise EmptyPrototypeSetError("cannot rank against an empty prototype set")
    per_class = prototypes.per_class
    ids = sorted(per_class)
    mat = np.vstack([per_class[c] for c in ids])
    keys = [(c, j) for c in ids for j in range(len(per_class[c]))]
    if mat.shape[1] != query.vector.shape[0]:
        raise DimensionMismatchError(
            f"query dimension {query.vector.shape[0]} vs prototypes {mat.shape[1]}"
        )
    # coded here, not imported, so the reference shares no code with the
    # kernel it checks; a distance too large for float64 is inf
    with np.errstate(over="ignore"):
        dists = np.linalg.norm(mat - query.vector, axis=1)
    order = np.argsort(dists, kind="stable")
    sorted_d = dists[order]
    tie = bool(np.any(sorted_d[1:] == sorted_d[:-1])) if len(sorted_d) > 1 else False
    entries = tuple((*keys[i], float(dists[i])) for i in order)
    return Ranking(query_id=query.id, entries=entries, tie_rule_applied=tie)
