"""Non-learned prototype selection strategies.

Each selector is one per-class function, :func:`class_prototypes`, of a
class's gallery rows and the config; :func:`run_selector` applies it to
every class of a set, and the camera-filter protocol applies it to one
class's rows with the query camera left out.  All are deterministic under a
fixed seed. Ties in nearest/farthest scans are broken by lowest record
index so repeated runs agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError
from .schema import check_field_types
from .seeding import substream
from .store import SELECTOR_TAGS, EmbeddingSet, PrototypeSet

# Method names as configs and the CLI spell them: the selector tags
# without underscores ("alpha_fps" is method "alphafps").
METHODS = tuple(t.replace("_", "") for t in SELECTOR_TAGS)


@dataclass
class SelectorConfig:
    # JSON must name the method; "alpha_fps" is the store tag's spelling
    method: str = field(
        default="centroid",
        metadata={"required": True, "spellings": {"alpha_fps": "alphafps"}},
    )
    n_prototypes: int = field(default=3, metadata={"json": "n"})
    alpha: float = 0.5
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown selector method {self.method!r}")
        if self.n_prototypes < 1:
            raise ConfigError("n_prototypes must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.kmeans_max_iters < 1:
            raise ConfigError("kmeans_max_iters must be >= 1")
        if self.kmeans_tol <= 0:
            raise ConfigError("kmeans_tol must be positive")


def _min_dists(points: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points - anchor[None, :], axis=1)


def maximin_selection(points: np.ndarray, n: int, start_index: int) -> list[int]:
    """Greedy farthest-point ordering over `points`, seeded at `start_index`.

    Each pick maximizes the minimum distance to the already-selected points;
    ties resolve to the lowest index. Returns n point indices.
    """
    n = min(n, points.shape[0])
    chosen = [start_index]
    min_d = _min_dists(points, points[start_index])
    while len(chosen) < n:
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        np.minimum(min_d, _min_dists(points, points[nxt]), out=min_d)
    return chosen


def alpha_fps_points(points: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Interpolated farthest-point sampling of one class.

    Starts from the centroid, then n times: take the remaining point farthest
    from the selected prototypes, pull it a fraction alpha of the way toward
    its nearest prototype, and add it. Output row 0 is the centroid, later
    rows follow iteration order; fewer rows when the class runs out of points.
    """
    if points.shape[0] < 2:
        return points.mean(axis=0, keepdims=True)
    remaining = list(range(points.shape[0]))
    protos = [points.mean(axis=0)]
    # min distance from each remaining point to the prototype set, plus the
    # index (within protos) of the nearest prototype, kept incrementally
    d_near = _min_dists(points, protos[0])
    near_idx = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(n):
        if not remaining:
            break
        rem = np.array(remaining)
        far_pos = int(np.argmax(d_near[rem]))
        pick = int(rem[far_pos])
        remaining.remove(pick)
        p = protos[near_idx[pick]]
        # convex-combination form so alpha=0 yields the raw point and alpha=1
        # duplicates the nearest prototype, both bit-exactly
        x = alpha * p + (1.0 - alpha) * points[pick]
        protos.append(x)
        d_new = _min_dists(points, x)
        closer = d_new < d_near
        near_idx[closer] = len(protos) - 1
        d_near = np.minimum(d_near, d_new)
    return np.vstack(protos)


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 100,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, bool, list[float]]:
    """Lloyd's algorithm with greedy maximin seeding.

    Returns (centroids, labels, converged, objective_trace). The objective
    (sum of squared distances to assigned centroids) is recorded after every
    assignment step. Empty clusters are repaired by moving their centroid to
    the point farthest from its assigned centroid.
    """
    n = points.shape[0]
    k = min(k, n)
    start = int(rng.integers(n))
    centroids = points[maximin_selection(points, k, start)].astype(np.float64)

    labels = np.zeros(n, dtype=np.int64)
    objective: list[float] = []
    converged = False
    for _ in range(max_iters):
        d2 = cdist(points, centroids, metric="sqeuclidean")
        labels = np.argmin(d2, axis=1)
        objective.append(float(d2[np.arange(n), labels].sum()))

        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if members.shape[0]:
                new_centroids[j] = members.mean(axis=0)
        empty = [j for j in range(k) if not np.any(labels == j)]
        if empty:
            dist_own = np.sqrt(d2[np.arange(n), labels])
            order = np.argsort(-dist_own, kind="stable")
            taken: set[int] = set()
            for j in empty:
                for cand in order:
                    if int(cand) not in taken:
                        new_centroids[j] = points[int(cand)]
                        taken.add(int(cand))
                        break

        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift <= tol:
            converged = True
            break
    return centroids, labels, converged, objective


def class_prototypes(
    points: np.ndarray, class_id: int, cfg: SelectorConfig
) -> tuple[np.ndarray, bool]:
    """One class's prototype rows from its (|G_c|, D) gallery rows.

    Returns (rows, converged); only k-means can fail to converge.

    * instance: every gallery vector is its own prototype;
    * centroid: the arithmetic mean of the class;
    * fps: farthest-point sampling seeded at the gallery vector nearest the
      class centroid;
    * alphafps: interpolated farthest-point sampling (alpha_fps_points);
    * kcentroid: k-means centroids, k = min(N, |G_c|), seeded per class.
    """
    method = cfg.method
    if method == "instance":
        return points, True
    if method == "centroid":
        return points.mean(axis=0, keepdims=True), True
    if method == "fps":
        start = int(np.argmin(_min_dists(points, points.mean(axis=0))))
        return points[maximin_selection(points, cfg.n_prototypes, start)], True
    if method == "alphafps":
        return alpha_fps_points(points, cfg.n_prototypes, cfg.alpha), True
    if method == "kcentroid":
        rng = substream(cfg.seed, f"kmeans.{class_id}")
        centroids, _, converged, _ = kmeans(
            points, cfg.n_prototypes, rng, cfg.kmeans_max_iters, cfg.kmeans_tol
        )
        return centroids, converged
    raise ConfigError(f"selector {method!r} requires a trained model")


def run_selector(eset: EmbeddingSet, cfg: SelectorConfig) -> PrototypeSet:
    """Every class's prototypes; the gcp method lives in gcproto.model."""
    per_class = {}
    unconverged = []
    for c in eset.class_ids:
        per_class[c], converged = class_prototypes(eset.class_matrix(c), c, cfg)
        if not converged:
            unconverged.append(c)
    tag = SELECTOR_TAGS[METHODS.index(cfg.method)]
    echo = {"method": tag}
    if cfg.method in ("kcentroid", "fps", "alphafps"):
        echo["n"] = cfg.n_prototypes
    if cfg.method == "alphafps":
        echo["alpha"] = cfg.alpha
    if cfg.method == "kcentroid":
        echo["seed"] = cfg.seed
        if unconverged:
            echo["unconverged_classes"] = unconverged
    return PrototypeSet(per_class, tag, echo)
