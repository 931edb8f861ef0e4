"""Non-learned prototype selection strategies.

Each selector is one per-class function, :func:`class_prototypes`, of a
class's gallery rows and the config; :func:`run_selector` applies it to
every class of a set, and the camera-filter protocol applies it to one
class's rows with the query camera left out.  A method's name, one of
``store.METHODS``, is the tag and the echoed ``"method"`` of the prototype
set it makes.  All are deterministic under a fixed seed. Ties in
nearest/farthest scans are broken by lowest record index so repeated runs
agree bit-for-bit.

The farthest-point selectors run per class and, under camera-filter, per
(class, camera) group on a few dozen rows, so each call works in buffers
made once.  A distance scan subtracts into one (rows, D) buffer, squares
it in place, sums rows with ``np.add.reduce(axis=1)`` and takes the root
in place: the operations and contiguous layout of
``np.linalg.norm(points - anchor, axis=1)``, so every distance and pick is
bit for bit the norm's.  Interpolated farthest-point sampling writes into
one preallocated output and marks a picked point by setting its distance
to ``-inf``, so ``argmax`` over all points returns the lowest-index
farthest point not yet picked, as a scan over the remaining ones would.
Only a non-finite prototype, which ``PrototypeSet`` refuses, can make a
distance NaN and undo that mark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .schema import check_field_types
from .seeding import substream
from .store import METHOD_SPELLINGS, METHODS, EmbeddingSet, PrototypeSet


@dataclass
class SelectorConfig:
    # JSON must name the method
    method: str = field(
        default="centroid",
        metadata={"required": True, "spellings": METHOD_SPELLINGS, "choices": METHODS},
    )
    n_prototypes: int = field(default=3, metadata={"json": "n", "ge": 1})
    alpha: float = field(default=0.5, metadata={"ge": 0.0, "le": 1.0})
    kmeans_max_iters: int = field(default=100, metadata={"ge": 1})
    kmeans_tol: float = field(default=1e-9, metadata={"gt": 0.0})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_field_types(self)


def _dists(points: np.ndarray, anchor: np.ndarray, diff=None, out=None) -> np.ndarray:
    """``np.linalg.norm(points - anchor, axis=1)``, bit for bit, written
    into ``diff`` (``points``' shape) and ``out`` (one per row) when given."""
    diff = np.subtract(points, anchor, out=diff)
    np.multiply(diff, diff, out=diff)
    out = np.add.reduce(diff, axis=1, out=out)
    return np.sqrt(out, out=out)


def maximin_selection(points: np.ndarray, n: int, start_index: int) -> list[int]:
    """Greedy farthest-point ordering over `points`, seeded at `start_index`.

    Each pick maximizes the minimum distance to the already-selected points;
    ties resolve to the lowest index. Returns n point indices.
    """
    n = min(n, points.shape[0])
    chosen = [start_index]
    diff, d_new = np.empty(points.shape), np.empty(points.shape[0])
    min_d = _dists(points, points[start_index], diff)
    while len(chosen) < n:
        nxt = int(min_d.argmax())
        chosen.append(nxt)
        np.minimum(min_d, _dists(points, points[nxt], diff, d_new), out=min_d)
    return chosen


def alpha_fps_points(points: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Interpolated farthest-point sampling of one class.

    Starts from the centroid, then n times: take the remaining point farthest
    from the selected prototypes, pull it a fraction alpha of the way toward
    its nearest prototype, and add it. Output row 0 is the centroid, later
    rows follow iteration order; fewer rows when the class runs out of points.
    """
    m = points.shape[0]
    if m < 2:
        return points.mean(axis=0, keepdims=True)
    out = np.empty((min(n, m) + 1, points.shape[1]))
    out[0] = points.mean(axis=0)
    diff, d_new = np.empty(points.shape), np.empty(m)
    # min distance from each point to the prototypes, -inf once picked, and
    # the row of ``out`` holding its nearest prototype, kept incrementally
    d_near = _dists(points, out[0], diff)
    near_idx = np.zeros(m, dtype=np.int64)
    for t in range(1, len(out)):
        pick = int(d_near.argmax())
        d_near[pick] = -np.inf
        p = out[near_idx[pick]]
        # convex-combination form so alpha=0 yields the raw point and alpha=1
        # duplicates the nearest prototype, both bit-exactly
        out[t] = alpha * p + (1.0 - alpha) * points[pick]
        _dists(points, out[t], diff, d_new)
        near_idx[d_new < d_near] = t
        np.minimum(d_near, d_new, out=d_near)
    return out


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

    The assignment distances are scipy's ``cdist``, imported here on first
    use: its bits decide the labels and so the ``kcentroid`` prototypes.
    This is the only code in gcproto that loads scipy.
    """
    from scipy.spatial.distance import cdist

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
        start = int(np.argmin(_dists(points, points.mean(axis=0))))
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
    echo = {"method": cfg.method}
    if cfg.method in ("kcentroid", "fps", "alphafps"):
        echo["n"] = cfg.n_prototypes
    if cfg.method == "alphafps":
        echo["alpha"] = cfg.alpha
    if cfg.method == "kcentroid":
        echo["seed"] = cfg.seed
        if unconverged:
            echo["unconverged_classes"] = unconverged
    return PrototypeSet(per_class, cfg.method, echo)
