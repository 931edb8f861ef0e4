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
made once.  Every distance scan, the k-means centroid shift and the
evaluator's exact re-check call :func:`row_dists`, so every distance and
pick is bit for bit ``np.linalg.norm``'s.  Interpolated farthest-point
sampling writes into one preallocated output and marks a picked point by
setting its distance to ``-inf``, so ``argmax`` over all points returns
the lowest-index farthest point not yet picked, as a scan over the
remaining ones would.  Only a non-finite prototype, which ``PrototypeSet``
refuses, can make a distance NaN and undo that mark.  A distance that
overflows is ``inf`` without a warning: :func:`class_prototypes` runs
each selector under one ``np.errstate``.  Each farthest-point selection
makes one distance pass per selected row, the centroid or seed first,
except the last row, whose distances nothing reads: ``min(n, m)`` passes
for interpolated sampling of m >= 2 points, ``min(n, m) - 1`` for
:func:`maximin_selection`.
k-means and the learned generator's negative mining share one
squared-distance kernel, :func:`ordered_sq_dists`.
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
    # largest centroid shift at convergence, relative to the class's spread
    kmeans_tol: float = field(default=1e-9, metadata={"gt": 0.0})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_field_types(self)


def row_dists(points: np.ndarray, anchor: np.ndarray, diff=None, out=None) -> np.ndarray:
    """The package's one kernel for ``np.linalg.norm(points - anchor, axis=1)``,
    bit for bit by the norm's operations and layout, for a 1-D ``anchor`` or
    one of ``points``' shape; into ``diff`` and ``out`` when given."""
    diff = np.subtract(points, anchor, out=diff)
    np.multiply(diff, diff, out=diff)
    out = np.add.reduce(diff, axis=1, out=out)
    return np.sqrt(out, out=out)


def _sq_dists_cumsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One cumulative sum along D of the (na, nb, D) squared differences."""
    diff = a[:, None, :] - b[None, :, :]
    np.multiply(diff, diff, out=diff)
    return np.cumsum(diff, axis=2, out=diff)[:, :, -1]


def _sq_dists_by_dimension(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One (na, nb) accumulator that adds one dimension's squares at a time."""
    acc = np.zeros((len(a), len(b)))
    buf = np.empty_like(acc)
    for col_a, col_b in zip(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)):
        np.subtract.outer(col_a, col_b, out=buf)
        np.multiply(buf, buf, out=buf)
        acc += buf
    return acc


# Pair count up to which the cumsum form is the faster one.  Per call on a
# 2-core x86_64 host (numpy 2.4, D = 32 to 512) the two cross between 500
# and 900 pairs: k-means' 20 x 3 at D = 512 takes ~150 us by cumsum against
# ~1.3 ms by dimension, and mining's 128 x 128 at D = 32 ~1 ms by dimension
# against ~5.5 ms by cumsum.
_CUMSUM_MAX_PAIRS = 512


def ordered_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (na, D) and of
    ``b`` (nb, D), as an (na, nb) array: scipy's ``cdist(a, b,
    "sqeuclidean")``, bit for bit.

    Each pair's squared differences are summed one dimension at a time, in
    dimension order, starting from zero.  :func:`_sq_dists_cumsum` and
    :func:`_sq_dists_by_dimension` both keep that order, so they give the
    same bits; the pair count picks the faster one.  A square that
    overflows makes its pair ``inf``, without a warning.

    ``retrieval.cdist`` does not use this kernel: its certified rank margin
    covers any summation order, and at the camera-filter splice's few rows
    an ordered sum costs about twice as much per call (2 x 3 at D = 512:
    ~30 against ~16 us on a 2-core x86_64 host).
    """
    form = _sq_dists_cumsum if len(a) * len(b) <= _CUMSUM_MAX_PAIRS else _sq_dists_by_dimension
    with np.errstate(over="ignore", invalid="ignore"):
        return form(a, b)


def maximin_selection(points: np.ndarray, n: int, start_index: int) -> list[int]:
    """Greedy farthest-point ordering over `points`, seeded at `start_index`.

    Each pick maximizes the minimum distance to the already-selected points;
    ties resolve to the lowest index. Returns n point indices.
    """
    n = min(n, points.shape[0])
    chosen = [start_index]
    diff, d_new = np.empty(points.shape), np.empty(points.shape[0])
    min_d = np.full(points.shape[0], np.inf)  # the distance to no pick at all
    while len(chosen) < n:
        np.minimum(min_d, row_dists(points, points[chosen[-1]], diff, d_new), out=min_d)
        chosen.append(int(min_d.argmax()))
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
    np.divide(np.add.reduce(points, axis=0), m, out=out[0])  # ``points.mean(axis=0)``
    diff, d_new = np.empty(points.shape), np.empty(m)
    # min distance from each point to the prototypes, -inf once picked, and
    # the row of ``out`` holding its nearest prototype, kept incrementally
    d_near = row_dists(points, out[0], diff)
    near_idx = np.zeros(m, dtype=np.int64)
    for t in range(1, len(out)):
        pick = int(d_near.argmax())
        # convex-combination form so alpha=0 yields the raw point and
        # alpha=1 duplicates the nearest prototype, both bit-exactly
        np.multiply(out[near_idx[pick]], alpha, out=out[t])
        out[t] += (1.0 - alpha) * points[pick]
        if t == len(out) - 1:
            break  # nothing reads the distances to the last row
        d_near[pick] = -np.inf
        row_dists(points, out[t], diff, d_new)
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
    the point farthest from its assigned centroid, the i-th empty one to the
    i-th farthest.  It converges once no centroid moves more than ``tol``
    times the largest distance of a point from the points' mean, or at all
    if that overflows; a power-of-two scale thus changes no decision.

    The assignment distances come from :func:`ordered_sq_dists`, which
    sums in dimension order as scipy's ``cdist`` does: their bits decide
    the labels and so the ``kcentroid`` prototypes, and no scipy is loaded.
    """
    n = points.shape[0]
    k = min(k, n)
    start = int(rng.integers(n))
    centroids = points[maximin_selection(points, k, start)].astype(np.float64, copy=False)
    spread = float(np.max(row_dists(points, points.mean(axis=0))))
    limit = tol * spread if spread < np.inf else 0.0

    labels = np.zeros(n, dtype=np.int64)
    objective: list[float] = []
    converged = False
    for _ in range(max_iters):
        d2 = ordered_sq_dists(points, centroids)
        labels = np.argmin(d2, axis=1)
        objective.append(float(d2[np.arange(n), labels].sum()))

        new_centroids = centroids.copy()
        empty = []
        for j in range(k):
            members = points[labels == j]
            if members.shape[0]:
                new_centroids[j] = members.mean(axis=0)
            else:
                empty.append(j)
        if empty:
            order = np.argsort(-np.sqrt(d2[np.arange(n), labels]), kind="stable")
            for j, cand in zip(empty, order):  # k <= n: a point for each
                new_centroids[j] = points[cand]

        shift = float(np.max(row_dists(new_centroids, centroids)))
        centroids = new_centroids
        if shift <= limit:
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
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "fps":
            start = int(np.argmin(row_dists(points, points.mean(axis=0))))
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
