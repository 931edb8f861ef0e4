"""Prototype-based ranking and evaluation: CMC and mAP.

A query is matched against every prototype of every class by Euclidean
distance.  Rankings break distance ties by (class_id, prototype_index) so
results are reproducible byte-for-byte.  Average precision treats each
own-class prototype as a relevant item by default; a collapsed mode that
scores only the first own-class hit is available since multi-prototype
galleries admit both readings.

``evaluate`` needs only where each own-class prototype falls in a query's
ranking.  It takes queries in blocks of ``QUERY_BLOCK`` and gets squared
distances to the packed prototypes from one GEMM per block
(‖q‖² + ‖p‖² − 2qpᵀ, the decomposition used by exact L2 search in
FAISS); each block's query rows and distances go into two buffers that
every block reuses.  A block's GEMM of at least twice ``PART_FLOPS``
runs as contiguous column parts of that one buffer, at most one per core
the process may use (its CPU affinity) and each of at least
``PART_FLOPS``: the caller's thread computes the first part and worker
threads the rest, each packing and multiplying its own slice of the
prototype matrix with the GIL released (Goto and van de Geijn, "Anatomy
of High-Performance Matrix Multiplication", ACM TOMS 2008).  A worker
lives for one block's product: it starts when that product splits and is
joined before the block is ranked, so none outlives ``evaluate``.
A set made by ``PrototypeSet.replace_class`` rebuilds one class, as
the camera-filter protocol rebuilds the query's own, and serves only
queries of that class (any other is a ``ConfigError``): each is ranked
against its base's packed matrix, ``flattened()``, with the base's rows
of the class left out, and the rebuilt rows get squared distances to the
set's queries from one call per set of this module's :func:`cdist`, so
the protocol costs one GEMM plus a few rows per (class, camera) group.
That :func:`cdist` sums in numpy's pairwise order, not in dimension
order as ``selectors.ordered_sq_dists`` does for k-means and mining: the
certified margin below covers any summation order.  The squared norms
these distances need are computed here too; the store keeps none.  Each
own-class item is ranked by counting the prototypes certainly nearer
than it, given a certified rounding margin on these approximate
distances; a prototype inside the margin is re-checked with exact
distances, from ``selectors.row_dists``, under the tie rule.  The margin
holds for any GEMM kernel and any column partition, so every rank equals
the brute-force rank: the report does not depend on the block, the BLAS
library, its thread count or the number of column parts.

Each query is scored where it is ranked: its AP and first own-class hit
are kept, nothing else.  A CMC value is an integer count of first hits
divided by the number of queries n; the mAP and the per-bucket means are
sequential scalar sums in query order divided by their count.  An
independently coded brute-force implementation that follows the same
definitions therefore produces bit-identical mAP and CMC values.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, EmptyPrototypeSetError
from .schema import csv_text, json_text
from .selectors import row_dists
from .store import EmbeddingSet, PrototypeSet

DEFAULT_MAX_RANK = 25
# Queries per GEMM in ``evaluate``; bounds the block's (queries, P)
# approximate distance matrix, one buffer reused by every block.
QUERY_BLOCK = 128
# Least flops (2 · queries · P · dim) in one column part of a block's GEMM,
# so a product below twice this (~134 MFLOP) runs whole on the caller's
# thread.  One 128-query block at dim 512 on a 2-core host, 1 BLAS thread,
# two parts against one, three rounds: 0.56–0.57 of the time at 655 MFLOP,
# 0.74 at 131, 0.82–1.04 at 98, 0.83–1.03 at 66 and 1.13–1.42 at 26, where
# starting and joining the worker outweighs its half of the product.
PART_FLOPS = 2**26

AP_MODES = ("per_prototype", "per_identity")


def check_max_rank(max_rank: int) -> None:
    """Raise ConfigError unless ``1 <= max_rank <= 2**20``: a CMC of 2**20
    float64 values is 8 MB, far past the largest gallery ranked here (5,000
    prototypes), and a deeper one may not fit in memory."""
    if not 1 <= max_rank <= 2**20:
        raise ConfigError(f"max_rank must lie in [1, 2**20], got {max_rank}")


@dataclass
class EvalReport:
    cmc: list[float]  # rank-1 .. rank-K accuracy
    top1: float
    map: float
    per_group: dict[str, dict] = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)
    per_query_ap: list | None = None  # [query_id, ap] pairs in query order
    missing_class_query_ids: list[str] = field(default_factory=list)
    n_queries: int = field(default=0, metadata={"ge": 0})


def _ap_from_relevance_ranks(ranks: Sequence[int], mode: str) -> float:
    """AP given the 1-based ranks of one or more relevant items, best first.

    Scalar accumulation in rank order keeps the value reproducible by any
    implementation that follows the same summation order.
    """
    if mode == "per_identity":
        return 1.0 / int(ranks[0])
    total = 0.0
    for i, r in enumerate(ranks, start=1):
        total += i / int(r)
    return total / len(ranks)


def _mean(values: Sequence[float]) -> float:
    """Mean by sequential scalar sums in order; the builtin ``sum``
    compensates its rounding on Python 3.12 and later."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _as_pset_groups(
    queries: EmbeddingSet,
    prototypes_per_query,
) -> list[tuple[PrototypeSet, list[int]]]:
    """Group query row indices by the identity of their prototype set."""
    if isinstance(prototypes_per_query, PrototypeSet):
        return [(prototypes_per_query, list(range(len(queries))))]
    groups: dict[PrototypeSet, list[int]] = {}
    for qi, query_id in enumerate(queries.ids):
        try:
            pset = prototypes_per_query[query_id]
        except KeyError:
            raise ConfigError(f"no prototype set supplied for query {query_id!r}")
        groups.setdefault(pset, []).append(qi)
    return list(groups.items())


def _sq_norms(mat: np.ndarray) -> np.ndarray:
    """Squared norm of each row; a huge finite row squares to inf, which
    ``own_ranks`` catches with its finiteness check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ij,ij->i", mat, mat)


def _cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_parts(fill, spans: list[tuple[int, int]]) -> None:
    """``fill(lo, hi)`` for each span: the first on the caller's thread and
    each other on a worker thread of its own, all joined before this
    returns; an exception a worker raised is raised again here."""
    errors: list[BaseException] = []

    def work(lo: int, hi: int) -> None:
        try:
            fill(lo, hi)
        except BaseException as exc:  # raised again on the caller's thread
            errors.append(exc)

    workers = []
    try:
        for span in spans[1:]:
            worker = threading.Thread(target=work, args=span, name="gcproto-gemm")
            worker.start()
            workers.append(worker)
        fill(*spans[0])
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]


def cdist(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (len(xa), len(xb)): the rounded
    differences squared in place and summed over the dimensions; a square
    or sum too large for float64 is inf, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = xa[:, None, :] - xb
        np.square(diff, out=diff)
        return np.add.reduce(diff, axis=2)


class _Splice:
    """The rows a set made by ``replace_class`` holds for its one rebuilt
    class, with their squared distances to the set's queries of that class
    from one ``cdist`` call."""

    def __init__(self, qmat: np.ndarray, rows: np.ndarray):
        self.rows = rows
        self.max_sq_norm = float(_sq_norms(rows).max(initial=0.0))
        self.approx = cdist(qmat, rows)


# Rounding margin of the approximate distances.  Let n = dim, u = 2**-53,
# γ_k = k·u / (1 − k·u); for a query q and a prototype p let t = ‖p − q‖²
# in real arithmetic, and S = ‖q‖² + max‖p‖² over the packed and spliced
# rows, so t ≤ 2S.  The dot-product bound |fl(xᵀy) − xᵀy| ≤ γ_n·|x|ᵀ|y|
# (Higham, Accuracy and Stability of Numerical Algorithms, eq. 3.5) holds
# for any summation order, with or without FMA, so it covers every BLAS
# kernel and BLAS thread split, and every column partition of the GEMM,
# whose parts form each entry from the same q and p as the whole product:
#   * GEMM: the cached ‖p‖² and the block's ‖q‖² are each off by ≤ γ_n of
#     themselves, qᵀp by ≤ γ_n·(‖q‖² + ‖p‖²)/2, and a = (−2·qᵀp + ‖p‖²) + ‖q‖²
#     adds two roundings of terms below 2(‖q‖² + ‖p‖²)(1 + γ_n), so
#     |a − t| ≤ (2γ_n + 4u(1 + γ_n))·S;
#   * ``cdist`` sums rounded squares of rounded differences, in whatever
#     order ``np.add.reduce`` takes: |a − t| ≤ γ_{n+2}·t ≤ 2γ_{n+2}·S;
#   * the exact path d = √Σ(p_i − q_i)² (``selectors.row_dists``) rounds
#     each difference, its square, the sum and the root: |d² − t| ≤ γ_{n+4}·t.
# Every approximation a thus lies within E + D of its row's d², with
# E ≈ (2n + 4)·u·S and D = 2γ_{n+4}·S ≈ (2n + 8)·u·S, and so does the j-th
# smallest own-class approximation A_j of the j-th smallest own-class d_j².
# Hence a < A_j − 2(E + D) proves d < d_j and a > A_j + 2(E + D) proves
# d > d_j.  The thresholds fl(A_j ∓ m) add a rounding of at most
# u·(2S + E + m), so they certify once
#   m ≥ 2(E + D) + u·(2S + E + m),   i.e. m ≳ (8n + 26)·u·S.
# The margin below doubles (8n + 32)·u·S, which covers the second-order
# terms and S itself being rounded; the η term (smallest subnormal) covers
# the absolute error an operation may add on underflow.
_U = 2.0**-53
_ETA = float(np.finfo(np.float64).smallest_subnormal)


def _margin(dim: int, scale: float) -> float:
    return 2.0 * (8 * dim + 32) * (_U * scale + _ETA)


def _certified(values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Rank approximate squared distances against own-class thresholds.

    ``lo``/``hi`` are the ascending thresholds A_j ∓ margin.  Returns the
    count of ``values`` certainly nearer than each own item, then the
    positions left unsure for some own item j (``lo[j] <= value <= hi[j]``)
    with their window of such j, ``[w_lo, w_hi)``.
    """
    ranked = np.sort(values)
    before = np.searchsorted(ranked, lo, side="left")
    if np.array_equal(np.searchsorted(ranked, hi, side="right"), before):
        none = np.empty(0, dtype=np.int64)
        return before, none, none, none
    cols = np.flatnonzero((values >= lo[0]) & (values <= hi[-1]))
    w_lo = np.searchsorted(hi, values[cols], side="left")
    w_hi = np.searchsorted(lo, values[cols], side="right")
    unsure = w_lo < w_hi
    return before, cols[unsure], w_lo[unsure], w_hi[unsure]


class _RankKernel:
    """Exact own-class ranks of queries against one packed prototype set,
    whose own class may come from a ``_Splice`` instead.

    Every query block is gathered into one buffer of
    ``min(QUERY_BLOCK, n_queries)`` rows and its GEMM distances go into
    another, both overwritten block after block, so one block's query rows
    and (queries, P) matrix are alive at a time.  A block's GEMM runs in
    up to ``cores`` column parts of that buffer, each of at least
    ``PART_FLOPS``: the caller's thread computes the first, and one worker
    thread each the others, joined before the block's distances are
    returned."""

    def __init__(self, base: PrototypeSet, n_queries: int, cores: int = 1):
        self.mat, self.classes, self.spans = base.flattened()
        self.sq_norms = _sq_norms(self.mat)
        self.max_sq_norm = float(self.sq_norms.max(initial=0.0))
        rows = min(QUERY_BLOCK, n_queries)
        self._queries = np.empty((rows, self.mat.shape[1]))
        self._block = np.empty((rows, len(self.mat)))
        self._cores = cores

    def approx_sq_dists(self, features: np.ndarray, rows: list[int]):
        """(the query rows ``rows`` of ``features``, their ‖q‖², GEMM squared
        distances to every packed row); the rows and distances are views of
        the buffers, valid until the next call."""
        # every index is in range; mode "raise" would stage a copy of the block
        qmat = np.take(features, rows, axis=0, out=self._queries[: len(rows)], mode="clip")
        q_sq = _sq_norms(qmat)
        approx = self._block[: len(qmat)]
        n_cols, dim = self.mat.shape
        flops = 2 * len(qmat) * n_cols * dim
        parts = max(1, min(self._cores, flops // PART_FLOPS, n_cols))
        bounds = [n_cols * i // parts for i in range(parts + 1)]
        _run_parts(
            lambda lo, hi: self._fill_columns(qmat, q_sq, approx, lo, hi),
            list(zip(bounds, bounds[1:])),
        )
        return qmat, q_sq, approx

    def _fill_columns(self, qmat, q_sq, approx, lo: int, hi: int) -> None:
        """The block's squared distances to packed rows ``lo:hi``, written to
        those columns of ``approx``.  Values that overflow are caught by the
        finiteness check of ``own_ranks``; numpy's error state is per
        thread, so each part sets its own."""
        part = approx[:, lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(qmat, self.mat[lo:hi].T, out=part)
            part *= -2.0
            part += self.sq_norms[lo:hi]
            part += q_sq[:, None]

    def own_ranks(
        self,
        q: np.ndarray,
        class_id: int,
        q_sq: float,
        approx: np.ndarray,
        splice: _Splice | None,
        spliced: np.ndarray | None,
    ) -> np.ndarray:
        """Ascending 1-based ranks of the own-class prototypes of a query
        of ``class_id`` under the (distance, class, index) order; empty when
        its class has none.  ``approx`` is the query's GEMM row, and is
        overwritten.  A query of a derived set's rebuilt class also gets its
        ``splice`` and row of distances to the rebuilt rows, ``spliced``;
        those rows stand in for the packed rows of its class."""
        span = self.spans.get(class_id, slice(0, 0))
        if splice is None:
            own, own_approx = self.mat[span], approx[span]
        else:
            own, own_approx = splice.rows, spliced
        k = len(own)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        # the order among own rows does not change which ranks they take
        a_own = np.sort(own_approx)
        j = np.arange(k)
        # Python floats: a sum past float64's range is inf, without a warning
        scale = float(q_sq) + max(self.max_sq_norm, splice.max_sq_norm if splice else 0.0)
        if np.isfinite(4.0 * scale):
            m = _margin(self.mat.shape[1], scale)
            approx[span] = np.inf  # the packed own rows are no rivals
            before, cols, w_lo, w_hi = _certified(approx, a_own - m, a_own + m)
            if not len(cols):
                return 1 + j + before
            w_lo, w_hi = w_lo[:, None], w_hi[:, None]
        else:  # squared distances may overflow: re-check every other row
            keep = np.ones(len(approx), dtype=bool)
            keep[span] = False
            before, cols, w_lo, w_hi = 0, np.flatnonzero(keep), 0, k
        with np.errstate(over="ignore", invalid="ignore"):
            d_own = np.sort(row_dists(own, q))
            d = row_dists(self.mat[cols], q)[:, None]
        nearer = (d < d_own) | ((d == d_own) & (self.classes[cols][:, None] < class_id))
        return 1 + j + before + np.count_nonzero(nearer & (w_lo <= j) & (j < w_hi), axis=0)


def evaluate(
    queries: EmbeddingSet,
    prototypes_per_query,
    max_rank: int = DEFAULT_MAX_RANK,
    ap_mode: str = "per_prototype",
    group_buckets: Sequence[str] | None = None,
    gallery_sizes: Mapping[int, int] | None = None,
    config_echo: Mapping | None = None,
    include_per_query_ap: bool = False,
) -> EvalReport:
    """Score queries against prototypes: CMC out to ``max_rank`` plus mAP.

    ``prototypes_per_query`` is either one shared PrototypeSet or a mapping
    from query id to the set eligible for that query (as produced by the
    camera-filter protocol); a set made by ``replace_class`` serves only
    queries of the class it replaced, else ConfigError.  Queries whose
    class has no prototype anywhere in their eligible set score AP 0 and
    are listed in the report rather than aborting the run.
    ``group_buckets`` (with ``gallery_sizes``, class id -> gallery record
    count) adds a per-bucket mAP breakdown keyed on the query class's
    gallery size.
    """
    check_max_rank(max_rank)
    if ap_mode not in AP_MODES:
        raise ConfigError(f"unknown ap_mode {ap_mode!r} (choose from {AP_MODES})")
    n = len(queries)  # an EmbeddingSet is never empty
    groups = _as_pset_groups(queries, prototypes_per_query)
    classes = queries.row_classes.tolist()
    # queries of every group with one base share its GEMM, and a derived
    # set's queries get one cdist call per set to its rebuilt rows
    by_base: dict[PrototypeSet, list[tuple]] = {}
    for pset, rows in groups:
        if pset.total_count() == 0:
            raise EmptyPrototypeSetError("cannot evaluate against an empty prototype set")
        if pset.dim != queries.dim:
            raise DimensionMismatchError(
                f"query dimension {queries.dim} vs prototypes {pset.dim}"
            )
        if not pset.replaced:
            by_base.setdefault(pset, []).extend((qi, None, None) for qi in rows)
            continue
        ((class_id, rebuilt),) = pset.replaced.items()
        stray = next((qi for qi in rows if classes[qi] != class_id), None)
        if stray is not None:
            raise ConfigError(
                f"query {queries.ids[stray]!r} of class {classes[stray]} is mapped to a set "
                f"that rebuilt class {class_id}; such a set ranks only queries of that class"
            )
        splice = _Splice(queries.features[rows], rebuilt)
        by_base.setdefault(pset.base, []).extend(
            (qi, splice, row) for qi, row in zip(rows, splice.approx)
        )
    aps = [0.0] * n
    first_hit = [0] * n  # 0: no own-class prototype
    cores = _cores()
    for base, items in by_base.items():
        kernel = _RankKernel(base, len(items), cores)
        for start in range(0, len(items), QUERY_BLOCK):
            block = items[start : start + QUERY_BLOCK]
            qmat, q_sq, approx = kernel.approx_sq_dists(
                queries.features, [qi for qi, _, _ in block]
            )
            for (qi, splice, spliced), q, q_sq_i, row in zip(block, qmat, q_sq, approx):
                ranks = kernel.own_ranks(q, classes[qi], q_sq_i, row, splice, spliced)
                if len(ranks):
                    aps[qi] = _ap_from_relevance_ranks(ranks, ap_mode)
                    first_hit[qi] = int(ranks[0])
    missing = [queries.ids[qi] for _, rows in groups for qi in rows if not first_hit[qi]]
    # CMC: fraction of queries whose first own-class hit lands within rank k;
    # a first hit past max_rank is counted in the dropped last bin
    counts = np.bincount(np.minimum(first_hit, max_rank + 1), minlength=max_rank + 1)
    cmc = (np.cumsum(counts[1 : max_rank + 1]) / n).tolist()
    per_group: dict[str, dict] = {}
    if group_buckets is not None:
        if gallery_sizes is None:
            raise ConfigError("group_buckets requires gallery_sizes")
        for label, (lo, hi) in zip(group_buckets, parse_buckets(group_buckets)):
            members = [ap for ap, c in zip(aps, classes) if lo <= gallery_sizes.get(c, 0) <= hi]
            per_group[label] = {"count": len(members), "map": _mean(members) if members else None}
    return EvalReport(
        cmc=cmc,
        top1=cmc[0],
        map=_mean(aps),
        per_group=per_group,
        config_echo=dict(config_echo) if config_echo else {},
        per_query_ap=(
            [[qid, ap] for qid, ap in zip(queries.ids, aps)] if include_per_query_ap else None
        ),
        missing_class_query_ids=missing,
        n_queries=n,
    )


def parse_buckets(labels: Sequence[str]) -> list[tuple[int, float]]:
    """Parse bucket labels like "1-15" or "50+" into inclusive (lo, hi) ranges.

    The labels must jointly partition the positive integers: sorted by lower
    bound they must start at 1, abut exactly, and end open-ended.  Each label
    is written out as given, so only its one spelling passes: "1-15", not " 1-15".
    """
    if not labels:
        raise ConfigError("bucket list is empty")
    bounds: list[tuple[int, float]] = []
    for label in labels:
        try:
            if label.endswith("+"):
                lo, hi = int(label[:-1]), np.inf
            else:
                lo_s, hi_s = label.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(
                f"bad bucket {label!r}: expected 'lo-hi' or 'lo+'"
            ) from None
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad bucket {label!r}: bounds out of order")
        spelling = f"{lo}+" if hi == np.inf else f"{lo}-{hi}"
        if label != spelling:
            raise ConfigError(f"bad bucket {label!r}: write it as {spelling!r}")
        bounds.append((lo, hi))
    ordered = sorted(bounds)
    if ordered[0][0] != 1:
        raise ConfigError("buckets must start at 1")
    for (lo1, hi1), (lo2, _) in zip(ordered, ordered[1:]):
        if hi1 == np.inf or lo2 != hi1 + 1:
            raise ConfigError(
                f"buckets must abut exactly (gap or overlap near {lo2})"
            )
    if ordered[-1][1] != np.inf:
        raise ConfigError("last bucket must be open-ended (lo+)")
    return bounds


def report_to_json(report: EvalReport) -> str:
    """The report in the written form of every JSON artifact (``json_text``);
    ``json.loads`` of it equals ``asdict(report)``, every float bit for bit."""
    return json_text(asdict(report))


def report_to_csv(report: EvalReport) -> str:
    """One `cmc,k,value` row per rank plus one summary row with the mAP."""
    rows = [{"metric": "cmc", "k": k, "value": v} for k, v in enumerate(report.cmc, start=1)]
    return csv_text(rows + [{"metric": "map", "k": None, "value": report.map}])
