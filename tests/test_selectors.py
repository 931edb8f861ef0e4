"""Classical prototype selectors: hand-traced values, greedy invariants,
agreement with independent brute-force re-derivations, and the ordered
squared-distance kernel that k-means and negative mining share."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from gcproto import selectors
from gcproto.errors import ConfigError
from gcproto.harness import ExperimentConfig, run_experiment
from gcproto.model import GcpConfig, train
from gcproto.selectors import (
    SelectorConfig,
    _sq_dists_by_dimension,
    _sq_dists_cumsum,
    alpha_fps_points,
    kmeans,
    maximin_selection,
    ordered_sq_dists,
    row_dists,
    run_selector,
)
from gcproto.seeding import substream
from gcproto.store import build_set
from gcproto.synthetic import SyntheticSpec, generate_synthetic

# Hand-derived trace for the 1-D gallery {0, 1, 10} with n=2, alpha=1/4.
# Start: centroid 11/3. Iteration 1 picks 10 (farthest), pulls it a quarter
# of the way to the centroid: 10 + (11/3 - 10)/4 = 101/12. Iteration 2 picks
# 0 (min distance 11/3 beats 1's 8/3), giving 11/12.
ALPHA_TRACE_POINTS = np.array([[0.0], [1.0], [10.0]])
ALPHA_TRACE_EXPECTED = [11.0 / 3.0, 101.0 / 12.0, 11.0 / 12.0]


def _pairwise(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def alpha_fps_oracle(points: list[list[float]], n: int, alpha: float) -> list[list[float]]:
    """Plain-Python re-derivation of interpolated farthest-point sampling."""
    dim = len(points[0])
    centroid = [sum(p[d] for p in points) / len(points) for d in range(dim)]
    protos = [centroid]
    remaining = list(range(len(points)))
    for _ in range(n):
        if not remaining:
            break
        best_i, best_d = None, -1.0
        for i in remaining:
            d = min(_pairwise(points[i], q) for q in protos)
            if d > best_d:
                best_i, best_d = i, d
        remaining.remove(best_i)
        x = points[best_i]
        near = min(protos, key=lambda q: _pairwise(x, q))
        protos.append([alpha * near[d] + (1.0 - alpha) * x[d] for d in range(dim)])
    return protos


class TestAlphaFps:
    def test_hand_trace(self):
        out = alpha_fps_points(ALPHA_TRACE_POINTS, 2, 0.25)
        np.testing.assert_allclose(out.ravel(), ALPHA_TRACE_EXPECTED, atol=1e-4)
        # and bitwise, since the arithmetic is pinned down
        np.testing.assert_array_equal(out.ravel(), ALPHA_TRACE_EXPECTED)

    def test_alpha_zero_is_raw_fps_points(self):
        out = alpha_fps_points(ALPHA_TRACE_POINTS, 2, 0.0)
        np.testing.assert_array_equal(out.ravel(), [11.0 / 3.0, 10.0, 0.0])

    def test_alpha_one_duplicates_nearest_prototype(self):
        out = alpha_fps_points(ALPHA_TRACE_POINTS, 2, 1.0)
        c = 11.0 / 3.0
        np.testing.assert_array_equal(out.ravel(), [c, c, c])

    def test_first_row_is_centroid(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(9, 3))
        out = alpha_fps_points(pts, 4, 0.3)
        np.testing.assert_array_equal(out[0], pts.mean(axis=0))

    def test_matches_plain_python_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            npts = int(rng.integers(2, 15))
            dim = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            alpha = float(rng.uniform(0, 1))
            pts = rng.normal(size=(npts, dim))
            got = alpha_fps_points(pts, n, alpha)
            want = alpha_fps_oracle(pts.tolist(), n, alpha)
            assert got.shape[0] == len(want)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_exhausts_small_class(self):
        pts = np.array([[0.0], [4.0]])
        out = alpha_fps_points(pts, 5, 0.5)
        assert out.shape == (3, 1)

    def test_single_point_class(self):
        out = alpha_fps_points(np.array([[7.0, 7.0]]), 3, 0.5)
        np.testing.assert_array_equal(out, [[7.0, 7.0]])

    @settings(max_examples=40, deadline=None)
    @given(
        pts=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        n=st.integers(1, 6),
        alpha=st.floats(0, 1, allow_nan=False),
    )
    def test_shape_and_finiteness(self, pts, n, alpha):
        out = alpha_fps_points(pts, n, alpha)
        assert out.shape == (1 + min(n, pts.shape[0]), pts.shape[1])
        assert np.all(np.isfinite(out))

    def test_selector_adds_one_to_n(self):
        es = build_set(np.random.default_rng(0).normal(size=(12, 3)), [0] * 6 + [1] * 6, [0] * 12)
        pset = run_selector(es, SelectorConfig(method="alphafps", n_prototypes=3))
        assert {c: len(rows) for c, rows in pset.per_class.items()} == {0: 4, 1: 4}
        assert pset.selector_tag == "alphafps"
        assert pset.params_echo["alpha"] == 0.5


class TestMaximin:
    def test_square_with_tie(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        # from corner 0: farthest is the diagonal corner, then the tie between
        # the two remaining corners resolves to the lower index
        assert maximin_selection(pts, 4, 0) == [0, 3, 1, 2]

    def test_prefix_property(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(30, 4))
        full = maximin_selection(pts, 8, 5)
        assert maximin_selection(pts, 3, 5) == full[:3]

    def test_greedy_optimality_vs_exhaustive_scan(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            pts = rng.normal(size=(int(rng.integers(5, 25)), int(rng.integers(2, 6))))
            start = int(rng.integers(pts.shape[0]))
            chosen = maximin_selection(pts, min(6, pts.shape[0]), start)
            for t in range(1, len(chosen)):
                md = np.min(
                    np.linalg.norm(pts[:, None, :] - pts[chosen[:t]][None, :, :], axis=2),
                    axis=1,
                )
                best = float(md.max())
                assert md[chosen[t]] == best
                # lowest index among the argmax set
                assert chosen[t] == int(np.flatnonzero(md == best)[0])

    def test_fps_selector_uses_centroid_nearest_seed(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [5.1, 0.0], [0.0, 10.0]])
        es = build_set(pts, [0] * 4, [0] * 4)
        pset = run_selector(es, SelectorConfig(method="fps", n_prototypes=2))
        # centroid (3.775, 2.5); nearest gallery point is (5.1, 0)
        np.testing.assert_array_equal(pset.per_class[0][0], [5.1, 0.0])

    def test_fps_n_clipped_to_class_size(self):
        es = build_set(np.arange(6, dtype=float).reshape(3, 2), [0, 0, 0], [0, 0, 0])
        pset = run_selector(es, SelectorConfig(method="fps", n_prototypes=10))
        assert pset.per_class[0].shape == (3, 2)


# The selectors as written before they moved their distances into reused
# buffers, kept verbatim as the oracle the buffered ones must match bit for
# bit.


def _min_dists(points: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points - anchor[None, :], axis=1)


def maximin_selection_oracle(points: np.ndarray, n: int, start_index: int) -> list[int]:
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


def alpha_fps_points_oracle(points: np.ndarray, n: int, alpha: float) -> np.ndarray:
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


@st.composite
def point_sets(draw):
    """1-10 points on a small integer grid, which gives duplicate points and
    exact distance ties, or spread over the reals; the dimensions include
    some past numpy's 8- and 128-term summation blocks."""
    shape = (draw(st.integers(1, 10)), draw(st.sampled_from([1, 2, 3, 4, 9, 17, 130])))
    elements = draw(st.sampled_from([
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ]))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


DUPLICATES = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0], [3.0, 0.0], [1.0, 2.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestBufferedSelectorsMatchOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        pts=point_sets(),
        row=st.integers(0, 9),
        reuse=st.booleans(),
        full=st.booleans(),
        scale=st.sampled_from([1.0, 1e150, 1e200]),
    )
    @example(pts=np.array([[3e200, 0.0], [1.0, 2.0]]), row=1, reuse=True, full=True, scale=1.0)
    def test_distances_are_linalg_norm(self, pts, row, reuse, full, scale):
        # a full anchor, one row per point, is the k-means centroid shift's
        # case; at 1e150 and past, squared differences overflow to inf
        pts = pts * scale
        anchor = pts[::-1] * 0.5 if full else pts[row % len(pts)] * 0.5
        buffers = (np.empty(pts.shape), np.empty(len(pts))) if reuse else ()
        with np.errstate(over="ignore"):
            want = np.linalg.norm(pts - anchor, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                got = row_dists(pts, anchor, *buffers)
        assert _same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        pts=point_sets(),
        n=st.integers(1, 12),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    )
    @example(pts=np.array([[7.0, -1.0]]), n=3, alpha=0.5)
    @example(pts=np.array([[0.0], [4.0]]), n=1, alpha=0.0)
    @example(pts=np.array([[0.0], [4.0]]), n=5, alpha=1.0)
    @example(pts=DUPLICATES, n=4, alpha=0.0)
    @example(pts=DUPLICATES, n=9, alpha=1.0)
    @example(pts=SQUARE, n=3, alpha=0.5)
    def test_alpha_fps_points(self, pts, n, alpha):
        assert _same_bits(alpha_fps_points(pts, n, alpha), alpha_fps_points_oracle(pts, n, alpha))

    @settings(max_examples=60, deadline=None)
    @given(pts=point_sets(), n=st.integers(1, 12), start=st.integers(0, 9))
    @example(pts=np.array([[7.0, -1.0]]), n=2, start=0)
    @example(pts=np.array([[0.0], [4.0]]), n=3, start=1)
    @example(pts=DUPLICATES, n=5, start=0)
    @example(pts=SQUARE, n=4, start=0)
    def test_maximin_selection(self, pts, n, start):
        start %= len(pts)
        assert maximin_selection(pts, n, start) == maximin_selection_oracle(pts, n, start)


class TestFarthestPointPrefixesAndPasses:
    """Selecting k is truncating a selection of any N >= k, and each
    selection makes one distance pass per row but its last."""

    @settings(max_examples=60, deadline=None)
    @given(
        pts=point_sets(),
        k=st.integers(1, 12),
        extra=st.integers(0, 6),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    )
    @example(pts=DUPLICATES, k=2, extra=3, alpha=0.5)
    @example(pts=SQUARE, k=4, extra=0, alpha=0.25)
    def test_alpha_fps_prefix(self, pts, k, extra, alpha):
        want = alpha_fps_points(pts, k + extra, alpha)[: min(k, len(pts)) + 1]
        assert _same_bits(alpha_fps_points(pts, k, alpha), want)

    @settings(max_examples=60, deadline=None)
    @given(pts=point_sets(), k=st.integers(1, 12), extra=st.integers(0, 6), start=st.integers(0, 9))
    @example(pts=DUPLICATES, k=2, extra=3, start=0)
    @example(pts=SQUARE, k=1, extra=3, start=2)
    def test_maximin_prefix(self, pts, k, extra, start):
        start %= len(pts)
        assert maximin_selection(pts, k, start) == maximin_selection(pts, k + extra, start)[:k]

    @staticmethod
    def counted_passes(monkeypatch) -> list[int]:
        calls = []
        real = selectors.row_dists

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(selectors, "row_dists", counted)
        return calls

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 5), (5, 1), (5, 3), (5, 5), (9, 20)])
    def test_pass_counts(self, monkeypatch, m, n):
        pts = np.random.default_rng(m * 31 + n).normal(size=(m, 3))
        calls = self.counted_passes(monkeypatch)
        assert len(alpha_fps_points(pts, n, 0.5)) == min(n, m) + 1
        assert len(calls) == min(n, m)
        calls.clear()
        assert len(maximin_selection(pts, n, m - 1)) == min(n, m)
        assert len(calls) == min(n, m) - 1

    def test_single_point_makes_no_pass(self, monkeypatch):
        calls = self.counted_passes(monkeypatch)
        alpha_fps_points(np.ones((1, 4)), 3, 0.5)
        maximin_selection(np.ones((1, 4)), 3, 0)
        assert calls == []


class TestKmeans:
    def test_k1_equals_mean(self):
        rng = np.random.default_rng(51)
        pts = rng.normal(size=(17, 5))
        centroids, labels, converged, trace = kmeans(pts, 1, np.random.default_rng(0))
        assert converged
        np.testing.assert_array_equal(centroids, pts.mean(axis=0, keepdims=True))
        assert set(labels.tolist()) == {0}

    def test_k_clipped_to_n_points(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        centroids, _, converged, _ = kmeans(pts, 9, np.random.default_rng(0))
        assert centroids.shape == (3, 2)
        assert converged
        assert {tuple(c) for c in centroids} == {tuple(p) for p in pts}

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(61)
        pts = np.vstack([rng.normal(loc, 0.5, size=(20, 3)) for loc in (0.0, 5.0, 10.0)])
        _, _, _, trace = kmeans(pts, 3, np.random.default_rng(2))
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic_under_same_stream(self):
        rng = np.random.default_rng(71)
        pts = rng.normal(size=(40, 4))
        a, _, _, _ = kmeans(pts, 4, substream(9, "kmeans.0"))
        b, _, _, _ = kmeans(pts, 4, substream(9, "kmeans.0"))
        np.testing.assert_array_equal(a, b)

    def test_duplicate_points_do_not_crash(self):
        pts = np.array([[1.0, 1.0]] * 6 + [[5.0, 5.0]] * 2)
        centroids, labels, _, _ = kmeans(pts, 3, np.random.default_rng(3))
        assert centroids.shape == (3, 2)
        assert np.all(np.isfinite(centroids))

    def test_overflowing_spread_converges_only_at_a_fixed_point(self):
        # rows from 1e-2 to 1e172 make the spread inf, and tol times inf
        # would pass the first step's ~1e124 centroid shift as converged
        rng = np.random.default_rng(3)
        pts = (rng.normal(size=(18, 4)) * 10.0 ** rng.integers(-2, 201, size=(18, 1)))[6:]
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, one_step, _ = kmeans(pts, 4, np.random.default_rng(0), max_iters=1)
            _, _, converged, objective = kmeans(pts, 4, np.random.default_rng(0))
        assert not one_step
        assert converged and len(objective) == 2


class TestSelectors:
    def separated(self):
        rng = np.random.default_rng(81)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        vecs, cls = [], []
        for c, ctr in enumerate(centers):
            vecs.append(ctr + rng.normal(0, 0.5, size=(8, 2)))
            cls += [c] * 8
        return build_set(np.vstack(vecs), cls, [i % 2 for i in range(24)])

    def test_instance_copies_everything(self):
        es = self.separated()
        pset = run_selector(es, SelectorConfig(method="instance"))
        assert pset.total_count() == len(es)
        np.testing.assert_array_equal(pset.per_class[1], es.class_matrix(1))

    def test_centroid_is_mean(self):
        es = self.separated()
        pset = run_selector(es, SelectorConfig(method="centroid"))
        for c in es.class_ids:
            np.testing.assert_array_equal(
                pset.per_class[c], es.class_matrix(c).mean(axis=0, keepdims=True)
            )

    def test_kcentroid_n1_equals_centroid(self):
        es = self.separated()
        a = run_selector(es, SelectorConfig(method="kcentroid", n_prototypes=1))
        b = run_selector(es, SelectorConfig(method="centroid"))
        for c in es.class_ids:
            np.testing.assert_array_equal(a.per_class[c], b.per_class[c])

    @pytest.mark.parametrize("method", ["instance", "centroid", "kcentroid", "fps", "alphafps"])
    def test_deterministic(self, method):
        es = self.separated()
        cfg = SelectorConfig(method=method, n_prototypes=3, seed=4)
        x = run_selector(es, cfg)
        y = run_selector(es, cfg)
        assert x.class_ids == y.class_ids
        for c in x.class_ids:
            np.testing.assert_array_equal(x.per_class[c], y.per_class[c])

    @pytest.mark.parametrize(
        "method, echo",
        [
            ("instance", {}),
            ("centroid", {}),
            ("kcentroid", {"n": 3, "seed": 4}),
            ("fps", {"n": 3}),
            ("alphafps", {"n": 3, "alpha": 0.25}),
        ],
    )
    def test_tag_and_params_echo(self, method, echo):
        # the method's name is the set's tag and its echoed "method"
        cfg = SelectorConfig(method=method, n_prototypes=3, alpha=0.25, seed=4)
        pset = run_selector(self.separated(), cfg)
        assert pset.selector_tag == method
        assert pset.params_echo == {"method": method, **echo}

    def test_kcentroid_echo_lists_unconverged_classes(self):
        cfg = SelectorConfig(method="kcentroid", n_prototypes=3, kmeans_max_iters=1)
        pset = run_selector(self.separated(), cfg)
        assert pset.params_echo["unconverged_classes"] == [0, 1, 2]

    def test_gcp_dispatch_refused_here(self):
        with pytest.raises(ConfigError):
            run_selector(self.separated(), SelectorConfig(method="gcp"))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SelectorConfig(method="mystery")
        with pytest.raises(ConfigError):
            SelectorConfig(n_prototypes=0)
        with pytest.raises(ConfigError):
            SelectorConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            SelectorConfig(kmeans_tol=0.0)


class TestOrderedSqDists:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        na=st.integers(1, 40),
        nb=st.integers(1, 40),
        dim=st.integers(1, 48),
        exponents=st.lists(st.integers(-150, 160), min_size=80, max_size=80),
        near_duplicates=st.booleans(),
    )
    # a few pairs either side of the crossover, and squares that overflow
    @example(seed=0, na=16, nb=32, dim=5, exponents=[160, -150] + [0] * 78, near_duplicates=True)
    @example(seed=1, na=17, nb=31, dim=5, exponents=[0, 155] * 40, near_duplicates=False)
    @example(seed=2, na=20, nb=3, dim=48, exponents=[0] * 80, near_duplicates=True)
    def test_both_forms_match_scipy_bit_for_bit(
        self, seed, na, nb, dim, exponents, near_duplicates
    ):
        # row r is scaled by 10**exponents[r]: from 1e-150, where squares
        # underflow, to 1e160, where they overflow to inf
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.array(exponents, dtype=float)[:, None]
        a = rng.normal(size=(na, dim)) * scales[:na]
        b = rng.normal(size=(nb, dim)) * scales[na : na + nb]
        if near_duplicates:
            m = min(na, nb)
            b[:m] = a[:m] * (1.0 + 1e-15 * rng.normal(size=(m, 1)))
        want = cdist(a, b, "sqeuclidean")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ordered_sq_dists(a, b)
            with np.errstate(over="ignore"):
                forms = [_sq_dists_cumsum(a, b), _sq_dists_by_dimension(a, b)]
        for out in [got, *forms]:
            assert _same_bits(out, want)

    def test_kmeans_takes_cumsum_and_mining_the_dimension_loop(self, monkeypatch):
        calls = []

        def spy(name):
            form = getattr(selectors, name)

            def counted(a, b):
                calls.append((name, len(a) * len(b)))
                return form(a, b)

            monkeypatch.setattr(selectors, name, counted)

        spy("_sq_dists_cumsum")
        spy("_sq_dists_by_dimension")
        for protocol in ("plain", "camera-filter"):
            run_experiment(ExperimentConfig(
                selector=SelectorConfig(method="kcentroid"), preset="tradeoff", protocol=protocol,
            ))
        # k-means' class rows meet at most 3 centroids: a few dozen pairs
        assert calls and {name for name, _ in calls} == {"_sq_dists_cumsum"}
        assert max(pairs for _, pairs in calls) <= 24 * 3
        calls.clear()
        # one training step at the default batch mines 16 classes x 8 rows
        cfg = GcpConfig(dim=8, n_blocks=1, ffn_dim=8, epochs=1)
        spec = SyntheticSpec(
            n_classes=cfg.batch_classes, instances_per_class=cfg.instances_per_class,
            dim=cfg.dim, n_cameras=cfg.n_cameras, queries_per_class=1,
        )
        train(generate_synthetic(spec)[0], cfg)
        assert calls == [("_sq_dists_by_dimension", 128 * 128)]


class TestOverflowWithoutWarnings:
    @pytest.mark.parametrize("method", ["fps", "alphafps", "kcentroid"])
    def test_picks_unchanged_and_no_warning(self, method):
        # rows near 1e200 make squared distances overflow to inf, as a valid
        # gallery may; the picks are those computed with warnings ignored
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(18, 4)) * 10.0 ** rng.integers(-2, 201, size=(18, 1))
        es = build_set(vecs, [0] * 6 + [1] * 12, [i % 3 for i in range(18)])
        cfg = SelectorConfig(method=method, n_prototypes=4, kmeans_max_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = run_selector(es, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_selector(es, cfg)
        assert got.params_echo == want.params_echo
        for c in want.class_ids:
            assert _same_bits(got.per_class[c], want.per_class[c])
