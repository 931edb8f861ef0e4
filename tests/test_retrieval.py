"""Ranking and evaluation against a plain-Python brute-force oracle.

The oracle below re-derives CMC and mAP from the metric definitions using
lists, math.dist, and sequential scalar sums; `evaluate` must agree with it
bit-for-bit on random instances.
"""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gcproto.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyPrototypeSetError,
)
from gcproto import retrieval
from gcproto.retrieval import (
    AP_MODES,
    evaluate,
    parse_buckets,
    report_to_csv,
    report_to_json,
)
from gcproto.selectors import SelectorConfig, run_selector
from gcproto.store import EmbeddingSet, PrototypeSet, build_set
from gcproto.synthetic import SyntheticSpec, generate_synthetic

from ranking_oracle import rank_query


# -- oracle --------------------------------------------------------------


def oracle_rank(qvec, pset: PrototypeSet):
    """(distance, class, proto_idx) triples in ascending order."""
    flat = []
    for c in sorted(pset.per_class):
        for j, p in enumerate(pset.per_class[c]):
            flat.append((math.dist([float(v) for v in qvec], [float(v) for v in p]), c, j))
    flat.sort()
    return flat

def oracle_evaluate(queries: EmbeddingSet, psets, max_rank: int, ap_mode="per_prototype"):
    """Brute-force CMC/mAP; psets is one PrototypeSet or a per-query-id dict."""
    aps, first_hits = [], []
    for rec in queries.records:
        pset = psets if isinstance(psets, PrototypeSet) else psets[rec.id]
        flat = oracle_rank(rec.vector, pset)
        ranks = [i + 1 for i, (_, c, _) in enumerate(flat) if c == rec.class_id]
        if not ranks:
            aps.append(0.0)
            first_hits.append(None)
            continue
        first_hits.append(ranks[0])
        if ap_mode == "per_identity":
            aps.append(1.0 / ranks[0])
        else:
            total = 0.0
            for i, r in enumerate(ranks, start=1):
                total += i / r
            aps.append(total / len(ranks))
    n = len(aps)
    cmc = [sum(1 for f in first_hits if f is not None and f <= k) / n for k in range(1, max_rank + 1)]
    total = 0.0
    for ap in aps:
        total += ap
    return cmc, total / n, aps


def random_instance(rng):
    """Random gallery/query/prototype triple, with deliberate edge cases:
    duplicated prototypes (exercise the tie rule) and missing classes."""
    n_classes = int(rng.integers(2, 7))
    dim = int(rng.integers(2, 6))
    vecs, cls = [], []
    for c in range(n_classes):
        k = int(rng.integers(2, 8))
        vecs.append(rng.normal(c * 2.0, 1.5, size=(k, dim)))
        cls += [c] * k
    gallery = build_set(np.vstack(vecs), cls, [0] * len(cls))

    per_class = {}
    for c in range(n_classes):
        if n_classes > 2 and c == 0 and rng.random() < 0.3:
            continue  # class with no prototypes anywhere
        pts = gallery.class_matrix(c)
        m = int(rng.integers(1, min(4, pts.shape[0]) + 1))
        rows = pts[rng.choice(pts.shape[0], size=m, replace=False)]
        if rng.random() < 0.4:
            rows = np.vstack([rows, rows[0]])  # exact duplicate prototype
        per_class[c] = rows
    pset = PrototypeSet(per_class, "instance")

    nq = int(rng.integers(2, 9))
    qvecs = rng.normal(0, 2.0, size=(nq, dim)) + rng.integers(0, n_classes, nq)[:, None]
    queries = build_set(qvecs, rng.integers(0, n_classes, nq), [0] * nq, id_prefix="q")
    return gallery, queries, pset


# -- ranking ------------------------------------------------------------


class TestRankQuery:
    def qrec(self, vec):
        return build_set(np.array([vec]), [0], [0], id_prefix="q").records[0]

    def test_orders_by_distance(self):
        pset = PrototypeSet(
            {0: np.array([[0.0, 0.0]]), 1: np.array([[3.0, 0.0], [1.0, 0.0]])},
            "instance",
        )
        r = rank_query(self.qrec([0.9, 0.0]), pset)
        assert [(c, j) for c, j, _ in r.entries] == [(1, 1), (0, 0), (1, 0)]
        assert r.entries[0][2] == pytest.approx(0.1)
        assert not r.tie_rule_applied

    def test_tie_breaks_by_class_then_index(self):
        pset = PrototypeSet(
            {0: np.array([[-1.0, 0.0]]), 1: np.array([[1.0, 0.0], [1.0, 0.0]])},
            "instance",
        )
        r = rank_query(self.qrec([0.0, 0.0]), pset)
        assert [(c, j) for c, j, _ in r.entries] == [(0, 0), (1, 0), (1, 1)]
        assert r.tie_rule_applied

    def test_matches_oracle_order(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            _, queries, pset = random_instance(rng)
            for rec in queries.records:
                got = [(c, j) for c, j, _ in rank_query(rec, pset).entries]
                want = [(c, j) for _, c, j in oracle_rank(rec.vector, pset)]
                assert got == want

    def test_replaced_class_keeps_the_tie_rule(self):
        # every prototype is at distance 1: class, then index, decides
        pset = PrototypeSet({0: np.array([[3.0, 0.0]]), 1: np.array([[0.0, 1.0]])}, "centroid")
        derived = pset.replace_class(0, np.array([[1.0, 0.0], [0.0, -1.0]]))
        r = rank_query(self.qrec([0.0, 0.0]), derived)
        assert [(c, j) for c, j, _ in r.entries] == [(0, 0), (0, 1), (1, 0)]
        assert r.tie_rule_applied

    def test_oracle_imports_no_ranking_code_and_reads_sets_by_per_class(self):
        # the reference must not share code with what it checks: no import
        # from the evaluator or the selectors' distance kernels, and a set
        # read only through per_class and total_count, never its packing
        tree = ast.parse(Path(__file__).with_name("ranking_oracle.py").read_text("utf-8"))
        banned = ("gcproto.retrieval", "gcproto.selectors")
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        assert "gcproto.store.PrototypeSet" in imported
        assert not [m for m in imported for b in banned if m == b or m.startswith(b + ".")]
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        set_params = {
            arg.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for arg in node.args.args
            if isinstance(arg.annotation, ast.Name) and arg.annotation.id == "PrototypeSet"
        }
        assert set_params == {"prototypes"}
        reads = [
            parent[node] for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in set_params
        ]
        assert reads and all(isinstance(r, ast.Attribute) for r in reads)
        assert {r.attr for r in reads} == {"per_class", "total_count"}

    def test_empty_prototypes(self):
        pset = PrototypeSet({0: np.zeros((0, 2))}, "centroid")
        with pytest.raises(EmptyPrototypeSetError):
            rank_query(self.qrec([0.0, 0.0]), pset)

    def test_dim_mismatch(self):
        pset = PrototypeSet({0: np.zeros((1, 3))}, "centroid")
        with pytest.raises(DimensionMismatchError):
            rank_query(self.qrec([0.0, 0.0]), pset)


# -- evaluation ----------------------------------------------------------


class TestEvaluate:
    def line_setup(self):
        """1-D: query at 0, own-class prototypes at 1 and 3, rival at 2."""
        queries = build_set(np.array([[0.0]]), [0], [0], id_prefix="q")
        pset = PrototypeSet(
            {0: np.array([[1.0], [3.0]]), 1: np.array([[2.0]])}, "instance"
        )
        return queries, pset

    def test_ap_hand_value(self):
        queries, pset = self.line_setup()
        rep = evaluate(queries, pset, max_rank=3)
        # relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        assert rep.map == (1.0 + 2.0 / 3.0) / 2.0
        assert rep.cmc == [1.0, 1.0, 1.0]
        assert rep.top1 == 1.0

    def test_per_identity_mode(self):
        queries, pset = self.line_setup()
        rep = evaluate(queries, pset, max_rank=3, ap_mode="per_identity")
        assert rep.map == 1.0

    def test_cmc_counts_first_hit(self):
        queries = build_set(np.array([[0.0], [2.1]]), [0, 0], [0, 0], id_prefix="q")
        pset = PrototypeSet(
            {0: np.array([[1.0]]), 1: np.array([[2.0]])}, "instance"
        )
        rep = evaluate(queries, pset, max_rank=3)
        # q0 hits own class at rank 1; q1 is nearer the rival, rank 2
        assert rep.cmc == [0.5, 1.0, 1.0]
        assert rep.top1 == 0.5

    def test_cmc_monotone_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            _, queries, pset = random_instance(rng)
            rep = evaluate(queries, pset, max_rank=12)
            assert all(a <= b for a, b in zip(rep.cmc, rep.cmc[1:]))
            assert all(0.0 <= v <= 1.0 for v in rep.cmc)

    def test_missing_class_scores_zero_and_is_flagged(self):
        queries = build_set(np.array([[0.0], [5.0]]), [0, 9], [0, 0], id_prefix="q")
        pset = PrototypeSet({0: np.array([[1.0]])}, "centroid")
        rep = evaluate(queries, pset, max_rank=2, include_per_query_ap=True)
        assert rep.missing_class_query_ids == ["q1"]
        assert rep.per_query_ap == [["q0", 1.0], ["q1", 0.0]]
        assert rep.map == 0.5

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            _, queries, pset = random_instance(rng)
            mode = "per_identity" if rng.random() < 0.3 else "per_prototype"
            rep = evaluate(queries, pset, max_rank=10, ap_mode=mode)
            cmc, mean_ap, _ = oracle_evaluate(queries, pset, 10, mode)
            assert rep.cmc == cmc
            assert rep.map == mean_ap

    def test_per_query_mapping_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            _, queries, pset = random_instance(rng)
            shifted = {c: pset.replace_class(c, rows + 0.5) for c, rows in pset.per_class.items()}
            # every other query ranks against the set rebuilt for its own class
            mapping = {
                rec.id: shifted.get(rec.class_id, pset) if i % 2 else pset
                for i, rec in enumerate(queries.records)
            }
            rep = evaluate(queries, mapping, max_rank=6)
            cmc, mean_ap, _ = oracle_evaluate(queries, mapping, 6)
            assert rep.cmc == cmc
            assert rep.map == mean_ap

    def test_set_rebuilt_for_another_class_is_refused(self):
        queries = build_set(np.zeros((3, 2)), [0, 0, 1], [0] * 3, id_prefix="q")
        pset = PrototypeSet({0: np.ones((1, 2)), 1: np.zeros((2, 2))}, "centroid")
        derived = pset.replace_class(0, np.full((2, 2), 2.0))
        assert evaluate(queries, {"q0": derived, "q1": derived, "q2": pset}).n_queries == 3
        with pytest.raises(ConfigError, match="^query 'q2' of class 1 is mapped to a set that "
                                               "rebuilt class 0"):
            evaluate(queries, {"q0": derived, "q1": pset, "q2": derived})

    def test_mapping_missing_query_id(self):
        _, queries, pset = random_instance(np.random.default_rng(37))
        mapping = {rec.id: pset for rec in queries.records[:-1]}
        with pytest.raises(ConfigError):
            evaluate(queries, mapping)

    def test_zero_coverage_violations_means_perfect_top1_on_gallery(self):
        rng = np.random.default_rng(41)
        centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
        vecs, cls = [], []
        for c, ctr in enumerate(centers):
            vecs.append(ctr + rng.normal(0, 0.5, size=(6, 2)))
            cls += [c] * 6
        gallery = build_set(np.vstack(vecs), cls, [0] * 18)
        pset = PrototypeSet(
            {c: gallery.class_matrix(c).mean(axis=0, keepdims=True) for c in range(3)},
            "centroid",
        )
        self_queries = build_set(gallery.features, cls, [0] * 18, id_prefix="q")
        assert evaluate(self_queries, pset, max_rank=1).top1 == 1.0

    def test_validation_errors(self):
        queries, pset = self.line_setup()
        with pytest.raises(ConfigError):
            evaluate(queries, pset, max_rank=0)
        with pytest.raises(ConfigError, match="2\\*\\*20"):
            evaluate(queries, pset, max_rank=2**63)
        with pytest.raises(ConfigError):
            evaluate(queries, pset, ap_mode="sideways")
        with pytest.raises(EmptyPrototypeSetError):
            evaluate(queries, PrototypeSet({0: np.zeros((0, 1))}, "centroid"))
        with pytest.raises(DimensionMismatchError):
            evaluate(queries, PrototypeSet({0: np.zeros((1, 4))}, "centroid"))
        with pytest.raises(ConfigError):
            evaluate(queries, pset, group_buckets=["1-5", "6+"])


# -- GEMM kernel against the gate's brute force ---------------------------


def numpy_brute_force(qvec, pset: PrototypeSet):
    """(distances, classes, indices, order): one ``np.linalg.norm`` per row
    and a lexsort on (distance, class, prototype index), as the benchmark
    gate ranks."""
    ids = sorted(pset.per_class)
    mat = np.vstack([pset.per_class[c] for c in ids])
    cls = np.concatenate([np.full(len(pset.per_class[c]), c) for c in ids])
    idx = np.concatenate([np.arange(len(pset.per_class[c])) for c in ids])
    dists = np.linalg.norm(mat - qvec, axis=1)
    return dists, cls, idx, np.lexsort((idx, cls, dists))


@st.composite
def tie_heavy_cases(draw):
    """(queries, prototypes argument) on a small integer or 0.1 grid: exact
    cross-class ties, duplicated rows, classes with zero rows, queries of
    absent classes, optionally every coordinate offset by 1e6 (which puts
    every row inside the rounding margin), and optionally per-query sets
    made by ``replace_class``, each picked only for queries of the class it
    replaced, as the camera-filter protocol maps them."""
    dim = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([0.0, 1e6]))
    step = draw(st.sampled_from([1.0, 0.1]))
    row = st.lists(
        st.integers(-2, 2).map(lambda v: offset + step * v), min_size=dim, max_size=dim
    )

    def matrix(rows):
        return np.array(rows, dtype=np.float64).reshape(len(rows), dim)

    n_classes = draw(st.integers(1, 4))
    per_class, pool = {}, []
    for c in range(n_classes):
        rows = draw(st.lists(row, max_size=4))
        if pool and draw(st.booleans()):
            rows.append(draw(st.sampled_from(pool)))  # duplicate of an earlier row
        pool += rows
        per_class[c] = matrix(rows)
    pset = PrototypeSet(per_class, "instance")
    nq = draw(st.integers(1, 6))
    queries = build_set(
        matrix(draw(st.lists(row, min_size=nq, max_size=nq))),
        draw(st.lists(st.integers(0, n_classes), min_size=nq, max_size=nq)),
        [0] * nq,
        id_prefix="q",
    )
    psets = [pset]
    for _ in range(draw(st.integers(0, 2))):  # a second one replaces on top of the first
        c = draw(st.sampled_from(queries.row_classes.tolist()))
        psets.append(psets[-1].replace_class(c, matrix(draw(st.lists(row, max_size=3)))))
    assume(all(p.total_count() for p in psets))
    if len(psets) == 1:
        return queries, pset
    # the packed sets serve any query, a derived set only its replaced class
    picks = [
        draw(st.sampled_from([p for p in psets if set(p.replaced) <= {rec.class_id}]))
        for rec in queries.records
    ]
    return queries, {rec.id: p for rec, p in zip(queries.records, picks)}


def pset_of(arg, rec) -> PrototypeSet:
    return arg if isinstance(arg, PrototypeSet) else arg[rec.id]


class TestGemmKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        case=tie_heavy_cases(),
        ap_mode=st.sampled_from(AP_MODES),
        block=st.sampled_from([1, 2, retrieval.QUERY_BLOCK]),
        data=st.data(),
    )
    def test_evaluate_equals_brute_force(self, case, ap_mode, block, data):
        queries, arg = case
        # CMC tails past the prototype count P are checked too
        n_protos = max(pset_of(arg, rec).total_count() for rec in queries.records)
        max_rank = data.draw(st.integers(1, n_protos + 3), label="max_rank")
        with mock.patch.object(retrieval, "QUERY_BLOCK", block):
            rep = evaluate(
                queries, arg, max_rank=max_rank, ap_mode=ap_mode, include_per_query_ap=True
            )
        want_ap, hits, missing = [], [], []
        for rec in queries.records:
            _, cls, _, order = numpy_brute_force(rec.vector, pset_of(arg, rec))
            ranks = np.nonzero(cls[order] == rec.class_id)[0] + 1
            if len(ranks) == 0:
                missing.append(rec.id)
                want_ap.append([rec.id, 0.0])
                continue
            hits.append(int(ranks[0]))
            if ap_mode == "per_identity":
                ap = 1.0 / int(ranks[0])
            else:
                ap = 0.0
                for i, r in enumerate(ranks, start=1):
                    ap += i / int(r)
                ap /= len(ranks)
            want_ap.append([rec.id, ap])
        n = len(queries)
        assert rep.per_query_ap == want_ap
        assert rep.cmc == [sum(1 for h in hits if h <= k) / n for k in range(1, max_rank + 1)]
        assert sorted(rep.missing_class_query_ids) == missing
        total = 0.0
        for _, ap in want_ap:
            total += ap
        assert rep.map == total / n

    @settings(max_examples=150, deadline=None)
    @given(case=tie_heavy_cases())
    def test_rank_query_equals_brute_force(self, case):
        queries, arg = case
        for rec in queries.records:
            dists, cls, idx, order = numpy_brute_force(rec.vector, pset_of(arg, rec))
            want = tuple((int(cls[i]), int(idx[i]), float(dists[i])) for i in order)
            assert rank_query(rec, pset_of(arg, rec)).entries == want

    def test_replaced_rows_take_one_cdist_call_per_set(self, monkeypatch):
        pset = PrototypeSet({c: np.full((2, 3), float(c)) for c in range(3)}, "instance")
        first = pset.replace_class(0, np.ones((1, 3)))
        second = pset.replace_class(2, np.zeros((3, 3)))
        queries = build_set(np.zeros((5, 3)), [0, 0, 2, 1, 1], [0] * 5, id_prefix="q")
        shapes = []
        real = retrieval.cdist

        def spy(xa, xb, *args, **kwargs):
            shapes.append((len(xa), len(xb)))
            return real(xa, xb, *args, **kwargs)

        monkeypatch.setattr(retrieval, "cdist", spy)
        mapping = dict(zip(["q0", "q1", "q2", "q3", "q4"], [first, first, second, pset, pset]))
        rep = evaluate(queries, mapping, max_rank=3, include_per_query_ap=True)
        # one call per derived set, over its queries; the packed set needs none
        assert shapes == [(2, 1), (1, 3)]
        # ties at 0 and √3 put class 0 before 1 before 2
        assert [ap for _, ap in rep.per_query_ap] == [
            1.0, 1.0, (1 / 3 + 2 / 4 + 3 / 5) / 3, (1 / 3 + 2 / 4) / 2, (1 / 3 + 2 / 4) / 2
        ]

    def test_exact_cross_class_tie_is_rechecked(self, monkeypatch):
        # both prototypes lie at distance 1 from both queries; class 0 wins
        pset = PrototypeSet({0: np.array([[0.0, 1.0]]), 1: np.array([[1.0, 0.0]])}, "instance")
        queries = build_set(np.zeros((2, 2)), [0, 1], [0, 0], id_prefix="q")
        unsure = []
        real = retrieval._certified

        def spy(*args):
            out = real(*args)
            unsure.append(len(out[1]))
            return out

        monkeypatch.setattr(retrieval, "_certified", spy)
        rep = evaluate(queries, pset, max_rank=2, include_per_query_ap=True)
        assert unsure == [1, 1]
        assert rep.per_query_ap == [["q0", 1.0], ["q1", 0.5]]

    def test_underflowing_rival_is_rechecked_at_dim_512(self):
        # e·e is η = 2**-1074, so every product the GEMM forms is subnormal
        # and rounds to a multiple of η, in any summation order.  It puts the
        # own row at 0 and the rival, nearer by both distances, 1,024η past
        # it.  The margin's η term, 2(8n + 32)η = 8,256η at n = 512, sends
        # the rival to the exact re-check; with 8/n for 8n it is 64η, and
        # the rival would be certified farther.
        e, dim = 2.0**-537, 512
        own, rival, query = 0.5 * e, 1.875 * e, 1.25 * e
        assert (rival - query) ** 2 < (own - query) ** 2
        pset = PrototypeSet(
            {0: np.full((1, dim), rival), 1: np.full((1, dim), own)}, "instance"
        )
        queries = build_set(np.full((1, dim), query), [1], [0], id_prefix="q")
        _, _, approx = retrieval._RankKernel(pset, 1).approx_sq_dists(queries.features, [0])
        assert approx.tolist() == [[1024 * 2.0**-1074, 0.0]]
        assert [c for c, _, _ in rank_query(queries.records[0], pset).entries] == [0, 1]
        rep = evaluate(queries, pset, max_rank=2, include_per_query_ap=True)
        assert rep.per_query_ap == [["q0", 0.5]]

    def test_overflowing_distances_fall_back_to_exact_ties(self):
        # every distance overflows to inf, so the (class, index) rule decides
        big = 1e200
        pset = PrototypeSet(
            {0: np.array([[big, 0.0], [0.0, -big]]), 1: np.array([[-big, 0.0]])}, "instance"
        )
        queries = build_set(np.zeros((2, 2)), [1, 0], [0, 0], id_prefix="q")
        rep = evaluate(queries, pset, max_rank=3, include_per_query_ap=True)
        assert rep.per_query_ap == [["q0", 1.0 / 3.0], ["q1", 1.0]]
        assert [c for c, _, _ in rank_query(queries.records[0], pset).entries] == [0, 0, 1]

    def test_overflowing_rebuilt_rows_rank_as_brute_force_without_warnings(self):
        # the rebuilt rows' squared distances overflow in cdist, and their
        # exact distances too, so the (class, index) rule orders them
        big = 1e200
        pset = PrototypeSet(
            {0: np.array([[big, 0.0], [1.0, 0.0]]), 2: np.array([[-big, 0.0]])}, "instance"
        )
        derived = pset.replace_class(1, np.array([[0.0, big], [0.0, -big], [2.0, 0.0]]))
        # q2 is of another class, so it ranks against the packed set
        queries = build_set(
            np.array([[0.0, 0.0], [3.0, 0.0], [0.5, 0.0]]), [1, 1, 0], [0] * 3, id_prefix="q"
        )
        mapping = {"q0": derived, "q1": derived, "q2": pset}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate(queries, mapping, max_rank=6, include_per_query_ap=True)
        want = []
        for rec in queries.records:
            entries = rank_query(rec, mapping[rec.id]).entries
            ranks = [r for r, (c, _, _) in enumerate(entries, start=1) if c == rec.class_id]
            ap = 0.0
            for i, r in enumerate(ranks, start=1):
                ap += i / r
            want.append([rec.id, ap / len(ranks)])
        assert want[0] == ["q0", (1 / 2 + 2 / 4 + 3 / 5) / 3]
        assert rep.per_query_ap == want

    def test_overflowing_margin_scale_emits_no_warning(self):
        # each ‖·‖² is finite, but ‖q‖² + max ‖p‖² is past float64's range
        b = 7e153
        pset = PrototypeSet({0: np.array([[b, b]]), 1: np.array([[-b, -b]])}, "instance")
        queries = build_set(np.array([[b, -b]]), [1], [0], id_prefix="q")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = evaluate(queries, pset, max_rank=2, include_per_query_ap=True)
        # both prototypes lie at distance 2b: a tie that class 0 wins
        assert rep.per_query_ap == [["q0", 0.5]]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cdist_lies_within_its_rounding_bound(self, data):
        # the margin comment's cdist bullet, |a − t| ≤ γ_{n+2}·t, plus the
        # η a square adds when it underflows, against exact rational sums
        dim = data.draw(st.integers(1, 8), label="dim")
        coord = st.builds(
            lambda m, s: s * m, st.floats(1e-150, 1e150), st.sampled_from([1.0, -1.0])
        )

        def matrix(label):
            rows = data.draw(st.integers(1, 3), label=f"{label} rows")
            return np.array(
                data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                   min_size=rows, max_size=rows), label=label)
            )

        xa, xb = matrix("xa"), matrix("xb")
        got = retrieval.cdist(xa, xb)
        assert got.shape == (len(xa), len(xb))
        u = Fraction(1, 2**53)
        gamma = (dim + 2) * u / (1 - (dim + 2) * u)
        eta = Fraction(retrieval._ETA)
        for i, a in enumerate(xa):
            for j, b in enumerate(xb):
                t = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, b))
                assert abs(Fraction(got[i, j]) - t) <= gamma * t + dim * eta

    def test_report_is_identical_under_one_and_two_blas_threads(self):
        script = textwrap.dedent(
            """
            import numpy as np
            from gcproto.retrieval import evaluate, report_to_json
            from gcproto.store import PrototypeSet, build_set

            rng = np.random.default_rng(5)
            centers = rng.normal(0.0, 0.5, size=(60, 64))
            cls = np.repeat(np.arange(60), 40)
            pset = PrototypeSet(
                {c: centers[c] + rng.normal(size=(40, 64)) for c in range(60)}, "instance"
            )
            qcls = np.repeat(np.arange(60), 5)
            queries = build_set(centers[qcls] + rng.normal(size=(300, 64)), qcls, [0] * 300)
            derived = {
                c: pset.replace_class(c, centers[c] + rng.normal(size=(2, 64))) for c in range(60)
            }
            mapping = {
                rec.id: (derived[rec.class_id] if i % 3 else pset)
                for i, rec in enumerate(queries.records)
            }
            for arg in (pset, mapping):
                print(report_to_json(evaluate(queries, arg, include_per_query_ap=True)))
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert '"per_query_ap"' in outputs[0]


# -- grouping ------------------------------------------------------------


class TestMemory:
    def test_instance_pipeline_peaks_below_one_gallery_matrix(self):
        # the instance set shares the class-sorted gallery's rows and the
        # evaluator keeps one query block of GEMM distances, so selection
        # plus evaluation allocates less than a copy of the gallery, and
        # less than two blocks of distances
        spec = SyntheticSpec(n_classes=80, instances_per_class=25, dim=512, queries_per_class=4)
        gallery, queries = generate_synthetic(spec)
        assert len(queries) > 2 * retrieval.QUERY_BLOCK  # three blocks
        tracemalloc.start()
        try:
            pset = run_selector(gallery, SelectorConfig(method="instance"))
            rep = evaluate(queries, pset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_queries == len(queries)
        assert peak < gallery.features.nbytes
        assert peak < 2 * retrieval.QUERY_BLOCK * len(gallery) * 8


class TestBuckets:
    def test_parse_valid(self):
        assert parse_buckets(["1-15", "16-50", "51+"]) == [(1, 15), (16, 50), (51, np.inf)]

    def test_parse_unsorted_input_ok(self):
        assert parse_buckets(["16+", "1-15"]) == [(16, np.inf), (1, 15)]

    @pytest.mark.parametrize(
        "labels",
        [
            ["1-15", "17+"],        # gap
            ["1-15", "10+"],        # overlap
            ["1-15", "16-20"],      # no open end
            ["2-15", "16+"],        # does not start at 1
            ["1-15", "16~20+"],     # malformed
            ["0-15", "16+"],        # zero lower bound
            [],
        ],
    )
    def test_parse_invalid(self, labels):
        with pytest.raises(ConfigError):
            parse_buckets(labels)

    def test_group_breakdown(self):
        queries = build_set(
            np.array([[0.0], [0.1], [10.0]]), [0, 0, 1], [0] * 3, id_prefix="q"
        )
        pset = PrototypeSet(
            {0: np.array([[0.0]]), 1: np.array([[10.0]])}, "centroid"
        )
        sizes = {0: 4, 1: 40}
        rep = evaluate(
            queries, pset, max_rank=2, group_buckets=["1-15", "16-30", "31+"],
            gallery_sizes=sizes,
        )
        assert rep.per_group["1-15"]["count"] == 2
        assert rep.per_group["1-15"]["map"] == 1.0
        assert rep.per_group["16-30"] == {"count": 0, "map": None}
        assert rep.per_group["31+"]["count"] == 1


# -- serialization -------------------------------------------------------


def report_floats(data: dict) -> np.ndarray:
    """Every float of a report as a dict: mAP, top-1, the CMC, each
    bucket's mAP and each per-query AP."""
    buckets = [g["map"] for g in data["per_group"].values() if g["map"] is not None]
    aps = [ap for _, ap in data["per_query_ap"] or ()]
    return np.array([data["map"], data["top1"], *data["cmc"], *buckets, *aps])


class TestReportIo:
    def build_report(self):
        rng = np.random.default_rng(43)
        _, queries, pset = random_instance(rng)
        sizes = {c: 20 for c in pset.class_ids}
        return evaluate(
            queries, pset, max_rank=5, group_buckets=["1-15", "16+"],
            gallery_sizes=sizes, config_echo={"selector": "instance"},
            include_per_query_ap=True,
        )

    def test_json_round_trip_bit_exact(self):
        rep = self.build_report()
        # an empty and a filled bucket, and one AP pair per query
        assert rep.per_group["1-15"] == {"count": 0, "map": None}
        assert rep.per_group["16+"]["count"] == rep.n_queries == len(rep.per_query_ap)
        back = json.loads(report_to_json(rep))
        assert back == asdict(rep)
        assert np.array_equal(
            report_floats(back).view(np.uint64), report_floats(asdict(rep)).view(np.uint64)
        )

    def test_json_keys_sorted(self):
        text = report_to_json(self.build_report())
        data = json.loads(text)
        assert list(data) == sorted(data)

    def test_csv_layout_and_float_fidelity(self):
        rep = self.build_report()
        lines = report_to_csv(rep).strip().split("\n")
        assert lines[0] == "metric,k,value"
        assert len(lines) == 1 + len(rep.cmc) + 1
        for k, line in enumerate(lines[1:-1], start=1):
            metric, kk, value = line.split(",")
            assert (metric, int(kk)) == ("cmc", k)
            assert float(value) == rep.cmc[k - 1]
        metric, kk, value = lines[-1].split(",")
        assert (metric, kk) == ("map", "")
        assert float(value) == rep.map
