"""Learned prototype generator: memory assembly, decoding invariants,
loss values against independent re-derivations, the batched loss graph
against a per-class reference graph, finite-difference gradient agreement,
training behavior, and checkpoint integrity."""

import gc
import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from gcproto import autodiff as ad
from gcproto.autodiff import Tensor
from gcproto.errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteValueError,
    TrainingDivergedError,
    UnknownCameraError,
)
from gcproto.harness import ExperimentConfig, build_protocol_prototypes
from gcproto.model import (
    ClassBatch,
    GcpConfig,
    GcpModel,
    build_memory,
    generate_prototypes,
    _generate_rows,
    _loss_graph,
    _sample_class_batches,
    _wrap_params,
    init_params,
    load_model,
    loss_and_grads,
    mine_negative_distances,
    save_model,
    select_gcp,
    train,
)
from gcproto.schema import from_json, to_json
from gcproto.seeding import counter_stream, substream
from gcproto.selectors import SelectorConfig
from gcproto.store import build_set

TINY = GcpConfig(
    dim=4, n_blocks=1, n_heads=2, ffn_dim=8, dropout_rate=0.0,
    n_prototypes=2, n_cameras=2, batch_classes=2, instances_per_class=3,
    epochs=2,
)


def tiny_model(seed=0, cfg=TINY):
    return GcpModel(config=cfg, params=init_params(cfg, substream(seed, "init")))


def toy_set(rng, n_classes=3, per_class=5, dim=4, n_cameras=2, spread=8.0):
    centers = rng.normal(0.0, spread, size=(n_classes, dim))
    vecs, cls, cams = [], [], []
    for c in range(n_classes):
        for i in range(per_class):
            vecs.append(centers[c] + rng.normal(0.0, 0.4, size=dim))
            cls.append(c)
            cams.append(int(rng.integers(n_cameras)))
    return build_set(np.vstack(vecs), cls, cams)


def counts(pset) -> dict[int, int]:
    """Prototypes per class of ``pset``."""
    return {c: len(rows) for c, rows in pset.per_class.items()}


def forward_loss(params, cfg, batches) -> float:
    """The loss ``loss_and_grads`` returns, from the forward pass alone."""
    return float(_loss_graph(_wrap_params(params, False), cfg, batches).data)


def loss(anchors, positives, negatives, prototypes_by_class, cfg) -> float:
    """Numpy oracle: triplet hinge over explicit (anchor, positive, negative)
    rows plus the per-class prototype diversity hinge.  Classes with a
    single prototype contribute zero diversity penalty."""
    a = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    p = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if not (a.shape == p.shape == n.shape):
        raise DimensionMismatchError(
            f"triplet shapes differ: {a.shape}, {p.shape}, {n.shape}"
        )
    if a.size == 0:
        triplet = 0.0
    else:
        d_ap = np.linalg.norm(a - p, axis=1)
        d_an = np.linalg.norm(a - n, axis=1)
        triplet = float(np.mean(np.maximum(0.0, cfg.margin + d_ap - d_an)))
    reg_vals = []
    for protos in prototypes_by_class.values():
        protos = np.atleast_2d(np.asarray(protos, dtype=np.float64))
        k = protos.shape[0]
        if k < 2:
            reg_vals.append(0.0)
            continue
        dists = cdist(protos, protos)
        hinges = np.maximum(0.0, cfg.margin - dists)
        hinges[np.diag_indices(k)] = 0.0
        reg_vals.append(float(hinges.sum() / (k * (k - 1))))
    reg = float(np.mean(reg_vals)) if reg_vals else 0.0
    return triplet + cfg.lam * reg


def padded_memory(cb, width, dim):
    """One class's memory cameras, features and key mask, zero-padded to
    ``width`` rows; the mask is None when no padding is asked for."""
    if width is None:
        return cb.memory_cameras, cb.memory_features, None
    s = len(cb.memory_cameras)
    cams = np.zeros(width, dtype=np.int64)
    feats = np.zeros((width, dim))
    mask = np.zeros((1, 1, 1, width))
    cams[:s], feats[:s], mask[..., s:] = cb.memory_cameras, cb.memory_features, -np.inf
    return cams, feats, mask


def reference_loss_and_grads(params, cfg, batches, dropout_rng=None, pad=False):
    """The training loss graph built one class at a time: each class decoded
    alone (a batch of one), its anchor distances and diversity hinge on 2-D
    arrays, the terms summed in class order.  With ``pad``, each memory is
    zero-padded to the batch's longest and key-masked as the batched graph
    does, which makes every class's forward arithmetic the same.  Returns
    (value, gradients) like ``loss_and_grads``."""
    pt = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    width = max(len(cb.memory_cameras) for cb in batches) if pad else None
    triplets, regs, n_triplets = [], [], 0
    n = cfg.n_prototypes
    for cb in batches:
        cams, feats, mask = padded_memory(cb, width, cfg.dim)
        # a batch of one: (1, s, D) memory in, the (n, D) rows of class 0 out
        mem = ad.take_rows(pt["camera_embeddings"], cams[None]) + ad.const(feats[None])
        rows = _generate_rows(pt, cfg, mem, n, mask, dropout_rng)
        P = ad.take_rows(rows, 0)
        A = ad.const(cb.anchors)
        a2 = ad.sum_(A * A, axis=1, keepdims=True)
        p2 = ad.sum_(P * P, axis=1, keepdims=True)
        d_ap = ad.sqrt(ad.relu(a2 + p2.T - 2.0 * (A @ P.T)))
        nearest = np.eye(n)[d_ap.data.argmin(axis=1)]
        d_pos = ad.sum_(d_ap * ad.const(nearest), axis=1)
        triplets.append(ad.sum_(ad.relu(d_pos - ad.const(cb.negative_distances) + cfg.margin)))
        n_triplets += len(cb.anchors)
        if n >= 2 and cfg.lam > 0.0:
            d_pp = ad.sqrt(ad.relu(p2 + p2.T - 2.0 * (P @ P.T)))
            pair = ad.relu(cfg.margin - d_pp) * ad.const(1.0 - np.eye(n))
            regs.append(ad.sum_(pair) * (1.0 / (n * (n - 1))))
    total = sum(triplets[1:], triplets[0]) * (1.0 / n_triplets)
    if regs:
        total = total + cfg.lam * (sum(regs[1:], regs[0]) * (1.0 / len(batches)))
    total.backward()
    grads = {k: t.grad if t.grad is not None else np.zeros_like(t.data) for k, t in pt.items()}
    return float(total.data), grads


class SequentialDraws:
    """Serves a draw of any shape as consecutive (1, D) draws, in C order:
    how a decoder that drops out one (1, D) row at a time, class after
    class, consumes the dropout stream."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        count = int(np.prod(shape[:-2]))
        return np.stack([self.rng.random(shape[-2:]) for _ in range(count)]).reshape(shape)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = GcpConfig()
        assert from_json(GcpConfig, to_json(cfg)) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            GcpConfig(dim=6, n_heads=4)  # not divisible
        with pytest.raises(ConfigError):
            GcpConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            GcpConfig(margin=0.0)
        with pytest.raises(ConfigError):
            GcpConfig(momentum=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [("dim", "4"), ("n_blocks", True), ("epochs", 2.0), ("lr", "0.1"), ("margin", False)],
    )
    def test_wrong_field_type(self, field, value):
        with pytest.raises(ConfigError, match=field):
            GcpConfig(**{field: value})

    def test_from_json_rejects_key_drift(self, tmp_path):
        # a checkpoint's config block must name exactly the GcpConfig fields
        model = tiny_model()
        path = tmp_path / "model.gcpm"
        save_model(model, path)
        renamed = {"lr": "learning_rate"}
        rewrite_checkpoint(path, edit_config=lambda c: {renamed.get(k, k): c[k] for k in c})
        with pytest.raises(DataFormatError):
            load_model(path)
        save_model(model, path)
        rewrite_checkpoint(path, edit_config=lambda c: {k: c[k] for k in c if k != "dim"})
        with pytest.raises(DataFormatError):
            load_model(path)


class TestMemory:
    def test_tokens_are_features_plus_camera_embedding(self):
        model = tiny_model()
        vecs = np.arange(16, dtype=float).reshape(4, 4)
        es = build_set(vecs, [0, 1, 0, 0], [1, 0, 0, 1])
        psi = model.params["camera_embeddings"]
        for rows in ([0, 2, 3], [3, 0], np.array([2, 1, 0])):
            tokens = build_memory(es, model, rows)
            want = np.array([vecs[i] + psi[es.row_cameras[i]] for i in rows])
            assert tokens.tobytes() == want.tobytes()
        # a class's rows as the store indexes them, a tuple
        np.testing.assert_array_equal(build_memory(es, model, es.class_index[0]),
                                      build_memory(es, model, [0, 2, 3]))

    def test_record_camera_outside_model_range(self):
        model = tiny_model()  # n_cameras=2
        es = build_set(np.ones((2, 4)), [0, 0], [0, 3])
        with pytest.raises(UnknownCameraError, match="'r1' has camera 3"):
            build_memory(es, model, [0, 1])
        assert build_memory(es, model, [0]).shape == (1, 4)


class TestGeneration:
    def mem(self, model, rng, rows=5):
        feats = rng.normal(size=(rows, model.config.dim))
        cams = rng.integers(model.config.n_cameras, size=rows)
        return feats + model.params["camera_embeddings"][cams]

    def test_deterministic(self):
        model = tiny_model(3)
        mem = self.mem(model, np.random.default_rng(5))
        a = generate_prototypes(model, mem, 3)
        b = generate_prototypes(model, mem, 3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_prefix_property_exact(self):
        # incremental decoding must make shorter generations literal
        # prefixes of longer ones, bit for bit
        for seed in range(20):
            model = tiny_model(seed)
            mem = self.mem(model, np.random.default_rng(100 + seed))
            short = generate_prototypes(model, mem, 2)
            long = generate_prototypes(model, mem, 5)
            for s, l in zip(short, long):
                np.testing.assert_array_equal(s, l)

    def test_memory_row_permutation_invariance(self):
        for seed in range(10):
            model = tiny_model(seed)
            rng = np.random.default_rng(200 + seed)
            mem = self.mem(model, rng, rows=7)
            perm = rng.permutation(7)
            shuffled = mem[perm]
            a = generate_prototypes(model, mem, 3)
            b = generate_prototypes(model, shuffled, 3)
            for x, y in zip(a, b):
                np.testing.assert_allclose(x, y, atol=1e-9)

    def test_parameter_nodes_are_built_once_and_follow_the_arrays(self):
        model = tiny_model(4)
        mem = self.mem(model, np.random.default_rng(6))
        consts = model.const_params
        generate_prototypes(model, mem, 2)
        assert model.const_params is consts
        assert all(consts[k].data is v for k, v in model.params.items())

        def fresh():
            params = {k: v.copy() for k, v in model.params.items()}
            return generate_prototypes(GcpModel(model.config, params), mem, 2)

        model.params["head.b"][...] += 1.0  # in place: the same nodes see it
        np.testing.assert_array_equal(generate_prototypes(model, mem, 2), fresh())
        assert model.const_params is consts
        with pytest.raises(TypeError):  # the mapping is read-only
            model.params["head.b"] = model.params["head.b"] - 2.0

    def test_dim_mismatch(self):
        model = tiny_model()
        with pytest.raises(DimensionMismatchError):
            generate_prototypes(model, np.ones((3, 7)), 2)

    def test_n_must_be_positive(self):
        model = tiny_model()
        mem = self.mem(model, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            generate_prototypes(model, mem, 0)


class TestMining:
    def test_hand_case(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[10.0]])
        neg = mine_negative_distances([a, b])
        np.testing.assert_array_equal(neg[0], [10.0, 9.0])
        np.testing.assert_array_equal(neg[1], [9.0])

    def test_needs_two_classes(self):
        with pytest.raises(ConfigError):
            mine_negative_distances([np.ones((3, 2))])

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            neg = mine_negative_distances([np.array([[1e154]]), np.array([[-1e154], [0.0]])])
        # (2e154)**2 overflows; (1e154)**2 does not
        np.testing.assert_array_equal(np.concatenate(neg), [1e154, np.inf, 1e154])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=6),
        dim=st.integers(1, 64),
        exponents=st.lists(st.integers(-150, 160), min_size=48, max_size=48),
    )
    @example(seed=0, sizes=[2, 1], dim=3, exponents=[160, -150, 155] + [0] * 45)
    def test_matches_scipy_bit_for_bit(self, seed, sizes, dim, exponents):
        # row r is scaled by 10**exponents[r]: from 1e-150, where squares
        # underflow, to 1e160, where they overflow to inf
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.array(exponents[: sum(sizes)], dtype=float)[:, None]
        stacked = rng.normal(size=(sum(sizes), dim)) * scales
        feats = np.split(stacked, np.cumsum(sizes)[:-1])
        labels = np.repeat(np.arange(len(sizes)), sizes)
        want = cdist(stacked, stacked)
        want[labels[:, None] == labels[None, :]] = np.inf
        want = want.min(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mine_negative_distances(feats)
        assert [len(g) for g in got] == sizes
        assert np.concatenate(got).tobytes() == want.tobytes()


class TestLossFormula:
    CFG = GcpConfig(dim=4, n_heads=2, margin=1.2, lam=1.0)

    def test_single_triplet_hand_value(self):
        # d_ap = 1, d_an = 1.5: hinge = 1.2 + 1 - 1.5 = 0.7
        val = loss(
            anchors=[[0.0, 0.0, 0.0, 0.0]],
            positives=[[1.0, 0.0, 0.0, 0.0]],
            negatives=[[1.5, 0.0, 0.0, 0.0]],
            prototypes_by_class={0: np.zeros((1, 4))},
            cfg=self.CFG,
        )
        assert val == pytest.approx(0.7)

    def test_easy_triplet_clamps_to_zero(self):
        val = loss(
            anchors=[[0.0] * 4],
            positives=[[0.0] * 4],
            negatives=[[9.0, 0.0, 0.0, 0.0]],
            prototypes_by_class={0: np.zeros((1, 4))},
            cfg=self.CFG,
        )
        assert val == 0.0

    def test_diversity_hinge_hand_value(self):
        # two prototypes 0.2 apart: each ordered pair contributes
        # (1.2 - 0.2), normalized by k(k-1) = 2 -> penalty 1.0
        protos = np.array([[0.0, 0.0, 0.0, 0.0], [0.2, 0.0, 0.0, 0.0]])
        val = loss(
            anchors=np.empty((0, 4)),
            positives=np.empty((0, 4)),
            negatives=np.empty((0, 4)),
            prototypes_by_class={0: protos},
            cfg=self.CFG,
        )
        assert val == pytest.approx(1.0)

    def test_lam_scales_diversity_only(self):
        protos = {0: np.array([[0.0] * 4, [0.2, 0.0, 0.0, 0.0]])}
        args = dict(
            anchors=[[0.0] * 4],
            positives=[[1.0, 0.0, 0.0, 0.0]],
            negatives=[[1.5, 0.0, 0.0, 0.0]],
            prototypes_by_class=protos,
        )
        base = loss(cfg=GcpConfig(dim=4, n_heads=2, lam=0.0), **args)
        full = loss(cfg=GcpConfig(dim=4, n_heads=2, lam=2.0), **args)
        assert base == pytest.approx(0.7)
        assert full == pytest.approx(0.7 + 2.0 * 1.0)

    def test_single_prototype_class_has_no_penalty(self):
        val = loss(
            anchors=np.empty((0, 4)),
            positives=np.empty((0, 4)),
            negatives=np.empty((0, 4)),
            prototypes_by_class={0: np.ones((1, 4))},
            cfg=self.CFG,
        )
        assert val == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loss(
                anchors=np.ones((2, 4)),
                positives=np.ones((3, 4)),
                negatives=np.ones((2, 4)),
                prototypes_by_class={},
                cfg=self.CFG,
            )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_plain_formula(self, data):
        m = data.draw(st.integers(1, 5))
        draw_rows = lambda: np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
                    min_size=m, max_size=m,
                )
            )
        )
        a, p, n = draw_rows(), draw_rows(), draw_rows()
        val = loss(a, p, n, {}, self.CFG)
        d_ap = np.linalg.norm(a - p, axis=1)
        d_an = np.linalg.norm(a - n, axis=1)
        want = np.mean(np.maximum(0.0, self.CFG.margin + d_ap - d_an))
        assert val == pytest.approx(want, abs=1e-12)


class TestTrainingLossGraph:
    def batches(self, model, rng, n_classes=2, m=4):
        cfg = model.config
        feats = [rng.normal(0, 3, size=(m, cfg.dim)) for _ in range(n_classes)]
        neg = mine_negative_distances(feats)
        out = []
        for c in range(n_classes):
            cams = rng.integers(cfg.n_cameras, size=m)
            out.append(
                ClassBatch(
                    anchors=feats[c],
                    negative_distances=neg[c],
                    memory_features=feats[c],
                    memory_cameras=cams,
                )
            )
        return out

    def reference_loss(self, model, batches):
        """Re-derive the batch loss with numpy: each anchor against its
        nearest generated prototype, plus the pairwise diversity hinge."""
        cfg = model.config
        hinges, reg = [], []
        for cb in batches:
            tokens = cb.memory_features + model.params["camera_embeddings"][
                cb.memory_cameras
            ]
            P = np.vstack(generate_prototypes(model, tokens, cfg.n_prototypes))
            d_pos = cdist(cb.anchors, P).min(axis=1)
            hinges.append(
                np.maximum(0.0, d_pos - cb.negative_distances + cfg.margin)
            )
            if cfg.n_prototypes >= 2:
                dpp = cdist(P, P)
                h = np.maximum(0.0, cfg.margin - dpp)
                h[np.diag_indices(len(P))] = 0.0
                reg.append(h.sum() / (len(P) * (len(P) - 1)))
        total = np.concatenate(hinges)
        val = total.sum() / len(total)
        if reg:
            val += cfg.lam * np.mean(reg)
        return val

    def test_a_step_leaves_no_reference_cycle(self):
        # the graph is a DAG, freed by reference counting as soon as the
        # step returns; a cycle would keep it until the cyclic collector ran
        cfg = GcpConfig(
            dim=4, n_blocks=2, n_heads=2, ffn_dim=8, dropout_rate=0.2, n_prototypes=3, n_cameras=2
        )
        model = tiny_model(2, cfg)
        batches = self.batches(model, np.random.default_rng(9))
        gc.collect()
        gc.disable()
        try:
            loss_and_grads(model.params, model.config, batches, np.random.default_rng(1))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_value_matches_numpy_rederivation(self):
        for seed in range(5):
            model = tiny_model(seed)
            batches = self.batches(model, np.random.default_rng(300 + seed))
            got, _ = loss_and_grads(model.params, model.config, batches)
            assert got == pytest.approx(self.reference_loss(model, batches), abs=1e-12)

    @staticmethod
    def mixed_batch(seed, n_protos, lengths, cameras=(0, 1, 2)):
        cfg = GcpConfig(
            dim=4, n_blocks=2, n_heads=2, ffn_dim=8, n_prototypes=n_protos,
            n_cameras=3, seed=seed,
        )
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        feats = [rng.normal(0.0, 3.0, size=(4, cfg.dim)) for _ in lengths]
        neg = mine_negative_distances(feats)
        batches = [
            ClassBatch(
                anchors=feats[c],
                negative_distances=neg[c],
                memory_features=rng.normal(0.0, 3.0, size=(k, cfg.dim)),
                memory_cameras=rng.choice(cameras, size=k),
            )
            for c, k in enumerate(lengths)
        ]
        return params, cfg, batches

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_protos=st.integers(1, 4),
        lengths=st.lists(st.integers(1, 8), min_size=2, max_size=5),
    )
    def test_batched_graph_equals_per_class_reference(self, seed, n_protos, lengths):
        # one forward pass over classes with memories of mixed lengths; the
        # reference decodes each class alone with the same padding, so the
        # two differ only in the order gradients are summed over classes
        params, cfg, batches = self.mixed_batch(seed, n_protos, lengths)
        got, got_grads = loss_and_grads(params, cfg, batches)
        want, want_grads = reference_loss_and_grads(params, cfg, batches, pad=True)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        for name in params:
            scale = max(1.0, float(np.abs(want_grads[name]).max()))
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0, atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_protos=st.integers(1, 4),
        lengths=st.lists(st.integers(1, 8), min_size=2, max_size=5),
    )
    def test_padding_is_masked_out(self, seed, n_protos, lengths):
        # padded rows take camera 0, which no real row uses here: its
        # embedding must get exactly no gradient, and a padded decode must
        # give the unpadded prototypes up to rounding
        params, cfg, batches = self.mixed_batch(seed, n_protos, lengths, cameras=(1, 2))
        _, grads = loss_and_grads(params, cfg, batches)
        np.testing.assert_array_equal(grads["camera_embeddings"][0], 0.0)
        pt = {k: Tensor(v) for k, v in params.items()}
        width = max(lengths)
        for cb in batches:
            rows = []
            for pad in (None, width):
                cams, feats, mask = padded_memory(cb, pad, cfg.dim)
                mem = (params["camera_embeddings"][cams] + feats)[None]
                rows.append(_generate_rows(pt, cfg, Tensor(mem), n_protos, mask).data)
            np.testing.assert_allclose(rows[1], rows[0], rtol=1e-12, atol=1e-12)

    def test_batch_must_share_anchor_count(self):
        model = tiny_model()
        batches = self.batches(model, np.random.default_rng(3))
        cb = batches[1]
        short = replace(cb, anchors=cb.anchors[:3], negative_distances=cb.negative_distances[:3])
        with pytest.raises(ConfigError, match="anchor count"):
            loss_and_grads(model.params, model.config, [batches[0], short])

    def kink_clearance(self, model, batches):
        """Smallest distance of any hinge or nearest-prototype assignment
        from its switching boundary.  The loss is piecewise smooth; finite
        differences are only meaningful at draws where an eps-perturbation
        cannot cross a boundary."""
        cfg = model.config
        clearance = np.inf
        for cb in batches:
            tokens = cb.memory_features + model.params["camera_embeddings"][
                cb.memory_cameras
            ]
            P = np.vstack(generate_prototypes(model, tokens, cfg.n_prototypes))
            d = np.sort(cdist(cb.anchors, P), axis=1)
            if d.shape[1] > 1:
                clearance = min(clearance, float((d[:, 1] - d[:, 0]).min()))
            hinge_args = d[:, 0] - cb.negative_distances + cfg.margin
            clearance = min(clearance, float(np.abs(hinge_args).min()))
            if cfg.n_prototypes >= 2:
                dpp = cdist(P, P)[~np.eye(len(P), dtype=bool)]
                clearance = min(clearance, float(np.abs(cfg.margin - dpp).min()))
        return clearance

    def test_gradients_match_finite_differences(self):
        # central differences; tolerance has an absolute floor because some
        # coordinates (softmax key biases) have exactly-zero gradients whose
        # finite-difference estimate is pure roundoff.  Draws too close to a
        # hinge or assignment boundary are skipped: there the loss has a
        # kink and both-sided differences measure a slope average, not the
        # gradient.
        eps = 1e-5
        checked = 0
        for seed in range(tiny_model(0).config.seed, 50):
            model = tiny_model(seed)
            batches = self.batches(model, np.random.default_rng(300 + seed))
            if self.kink_clearance(model, batches) < 1e-2:
                continue
            cfg = model.config
            _, grads = loss_and_grads(model.params, cfg, batches)
            rng = np.random.default_rng(0)
            for name in sorted(model.params):
                flat = model.params[name].reshape(-1)
                idxs = rng.choice(flat.size, size=min(3, flat.size), replace=False)
                for i in idxs:
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = forward_loss(model.params, cfg, batches)
                    flat[i] = orig - eps
                    dn = forward_loss(model.params, cfg, batches)
                    flat[i] = orig
                    fd = (up - dn) / (2 * eps)
                    an = grads[name].reshape(-1)[i]
                    assert abs(fd - an) <= 1e-7 + 1e-4 * max(abs(fd), abs(an)), (
                        f"seed {seed} {name}[{i}]: fd={fd} analytic={an}"
                    )
            checked += 1
            if checked >= 2:
                break
        assert checked >= 2


def backward_keeping_the_tape(root: Tensor) -> None:
    """Reverse mode over ``root``'s graph without freeing anything: every
    node keeps its gradient, closure and parents.  The reference the
    consuming ``Tensor.backward`` is checked against."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen and node.requires_grad:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestFreedTape:
    """``Tensor.backward`` frees the graph as it walks it: a training
    step's backward needs little more memory than its forward graph, and
    the gradients are the bits a walk that keeps the whole tape gives."""

    CFG = GcpConfig(seed=5)  # desk scale: dim 32, 2 blocks, 16 classes of 8

    def step_inputs(self):
        cfg = self.CFG
        rng = np.random.default_rng(cfg.seed)
        params = init_params(cfg, rng)
        m = cfg.instances_per_class
        feats = [rng.normal(0.0, 3.0, size=(m, cfg.dim)) for _ in range(cfg.batch_classes)]
        batches = []
        for f, neg in zip(feats, mine_negative_distances(feats)):
            s = int(rng.integers(2, m + 1))
            batches.append(ClassBatch(f, neg, f[:s], rng.integers(cfg.n_cameras, size=s)))
        return params, batches

    def graph(self):
        params, batches = self.step_inputs()
        leaves = _wrap_params(params, requires_grad=True)
        return leaves, _loss_graph(leaves, self.CFG, batches, np.random.default_rng(1))

    def test_backward_peak_stays_near_the_forward_graph(self):
        params, batches = self.step_inputs()
        leaves = _wrap_params(params, requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = _loss_graph(leaves, self.CFG, batches, np.random.default_rng(1))
            graph = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            out.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * graph, (peak, graph)

    def test_interior_nodes_are_freed(self):
        leaves, out = self.graph()
        interior = weakref.ref(out.parents[0])
        assert interior() is not None
        out.backward()
        assert interior() is None
        assert out.grad is None and out.parents is None
        assert all(leaf.grad is not None for leaf in leaves.values())

    def test_leaf_gradients_equal_the_tape_keeping_walk(self):
        params, batches = self.step_inputs()
        _, grads = loss_and_grads(params, self.CFG, batches, np.random.default_rng(1))
        ref_leaves, ref_out = self.graph()
        backward_keeping_the_tape(ref_out)
        for name, t in ref_leaves.items():
            want = t.grad if t.grad is not None else np.zeros_like(t.data)
            assert grads[name].tobytes() == want.tobytes(), name

    def test_a_second_backward_raises(self):
        leaves, out = self.graph()
        out.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            out.backward()
        # a new graph over a consumed node cannot reach the leaves either
        with pytest.raises(RuntimeError, match="consumed"):
            ad.sum_(ad.mul(out, leaves["sos"])).backward()


class TestTraining:
    def test_zero_lr_leaves_params_unchanged(self):
        rng = np.random.default_rng(23)
        es = toy_set(rng)
        cfg = GcpConfig(
            dim=4, n_blocks=1, n_heads=2, ffn_dim=8, dropout_rate=0.0,
            n_prototypes=2, n_cameras=2, batch_classes=2,
            instances_per_class=3, epochs=2, lr=0.0,
        )
        before = init_params(cfg, substream(cfg.seed, "init"))
        model, _ = train(es, cfg)
        for name in before:
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_loss_descends_on_separable_data(self):
        rng = np.random.default_rng(29)
        es = toy_set(rng, n_classes=4, per_class=6)
        cfg = GcpConfig(
            dim=4, n_blocks=1, n_heads=2, ffn_dim=8, dropout_rate=0.0,
            n_prototypes=2, n_cameras=2, batch_classes=4,
            instances_per_class=4, epochs=12,
        )
        _, trace = train(es, cfg)
        first = np.mean(trace.epoch_mean_loss[:3])
        last = np.mean(trace.epoch_mean_loss[-3:])
        assert last < first

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(31)
        es = toy_set(rng)
        cfg = GcpConfig(
            dim=4, n_blocks=1, n_heads=2, ffn_dim=8, dropout_rate=0.2,
            n_prototypes=2, n_cameras=2, batch_classes=2,
            instances_per_class=3, epochs=3, seed=5,
        )
        a, ta = train(es, cfg)
        b, tb = train(es, cfg)
        assert ta.epoch_mean_loss == tb.epoch_mean_loss
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_step_draws_dropout_masks_class_major(self):
        # one step over all classes: the batched pass must drop out exactly
        # what decoding one class at a time with (1, D) draws dropped out
        es = toy_set(np.random.default_rng(53), n_classes=3, per_class=5)
        cfg = GcpConfig(
            dim=4, n_blocks=2, n_heads=2, ffn_dim=8, dropout_rate=0.5,
            n_prototypes=3, n_cameras=2, batch_classes=3,
            instances_per_class=4, epochs=1, seed=7,
        )
        model, _ = train(es, cfg)
        params = init_params(cfg, substream(cfg.seed, "init"))
        sampler = substream(cfg.seed, "sampling")
        order = [es.class_ids[i] for i in sampler.permutation(len(es.class_ids))]
        batches = _sample_class_batches(es, order, cfg, sampler)

        def stepped(rng):
            _, grads = reference_loss_and_grads(params, cfg, batches, SequentialDraws(rng))
            return {k: p - cfg.lr * (grads[k] + cfg.weight_decay * p) for k, p in params.items()}

        want = stepped(counter_stream(cfg.seed, "dropout"))
        for name in params:
            np.testing.assert_allclose(model.params[name], want[name], rtol=0, atol=1e-12)
        other = stepped(counter_stream(cfg.seed + 1, "dropout"))
        assert any(
            np.abs(model.params[k] - other[k]).max() > 1e-6 for k in params
        ), "the masks do not reach the result"

    def test_dropout_run_matches_pinned_losses(self):
        # pinned epoch losses of a dropout run; a mask drawn in another order
        # or applied to another sub-layer moves them by far more than rounding
        es = toy_set(np.random.default_rng(59), n_classes=4, per_class=5)
        cfg = GcpConfig(
            dim=4, n_blocks=2, n_heads=2, ffn_dim=8, dropout_rate=0.3,
            n_prototypes=3, n_cameras=2, batch_classes=2,
            instances_per_class=4, epochs=3, seed=11,
        )
        _, trace = train(es, cfg)
        np.testing.assert_allclose(
            trace.epoch_mean_loss,
            [0.21325203955545402, 0.5975836967341024, 0.6070202552221357],
            rtol=0, atol=1e-12,
        )

    def test_checkpoint_is_identical_under_one_and_two_blas_threads(self, tmp_path):
        script = textwrap.dedent(
            """
            import hashlib, sys
            from gcproto.model import GcpConfig, save_model, train
            from gcproto.synthetic import SyntheticSpec, generate_synthetic

            spec = SyntheticSpec(n_classes=24, instances_per_class=10, dim=32, seed=3)
            gallery, _ = generate_synthetic(spec)
            model, trace = train(gallery, GcpConfig(dim=32, epochs=2, seed=3))
            save_model(model, sys.argv[1])
            with open(sys.argv[1], "rb") as fh:
                print(hashlib.sha256(fh.read()).hexdigest(), repr(trace.epoch_mean_loss))
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / f"model{threads}.gcpm")],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert (tmp_path / "model1.gcpm").read_bytes() == (tmp_path / "model2.gcpm").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_lr_diverges_with_clear_error(self):
        rng = np.random.default_rng(37)
        es = toy_set(rng)
        cfg = GcpConfig(
            dim=4, n_blocks=1, n_heads=2, ffn_dim=8, dropout_rate=0.0,
            n_prototypes=2, n_cameras=2, batch_classes=2,
            instances_per_class=3, epochs=30, lr=1e6,
        )
        with pytest.raises(TrainingDivergedError):
            train(es, cfg)

    def test_preconditions(self):
        rng = np.random.default_rng(41)
        es = toy_set(rng, dim=4)
        with pytest.raises(DimensionMismatchError):
            train(es, GcpConfig(dim=8, n_heads=2))
        one_class = build_set(np.ones((3, 4)), [0, 0, 0], [0, 0, 0])
        with pytest.raises(ConfigError):
            train(one_class, TINY)
        with pytest.raises(ConfigError):
            train(es, GcpConfig(dim=4, n_heads=2, batch_classes=1))
        hi_cam = build_set(np.ones((4, 4)), [0, 0, 1, 1], [0, 0, 0, 9])
        with pytest.raises(UnknownCameraError):
            train(hi_cam, TINY)


def rewrite_checkpoint(path, edit_config=None, edit_manifest=None, tail=b""):
    """Rewrite a checkpoint's config and manifest JSON, keeping the blob and
    appending ``tail`` to it."""
    raw = path.read_bytes()
    pos, blocks = 8, []
    for _ in range(2):
        (length,) = struct.unpack_from("<I", raw, pos)
        blocks.append(json.loads(raw[pos + 4 : pos + 4 + length]))
        pos += 4 + length
    cfg, manifest = blocks
    cfg = edit_config(cfg) if edit_config else cfg
    manifest = edit_manifest(manifest) if edit_manifest else manifest
    out = bytearray(raw[:8])
    for block in (cfg, manifest):
        data = json.dumps(block).encode("utf-8")
        out += struct.pack("<I", len(data)) + data
    path.write_bytes(bytes(out) + raw[pos:] + tail)


def entry_edit(index, **changes):
    """A manifest edit that updates one entry's keys."""

    def edit(manifest):
        manifest[index] = {**manifest[index], **changes}
        return manifest

    return edit


def shift_last_offset(by):
    """A manifest edit that moves the highest offset by ``by`` bytes."""

    def edit(manifest):
        last = max(manifest, key=lambda e: e["offset"])
        last["offset"] += by
        return manifest

    return edit


class TestCheckpoint:
    def trained(self, tmp_path):
        rng = np.random.default_rng(43)
        es = toy_set(rng)
        model, _ = train(es, TINY)
        path = tmp_path / "model.gcpm"
        save_model(model, path)
        return model, path

    def test_round_trip_bitwise(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert sorted(loaded.params) == sorted(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_bad_magic(self, tmp_path):
        _, path = self.trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_truncation(self, tmp_path):
        _, path = self.trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        _, path = self.trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "edit_config,edit_manifest,error",
        [
            (None, entry_edit(0, offset=-8), DataFormatError),
            (None, shift_last_offset(3), DataFormatError),
            (None, entry_edit(1, offset=0), DataFormatError),
            (None, entry_edit(0, offset=8 * 10**9), DataFormatError),
            (None, entry_edit(0, offset="0"), DataFormatError),
            (None, entry_edit(0, shape=4), DataFormatError),
            (None, entry_edit(0, shape=[True]), DataFormatError),
            (None, entry_edit(0, name=7), DataFormatError),
            (None, entry_edit(0, dtype="f8"), DataFormatError),
            (None, lambda m: m + [m[0]], DataFormatError),
            (None, lambda m: [1, 2, 3], DataFormatError),
            (None, lambda m: {"entries": m}, DataFormatError),
            (lambda c: {**c, "dim": "4"}, None, ConfigError),
            (lambda c: {**c, "n_blocks": True}, None, ConfigError),
            (lambda c: [c], None, DataFormatError),
        ],
        ids=[
            "negative-offset", "misaligned-offset", "overlapping-offset",
            "offset-past-end", "string-offset", "int-shape", "bool-size",
            "int-name", "extra-key", "duplicate-entry", "manifest-of-ints",
            "manifest-object", "string-dim", "bool-n-blocks", "config-list",
        ],
    )
    def test_malformed_metadata_rejected(self, tmp_path, edit_config, edit_manifest, error):
        _, path = self.trained(tmp_path)
        # eight spare bytes, so a shifted last parameter neither overlaps nor
        # runs past the end
        rewrite_checkpoint(path, edit_config, edit_manifest, tail=bytes(8))
        with pytest.raises(error):
            load_model(path)

    @pytest.mark.parametrize(
        "edit_manifest,tail",
        [(lambda m: m[::-1], b""), (shift_last_offset(8), bytes(8))],
        ids=["reversed", "gap-before-last"],
    )
    def test_manifest_other_than_the_config_layout_rejected(self, tmp_path, edit_manifest, tail):
        # both would be readable offset by offset; no writer produces them
        _, path = self.trained(tmp_path)
        rewrite_checkpoint(path, edit_manifest=edit_manifest, tail=tail)
        with pytest.raises(DataFormatError, match="layout"):
            load_model(path)

    def test_save_refuses_parameter_of_wrong_shape(self, tmp_path):
        model = tiny_model()
        params = {**model.params, "head.b": np.zeros(TINY.dim + 1)}
        path = tmp_path / "model.gcpm"
        with pytest.raises(DimensionMismatchError, match="head.b"):
            save_model(GcpModel(config=TINY, params=params), path)
        assert not path.exists()

    def test_rewrite_helper_round_trips(self, tmp_path):
        model, path = self.trained(tmp_path)
        rewrite_checkpoint(path)
        loaded = load_model(path)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.trained(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DataFormatError, match="8 extra bytes after the last parameter"):
            load_model(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        model, path = self.trained(tmp_path)
        model.params["sos"][0, 0] = np.inf
        save_model(model, path)
        with pytest.raises(NonFiniteValueError):
            load_model(path)


class TestSelectGcp:
    def fixture(self):
        rng = np.random.default_rng(47)
        es = toy_set(rng, n_classes=3, per_class=4)
        model, _ = train(es, TINY)
        return es, model

    def test_counts_and_tag(self):
        es, model = self.fixture()
        pset = select_gcp(es, model, n=2)
        assert counts(pset) == {0: 2, 1: 2, 2: 2}
        assert pset.selector_tag == "gcp"
        assert pset.params_echo == {"method": "gcp", "n": 2, "reduced_count_classes": {}}

    def camera_filtered(self, es, model, queries, n):
        # the camera-filter protocol rebuilds a query's own class without its
        # camera; rival classes keep the plain select_gcp rows
        cfg = ExperimentConfig(
            selector=SelectorConfig(method="gcp"), preset="tradeoff",
            gcp=model.config, protocol="camera-filter",
        )
        return build_protocol_prototypes(cfg, es, queries, model, n)

    def test_camera_filter_changes_prototypes_and_is_flagged(self):
        es, model = self.fixture()
        cam0 = next(r.camera_id for r in es.records if r.class_id == 0)
        queries = build_set(np.zeros((1, 4)), [0], [cam0], id_prefix="q")
        plain = select_gcp(es, model, n=2)
        base, mapping, groups = self.camera_filtered(es, model, queries, 2)
        filt = mapping["q0"]
        assert groups == [{"class": 0, "camera": cam0, "fallback": False}]
        assert not np.array_equal(filt.per_class[0], plain.per_class[0])
        np.testing.assert_array_equal(filt.per_class[1], plain.per_class[1])
        np.testing.assert_array_equal(base.per_class[0], plain.per_class[0])

    def test_camera_outside_the_model_range_excludes_nothing(self):
        # no record of class 0 carries camera 5 (the model embeds 0 and 1),
        # so the group keeps every row and rebuilds the base's prototypes
        es, model = self.fixture()
        queries = build_set(np.zeros((2, 4)), [0, 1], [5, 1], id_prefix="q")
        base, mapping, groups = self.camera_filtered(es, model, queries, 2)
        assert groups[0] == {"class": 0, "camera": 5, "fallback": False}
        assert mapping["q0"].per_class[0].tobytes() == base.per_class[0].tobytes()

    def test_fallback_when_exclusion_would_empty_class(self):
        model = tiny_model()
        es = build_set(np.random.default_rng(1).normal(size=(4, 4)),
                       [0, 0, 1, 1], [1, 1, 0, 1])
        queries = build_set(np.zeros((1, 4)), [0], [1], id_prefix="q")
        base, mapping, groups = self.camera_filtered(es, model, queries, 1)
        assert groups == [{"class": 0, "camera": 1, "fallback": True}]
        pset = mapping["q0"]
        assert counts(pset) == {0: 1, 1: 1}
        np.testing.assert_array_equal(pset.per_class[0], base.per_class[0])

    def test_count_clipped_to_memory_rows(self):
        model = tiny_model()
        es = build_set(np.random.default_rng(2).normal(size=(3, 4)),
                       [0, 0, 1], [0, 1, 0])
        pset = select_gcp(es, model, n=5)
        assert counts(pset) == {0: 2, 1: 1}
        assert pset.params_echo["reduced_count_classes"] == {"0": 2, "1": 1}

    def test_dim_mismatch(self):
        _, model = self.fixture()
        es = build_set(np.ones((2, 7)), [0, 0], [0, 0])
        with pytest.raises(DimensionMismatchError):
            select_gcp(es, model, n=2)
