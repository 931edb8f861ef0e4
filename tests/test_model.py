"""Learned prototype generator: memory assembly, decoding invariants,
loss values against independent re-derivations, finite-difference gradient
agreement, training behavior, and checkpoint integrity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from gcproto.errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    EmptyMemoryError,
    NonFiniteValueError,
    TrainingDivergedError,
    UnknownCameraError,
    UnknownClassError,
)
from gcproto.harness import ExperimentConfig, build_protocol_prototypes
from gcproto.model import (
    ClassBatch,
    GcpConfig,
    GcpModel,
    Memory,
    build_memory,
    generate_prototypes,
    init_params,
    load_model,
    loss,
    loss_and_grads,
    mine_negative_distances,
    save_model,
    select_gcp,
    train,
)
from gcproto.seeding import substream
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


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = GcpConfig()
        assert GcpConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            GcpConfig(dim=6, n_heads=4)  # not divisible
        with pytest.raises(ConfigError):
            GcpConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            GcpConfig(margin=0.0)
        with pytest.raises(ConfigError):
            GcpConfig(momentum=1.0)

    def test_from_json_rejects_key_drift(self):
        data = GcpConfig().to_json_dict()
        data["learning_rate"] = data.pop("lr")
        with pytest.raises(DataFormatError):
            GcpConfig.from_json_dict(data)


class TestMemory:
    def test_tokens_are_features_plus_camera_embedding(self):
        model = tiny_model()
        vecs = np.arange(8, dtype=float).reshape(2, 4)
        es = build_set(vecs, [0, 0], [1, 0])
        mem = build_memory(es, model, 0)
        psi = model.params["camera_embeddings"]
        np.testing.assert_array_equal(mem.tokens[0], vecs[0] + psi[1])
        np.testing.assert_array_equal(mem.tokens[1], vecs[1] + psi[0])
        assert mem.source_record_ids == ("r0", "r1")

    def test_camera_exclusion(self):
        model = tiny_model()
        vecs = np.ones((3, 4))
        es = build_set(vecs, [0, 0, 0], [0, 1, 0])
        mem = build_memory(es, model, 0, excluded_camera=0)
        assert mem.tokens.shape == (1, 4)
        assert mem.source_record_ids == ("r1",)

    def test_exclusion_emptying_class_raises(self):
        model = tiny_model()
        es = build_set(np.ones((2, 4)), [0, 0], [1, 1])
        with pytest.raises(EmptyMemoryError):
            build_memory(es, model, 0, excluded_camera=1)

    def test_unknown_class_and_camera(self):
        model = tiny_model()
        es = build_set(np.ones((2, 4)), [0, 0], [0, 0])
        with pytest.raises(UnknownClassError):
            build_memory(es, model, 5)
        with pytest.raises(UnknownCameraError):
            build_memory(es, model, 0, excluded_camera=7)

    def test_record_camera_outside_model_range(self):
        model = tiny_model()  # n_cameras=2
        es = build_set(np.ones((2, 4)), [0, 0], [0, 3])
        with pytest.raises(UnknownCameraError):
            build_memory(es, model, 0)


class TestGeneration:
    def mem(self, model, rng, rows=5):
        feats = rng.normal(size=(rows, model.config.dim))
        cams = rng.integers(model.config.n_cameras, size=rows)
        tokens = feats + model.params["camera_embeddings"][cams]
        return Memory(tokens=tokens, class_id=0, source_record_ids=())

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
            shuffled = Memory(
                tokens=mem.tokens[perm], class_id=0, source_record_ids=()
            )
            a = generate_prototypes(model, mem, 3)
            b = generate_prototypes(model, shuffled, 3)
            for x, y in zip(a, b):
                np.testing.assert_allclose(x, y, atol=1e-9)

    def test_dim_mismatch(self):
        model = tiny_model()
        bad = Memory(tokens=np.ones((3, 7)), class_id=0, source_record_ids=())
        with pytest.raises(DimensionMismatchError):
            generate_prototypes(model, bad, 2)

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


class TestLossFormula:
    CFG = GcpConfig(dim=4, n_heads=2, margin=1.2, lam=1.0)

    def test_single_triplet_hand_value(self):
        # d_ap = 1, d_an = 1.5: hinge = 1.2 + 1 - 1.5 = 0.7
        val = loss(
            None,
            anchors=[[0.0, 0.0, 0.0, 0.0]],
            positives=[[1.0, 0.0, 0.0, 0.0]],
            negatives=[[1.5, 0.0, 0.0, 0.0]],
            prototypes_by_class={0: np.zeros((1, 4))},
            cfg=self.CFG,
        )
        assert val == pytest.approx(0.7)

    def test_easy_triplet_clamps_to_zero(self):
        val = loss(
            None,
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
            None,
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
        base = loss(None, cfg=GcpConfig(dim=4, n_heads=2, lam=0.0), **args)
        full = loss(None, cfg=GcpConfig(dim=4, n_heads=2, lam=2.0), **args)
        assert base == pytest.approx(0.7)
        assert full == pytest.approx(0.7 + 2.0 * 1.0)

    def test_single_prototype_class_has_no_penalty(self):
        val = loss(
            None,
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
                None,
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
        val = loss(None, a, p, n, {}, self.CFG)
        d_ap = np.linalg.norm(a - p, axis=1)
        d_an = np.linalg.norm(a - n, axis=1)
        want = np.mean(np.maximum(0.0, self.CFG.margin + d_ap - d_an))
        assert val == pytest.approx(want, abs=1e-12)


class TestTrainingLossGraph:
    def batches(self, model, rng, n_classes=2, m=4, n_protos=2):
        cfg = model.config
        feats = [rng.normal(0, 3, size=(m, cfg.dim)) for _ in range(n_classes)]
        neg = mine_negative_distances(feats)
        out = []
        for c in range(n_classes):
            cams = rng.integers(cfg.n_cameras, size=m)
            out.append(
                ClassBatch(
                    class_id=c,
                    anchors=feats[c],
                    negative_distances=neg[c],
                    memory_features=feats[c],
                    memory_cameras=cams,
                    n_prototypes=n_protos,
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
            mem = Memory(tokens=tokens, class_id=cb.class_id, source_record_ids=())
            P = np.vstack(generate_prototypes(model, mem, cb.n_prototypes))
            d_pos = cdist(cb.anchors, P).min(axis=1)
            hinges.append(
                np.maximum(0.0, d_pos - cb.negative_distances + cfg.margin)
            )
            if cb.n_prototypes >= 2:
                dpp = cdist(P, P)
                h = np.maximum(0.0, cfg.margin - dpp)
                h[np.diag_indices(len(P))] = 0.0
                reg.append(h.sum() / (len(P) * (len(P) - 1)))
        total = np.concatenate(hinges)
        val = total.sum() / len(total)
        if reg:
            val += cfg.lam * np.mean(reg)
        return val

    def test_value_matches_numpy_rederivation(self):
        for seed in range(5):
            model = tiny_model(seed)
            batches = self.batches(model, np.random.default_rng(300 + seed))
            got, _ = loss_and_grads(model.params, model.config, batches)
            assert got == pytest.approx(self.reference_loss(model, batches), abs=1e-12)

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
            mem = Memory(tokens=tokens, class_id=cb.class_id, source_record_ids=())
            P = np.vstack(generate_prototypes(model, mem, cb.n_prototypes))
            d = np.sort(cdist(cb.anchors, P), axis=1)
            if d.shape[1] > 1:
                clearance = min(clearance, float((d[:, 1] - d[:, 0]).min()))
            hinge_args = d[:, 0] - cb.negative_distances + cfg.margin
            clearance = min(clearance, float(np.abs(hinge_args).min()))
            if cb.n_prototypes >= 2:
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
                    up, _ = loss_and_grads(model.params, cfg, batches)
                    flat[i] = orig - eps
                    dn, _ = loss_and_grads(model.params, cfg, batches)
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
        assert pset.counts_by_class() == {0: 2, 1: 2, 2: 2}
        assert pset.selector_tag == "gcp"
        assert pset.params_echo["n_requested"] == 2

    def test_default_n_comes_from_config(self):
        es, model = self.fixture()
        pset = select_gcp(es, model)
        assert pset.counts_by_class()[0] == model.config.n_prototypes

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

    def test_fallback_when_exclusion_would_empty_class(self):
        model = tiny_model()
        es = build_set(np.random.default_rng(1).normal(size=(4, 4)),
                       [0, 0, 1, 1], [1, 1, 0, 1])
        queries = build_set(np.zeros((1, 4)), [0], [1], id_prefix="q")
        base, mapping, groups = self.camera_filtered(es, model, queries, 1)
        assert groups == [{"class": 0, "camera": 1, "fallback": True}]
        pset = mapping["q0"]
        assert pset.counts_by_class() == {0: 1, 1: 1}
        np.testing.assert_array_equal(pset.per_class[0], base.per_class[0])

    def test_count_clipped_to_memory_rows(self):
        model = tiny_model()
        es = build_set(np.random.default_rng(2).normal(size=(3, 4)),
                       [0, 0, 1], [0, 1, 0])
        pset = select_gcp(es, model, n=5)
        assert pset.counts_by_class() == {0: 2, 1: 1}
        assert pset.params_echo["reduced_count_classes"] == {"0": 2, "1": 1}

    def test_dim_mismatch(self):
        _, model = self.fixture()
        es = build_set(np.ones((2, 7)), [0, 0], [0, 0])
        with pytest.raises(DimensionMismatchError):
            select_gcp(es, model)
