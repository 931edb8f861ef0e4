"""Synthetic data generation: reproducibility and degenerate limits."""

import hashlib

import numpy as np
import pytest

from gcproto.errors import ConfigError
from gcproto.retrieval import evaluate
from gcproto.selectors import SelectorConfig, run_selector
from gcproto.synthetic import (
    PRESETS,
    SyntheticSpec,
    generate_synthetic,
    tradeoff_spec,
    tradeoff_training,
)


class TestGeneration:
    def test_bitwise_deterministic(self):
        spec = SyntheticSpec(n_classes=5, instances_per_class=4, dim=6, seed=13)
        g1, q1 = generate_synthetic(spec)
        g2, q2 = generate_synthetic(spec)
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(q1.features, q2.features)
        assert [r.camera_id for r in g1.records] == [r.camera_id for r in g2.records]

    def test_seed_changes_data(self):
        a, _ = generate_synthetic(SyntheticSpec(n_classes=3, dim=4, seed=1))
        b, _ = generate_synthetic(SyntheticSpec(n_classes=3, dim=4, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_labels(self):
        spec = SyntheticSpec(
            n_classes=6, instances_per_class=5, dim=8, n_cameras=3,
            queries_per_class=2, seed=3,
        )
        gallery, queries = generate_synthetic(spec)
        assert len(gallery) == 30
        assert len(queries) == 12
        assert gallery.dim == 8
        assert gallery.class_ids == list(range(6))
        assert all(0 <= r.camera_id < 3 for r in gallery.records)

    def test_variable_class_sizes(self):
        spec = SyntheticSpec(
            n_classes=40, instances_per_class=(2, 9), dim=4, seed=5
        )
        gallery, _ = generate_synthetic(spec)
        sizes = {gallery.class_size(c) for c in gallery.class_ids}
        assert sizes <= set(range(2, 10))
        assert len(sizes) > 1

    def test_zero_noise_collapses_to_center_plus_offset(self):
        spec = SyntheticSpec(
            n_classes=3, instances_per_class=4, dim=5, n_cameras=1,
            within_class_noise=0.0, camera_offset_scale=0.0,
            elongation_scale=0.0, seed=11,
        )
        gallery, _ = generate_synthetic(spec)
        for c in gallery.class_ids:
            pts = gallery.class_matrix(c)
            np.testing.assert_array_equal(pts, np.broadcast_to(pts[0], pts.shape))

    def test_queries_are_fresh_draws(self):
        gallery, queries = generate_synthetic(
            SyntheticSpec(n_classes=3, instances_per_class=4, dim=4, seed=7)
        )
        assert not any(
            np.array_equal(q.vector, g.vector)
            for q in queries.records
            for g in gallery.records
        )

    def test_separated_classes_are_trivially_retrievable(self):
        spec = SyntheticSpec(
            n_classes=8, instances_per_class=6, dim=12,
            class_center_scale=50.0, within_class_noise=0.3,
            camera_offset_scale=0.1, queries_per_class=3, seed=17,
        )
        gallery, queries = generate_synthetic(spec)
        centroids = run_selector(gallery, SelectorConfig(method="centroid"))
        rep = evaluate(queries, centroids, max_rank=1)
        assert rep.top1 == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_classes=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(instances_per_class=(5, 2))
        with pytest.raises(ConfigError):
            SyntheticSpec(within_class_noise=-1.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(seed=-1)


def set_digest(eset) -> str:
    """sha256 of a set's feature bytes, ids, and class and camera labels."""
    h = hashlib.sha256(eset.features.tobytes())
    h.update("\n".join(r.id for r in eset.records).encode())
    labels = [(r.class_id, r.camera_id) for r in eset.records]
    h.update(np.array(labels, dtype="<i8").tobytes())
    return h.hexdigest()


# Elongated with ranged extents and sizes, one-sided tails and tilted axes
# on a chain: every branch of the per-record draw.
SHAPED = SyntheticSpec(
    n_classes=5, instances_per_class=(3, 7), dim=6, n_cameras=3,
    elongation_scale=(0.5, 2.0), elongation_floor=0.2, tail_fraction=0.3,
    tail_angle_deg=30.0, chain_spacing=1.0, queries_per_class=2, seed=4,
)


class TestPinnedData:
    # Digests of the data as first generated; any change to the draw order,
    # the arithmetic or the ids moves them.
    @pytest.mark.parametrize(
        "spec, gallery_digest, query_digest",
        [
            (
                tradeoff_spec(),
                "8a1c4a1bd9a84d0618eb55ba12d4ac6a5b35a48ce89a94c4fe50cfef4c251b11",
                "3e4ede2cb385c792cfdae3c7ac09f3829ad4c648f0d77ed0dc1d1173f5c8be2b",
            ),
            (
                SHAPED,
                "903be291ca072cd4f9c08821c14ed994e9893ad79218eea2252483e369ef00ef",
                "25f6f643e40b5d99e64fcd652cc1582e273ca3130c1212db2de2198b33d2f663",
            ),
        ],
        ids=["tradeoff", "shaped"],
    )
    def test_generated_sets_are_pinned(self, spec, gallery_digest, query_digest):
        gallery, queries = generate_synthetic(spec)
        assert (set_digest(gallery), set_digest(queries)) == (gallery_digest, query_digest)


class TestPresets:
    def test_tradeoff_registered(self):
        assert "tradeoff" in PRESETS
        assert PRESETS["tradeoff"]() == tradeoff_spec()

    def test_tradeoff_generates(self):
        gallery, queries = generate_synthetic(tradeoff_spec())
        assert len(gallery) == 4 * 24
        assert len(queries) == 4 * 24

    def test_camera_exclusion_displaces_class_means(self):
        # dropping one camera's records must move a class mean mostly
        # because of the camera offsets, not sampling noise; that shift is
        # what sinks single plain means under the camera filter
        def median_shift(spec):
            gallery, _ = generate_synthetic(spec)
            shifts = []
            for c in gallery.class_ids:
                pts = gallery.class_matrix(c)
                cams = np.array(
                    [r.camera_id for r in gallery.records if r.class_id == c]
                )
                full = pts.mean(axis=0)
                for cam in np.unique(cams):
                    rest = pts[cams != cam]
                    if len(rest):
                        shifts.append(np.linalg.norm(rest.mean(axis=0) - full))
            return np.median(shifts)

        spec = tradeoff_spec()
        control = SyntheticSpec(
            **{**spec.__dict__, "camera_offset_scale": 0.0}
        )
        assert median_shift(spec) > 2.0 * median_shift(control)

    def test_full_gallery_centroids_rank_well(self):
        # without the camera filter plain means still rank their class near
        # the top; the mean breakdown is specific to the exclusion protocol
        gallery, queries = generate_synthetic(tradeoff_spec())
        centroids = run_selector(gallery, SelectorConfig(method="centroid"))
        rep = evaluate(queries, centroids, max_rank=1)
        assert rep.map >= 0.75

    def test_tradeoff_training_pairs_with_spec(self):
        spec = tradeoff_spec()
        cfg = tradeoff_training()
        assert cfg.dim == spec.dim
        assert cfg.n_prototypes == 3
        assert cfg.dropout_rate == 0.0
        assert cfg.batch_classes <= spec.n_classes
