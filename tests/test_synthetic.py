"""Synthetic data generation: reproducibility and degenerate limits."""

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
