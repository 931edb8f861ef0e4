"""Synthetic data generation: reproducibility and degenerate limits."""

import hashlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcproto import synthetic
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
        with pytest.raises(ConfigError, match="instances_per_class"):
            SyntheticSpec(instances_per_class=(2, 5))  # a size range, no longer read
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


# Elongated on a chain with a slide floor: every branch of the per-record
# draw.
SHAPED = SyntheticSpec(
    n_classes=5, instances_per_class=5, dim=6, n_cameras=3,
    elongation_scale=1.25, elongation_floor=0.2, chain_spacing=1.0,
    queries_per_class=2, seed=4,
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
                "e56fd051c157789dae28b9a59eb68e3461933ff54a36089c72062afa3d713885",
                "df1c9416dcc6e3ded03a996031a64eee79808656fefacd804ee4631dd407bd5f",
            ),
        ],
        ids=["tradeoff", "shaped"],
    )
    def test_generated_sets_are_pinned(self, spec, gallery_digest, query_digest):
        gallery, queries = generate_synthetic(spec)
        assert (set_digest(gallery), set_digest(queries)) == (gallery_digest, query_digest)


def per_record_draw(spec, rng, centers, offsets, axes, sizes):
    """``_draw_records`` as one expression per record: the oracle its
    in-place rows must equal bit for bit."""
    classes = np.repeat(np.arange(spec.n_classes, dtype=np.int64), sizes)
    cameras = np.empty(len(classes), dtype=np.int64)
    vectors = np.empty((len(classes), spec.dim))
    for i, c in enumerate(classes.tolist()):
        cam = int(rng.integers(spec.n_cameras))
        vec = centers[c] + offsets[cam]
        if axes is not None:
            mag = rng.uniform(spec.elongation_floor, 1.0)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            vec = vec + sign * mag * spec.elongation_scale * axes[c]
        vectors[i] = vec + rng.normal(0.0, spec.within_class_noise, spec.dim)
        cameras[i] = cam
    return vectors, classes, cameras


@st.composite
def specs(draw):
    """Specs over every branch of the draw: no elongation, free or chained
    centers, and zero noise."""
    return SyntheticSpec(
        n_classes=draw(st.integers(1, 5)),
        instances_per_class=draw(st.integers(1, 5)),
        dim=draw(st.integers(1, 6)),
        n_cameras=draw(st.integers(1, 4)),
        within_class_noise=draw(st.just(0.0) | st.floats(0.0, 2.0)),
        camera_offset_scale=draw(st.floats(0.0, 2.0)),
        elongation_scale=draw(st.just(0.0) | st.floats(0.0, 3.0)),
        elongation_floor=draw(st.floats(0.0, 0.9)),
        chain_spacing=draw(st.sampled_from([0.0, 1.5])),
        queries_per_class=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestDrawRecords:
    @settings(max_examples=120, deadline=None)
    @given(spec=specs())
    def test_rows_written_in_place_equal_the_per_record_draw(self, spec):
        got = generate_synthetic(spec)
        with mock.patch.object(synthetic, "_draw_records", per_record_draw):
            want = generate_synthetic(spec)
        for g, w in zip(got, want):
            assert g.features.tobytes() == w.features.tobytes()
            assert g.ids == w.ids
            np.testing.assert_array_equal(g.row_classes, w.row_classes)
            np.testing.assert_array_equal(g.row_cameras, w.row_cameras)

    @settings(max_examples=80, deadline=None)
    @given(spec=specs(), data=st.data())
    def test_signed_zeros_equal_the_per_record_draw(self, spec, data):
        # means, axes and scales that are exact zeros of either sign make
        # the sign of zero noise (s = 0) show in the rows
        def array(*shape):
            values = st.lists(st.sampled_from([0.0, -0.0, 1.5]), min_size=int(np.prod(shape)),
                              max_size=int(np.prod(shape)))
            return np.reshape(data.draw(values), shape)

        n, d = spec.n_classes, spec.dim
        axes = array(n, d) if data.draw(st.booleans()) else None
        sizes = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        spec = replace(spec, elongation_scale=data.draw(st.sampled_from([0.0, -0.0, 1.5])))
        inputs = (array(n, d), array(spec.n_cameras, d), axes, sizes)
        seed = data.draw(st.integers(0, 2**32))
        got = synthetic._draw_records(spec, np.random.default_rng(seed), *inputs)
        want = per_record_draw(spec, np.random.default_rng(seed), *inputs)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


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
