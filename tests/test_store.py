"""Embedding set construction, indices, and file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcproto.errors import (
    DataFormatError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyFileError,
    MissingColumnError,
    NonFiniteValueError,
    UnknownClassError,
)
from gcproto.store import (
    EmbeddingRecord,
    EmbeddingSet,
    PrototypeSet,
    align_labels,
    build_set,
    load_embedding_set,
    save_embedding_set,
)


def small_set() -> EmbeddingSet:
    vecs = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 5.0]]
    )
    return build_set(vecs, [0, 0, 0, 1, 1], [0, 1, 0, 0, 2])


class TestEmbeddingSet:
    def test_basic_indexing(self):
        es = small_set()
        assert es.dim == 2
        assert len(es) == 5
        assert es.class_ids == [0, 1]
        assert es.class_size(0) == 3
        assert es.cameras_of_class(0) == [0, 1]
        np.testing.assert_array_equal(
            es.class_matrix(1), np.array([[5.0, 5.0], [6.0, 5.0]])
        )

    def test_indices_are_read_only_and_not_copied(self):
        es = small_set()
        assert es.class_index is es.class_index
        assert es.camera_index[(0, 0)] == (0, 2)
        with pytest.raises(TypeError):
            es.class_index[0] = (1,)

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            small_set().class_matrix(7)

    def test_duplicate_id_rejected(self):
        recs = [
            EmbeddingRecord("a", np.zeros(2), 0, 0),
            EmbeddingRecord("a", np.ones(2), 0, 0),
        ]
        with pytest.raises(DuplicateIdError):
            EmbeddingSet(recs)

    def test_dimension_mismatch_rejected(self):
        recs = [
            EmbeddingRecord("a", np.zeros(2), 0, 0),
            EmbeddingRecord("b", np.zeros(3), 0, 0),
        ]
        with pytest.raises(DimensionMismatchError):
            EmbeddingSet(recs)

    def test_non_finite_rejected(self):
        recs = [EmbeddingRecord("a", np.array([1.0, np.nan]), 0, 0)]
        with pytest.raises(NonFiniteValueError):
            EmbeddingSet(recs)

    def test_negative_label_rejected(self):
        recs = [EmbeddingRecord("a", np.zeros(2), -1, 0)]
        with pytest.raises(DataFormatError):
            EmbeddingSet(recs)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFileError):
            EmbeddingSet([])

    def test_features_read_only(self):
        es = small_set()
        with pytest.raises(ValueError):
            es.features[0, 0] = 9.0


class TestCsvIo:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vecs = rng.normal(0, 1, (10, 4)) * 10.0 ** rng.integers(-12, 12, (10, 1))
        es = build_set(vecs, rng.integers(0, 3, 10), rng.integers(0, 2, 10))
        path = tmp_path / "x.csv"
        save_embedding_set(es, path)
        back = load_embedding_set(path)
        np.testing.assert_array_equal(back.features, es.features)
        assert [r.id for r in back.records] == [r.id for r in es.records]
        # CSV labels remap to dense ids in first-appearance order; the original
        # labels survive in the name mapping.
        assert [back.class_names[r.class_id] for r in back.records] == [
            str(r.class_id) for r in es.records
        ]
        assert [back.camera_names[r.camera_id] for r in back.records] == [
            str(r.camera_id) for r in es.records
        ]

    def test_string_labels_remapped_dense(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text(
            "id,class,camera,f0\n"
            "a,walrus,north,1.5\n"
            "b,heron,south,2.5\n"
            "c,walrus,south,3.5\n"
        )
        es = load_embedding_set(path)
        assert [r.class_id for r in es.records] == [0, 1, 0]
        assert es.class_names == {0: "walrus", 1: "heron"}
        assert es.camera_names == {0: "north", 1: "south"}

    def test_remap_survives_round_trip(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("id,class,camera,f0\na,x,c1,1.0\nb,y,c2,2.0\n")
        es = load_embedding_set(path)
        out = tmp_path / "out.csv"
        save_embedding_set(es, out)
        assert "a,x,c1,1\n" in out.read_text() or "a,x,c1,1.0" in out.read_text()
        back = load_embedding_set(out)
        assert back.class_names == es.class_names

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,camera,f0\na,0,0,1.0\n")
        with pytest.raises(MissingColumnError):
            load_embedding_set(path)

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,camera\na,0,0\n")
        with pytest.raises(MissingColumnError):
            load_embedding_set(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,camera,f0,f1\na,0,0,1.0,2.0\nb,0,0,1.0\n")
        with pytest.raises(DimensionMismatchError) as err:
            load_embedding_set(path)
        assert "line 3" in str(err.value)

    def test_non_numeric_coordinate(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,camera,f0\na,0,0,apple\n")
        with pytest.raises(DataFormatError) as err:
            load_embedding_set(path)
        assert "line 2" in str(err.value)

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,camera,f0\na,0,0,nan\n")
        with pytest.raises(NonFiniteValueError):
            load_embedding_set(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(EmptyFileError):
            load_embedding_set(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,camera,f0\n")
        with pytest.raises(EmptyFileError):
            load_embedding_set(path)

    @pytest.mark.parametrize("bad", [",", "\n", "\r"], ids=["comma", "lf", "cr"])
    @pytest.mark.parametrize("field", ["id", "class", "camera"])
    def test_unreadable_field_refused_before_writing(self, tmp_path, field, bad):
        # the reader splits on commas and lines, so such a file could not
        # be read back; the writer refuses it and leaves no file behind
        names = {field: f"a{bad}b"}
        rec = EmbeddingRecord(names.get("id", "r0"), np.zeros(2), 0, 0)
        es = EmbeddingSet(
            [rec],
            class_names={0: names.get("class", "c")},
            camera_names={0: names.get("camera", "k")},
        )
        path = tmp_path / "x.csv"
        with pytest.raises(DataFormatError):
            save_embedding_set(es, path)
        assert not path.exists()

    @settings(max_examples=25, deadline=None)
    @given(
        coords=st.lists(
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                min_value=-1e100,
                max_value=1e100,
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_any_finite_floats_round_trip(self, coords, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "one.csv"
        es = build_set(np.array([coords]), [0], [0])
        save_embedding_set(es, path)
        back = load_embedding_set(path)
        np.testing.assert_array_equal(back.features, es.features)


class TestAlignLabels:
    def write_and_load(self, tmp_path, name, rows):
        path = tmp_path / name
        path.write_text("id,class,camera,f0\n" + "".join(rows))
        return load_embedding_set(path)

    def test_per_file_order_reconciled(self, tmp_path):
        # The same labels appear in different first-seen order in each file,
        # so the raw dense ids disagree until the query set is re-indexed.
        gal = self.write_and_load(
            tmp_path, "g.csv", ["g0,a,c2,0.0\n", "g1,b,c1,1.0\n", "g2,a,c1,2.0\n"]
        )
        qry = self.write_and_load(
            tmp_path, "q.csv", ["q0,b,c1,3.0\n", "q1,a,c2,4.0\n"]
        )
        assert [r.class_id for r in qry.records] == [0, 1]
        aligned = align_labels(gal, qry)
        assert [r.class_id for r in aligned.records] == [1, 0]
        assert [r.camera_id for r in aligned.records] == [1, 0]
        assert aligned.class_names == {0: "a", 1: "b"}
        assert [r.id for r in aligned.records] == ["q0", "q1"]
        np.testing.assert_array_equal(aligned.features, qry.features)

    def test_unseen_labels_appended_after_reference(self, tmp_path):
        gal = self.write_and_load(tmp_path, "g.csv", ["g0,a,c0,0.0\n", "g1,b,c1,1.0\n"])
        qry = self.write_and_load(
            tmp_path, "q.csv", ["q0,zed,c9,2.0\n", "q1,b,c0,3.0\n"]
        )
        aligned = align_labels(gal, qry)
        assert [r.class_id for r in aligned.records] == [2, 1]
        assert [r.camera_id for r in aligned.records] == [2, 0]
        assert aligned.class_names == {0: "a", 1: "b", 2: "zed"}
        assert aligned.camera_names == {0: "c0", 1: "c1", 2: "c9"}

    def test_nameless_sets_use_decimal_ids(self):
        # Sets built in memory have no label mapping; their ids are their own
        # labels, so shared ids stay put and alignment is the identity.
        gal = build_set(np.zeros((3, 2)), [0, 1, 2], [0, 1, 0])
        qry = build_set(np.ones((2, 2)), [2, 0], [1, 0], id_prefix="q")
        aligned = align_labels(gal, qry)
        assert [r.class_id for r in aligned.records] == [2, 0]
        assert [r.camera_id for r in aligned.records] == [1, 0]

    def test_round_trip_through_files_preserves_meaning(self, tmp_path):
        # Regression: a gallery/query pair saved to CSV, loaded back, and
        # aligned must mean the same classes and cameras as the originals,
        # even though both files renumber their dense ids independently.
        rng = np.random.default_rng(11)
        gal = build_set(rng.normal(0, 1, (12, 3)), [0, 0, 1, 1, 2, 2] * 2,
                        [3, 1, 2, 0, 1, 3, 0, 2, 3, 1, 0, 2])
        qry = build_set(rng.normal(0, 1, (6, 3)), [2, 1, 0, 2, 1, 0],
                        [0, 3, 2, 1, 0, 3], id_prefix="q")
        gp, qp = tmp_path / "g.csv", tmp_path / "q.csv"
        save_embedding_set(gal, gp)
        save_embedding_set(qry, qp)
        back = align_labels(load_embedding_set(gp), load_embedding_set(qp))
        assert [back.class_names[r.class_id] for r in back.records] == [
            str(r.class_id) for r in qry.records
        ]
        assert [back.camera_names[r.camera_id] for r in back.records] == [
            str(r.camera_id) for r in qry.records
        ]


class TestBinaryIo:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        es = build_set(rng.normal(0, 1e3, (20, 7)), rng.integers(0, 4, 20), rng.integers(0, 3, 20))
        path = tmp_path / "x.gcpe"
        save_embedding_set(es, path)
        back = load_embedding_set(path)
        np.testing.assert_array_equal(back.features, es.features)
        assert [(r.id, r.class_id, r.camera_id) for r in back.records] == [
            (r.id, r.class_id, r.camera_id) for r in es.records
        ]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gcpe"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DataFormatError):
            load_embedding_set(path)

    def test_truncated(self, tmp_path):
        es = build_set(np.ones((3, 4)), [0, 0, 1], [0, 1, 0])
        path = tmp_path / "x.gcpe"
        save_embedding_set(es, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(DataFormatError):
            load_embedding_set(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "bad.gcpe"
        path.write_bytes(b"")
        with pytest.raises(EmptyFileError):
            load_embedding_set(path)


class TestPrototypeSet:
    def test_flattened_layout(self):
        pset = PrototypeSet(
            {1: np.array([[1.0, 0.0], [2.0, 0.0]]), 0: np.array([[5.0, 5.0]])},
            "fps",
        )
        mat, cls, idx = pset.flattened()
        np.testing.assert_array_equal(mat, [[5.0, 5.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(cls, [0, 1, 1])
        np.testing.assert_array_equal(idx, [0, 0, 1])
        assert pset.total_count() == 3
        assert pset.dim == 2

    def test_replace_class_copies(self):
        pset = PrototypeSet({0: np.zeros((1, 2)), 1: np.ones((1, 2))}, "centroid")
        new = pset.replace_class(0, np.full((2, 2), 3.0))
        assert new.per_class[0].shape == (2, 2)
        assert pset.per_class[0].shape == (1, 2)

    def test_storage_is_packed_and_read_only(self):
        given_rows = {2: np.ones((2, 3)), 0: np.arange(3.0).reshape(1, 3)}
        pset = PrototypeSet(given_rows, "fps")
        mat = pset.flattened()[0]
        assert pset.flattened()[0] is mat
        assert pset.class_spans == {0: slice(0, 1), 2: slice(1, 3)}
        np.testing.assert_array_equal(pset.sq_norms, [5.0, 3.0, 3.0])
        assert np.shares_memory(pset.per_class[2], mat)
        assert not np.shares_memory(given_rows[2], mat)
        with pytest.raises(ValueError):
            pset.per_class[0][0, 0] = 9.0
        with pytest.raises(TypeError):
            pset.per_class[1] = np.zeros((1, 3))

    def test_replace_class_shares_the_parent_and_checks_only_new_rows(self):
        pset = PrototypeSet({0: np.zeros((1, 2)), 1: np.ones((2, 2))}, "centroid")
        new = pset.replace_class(1, np.full((3, 2), 2.0))
        assert new.derived_from == (pset, 1)
        assert new.per_class[0] is pset.per_class[0]
        assert new.total_count() == 4 and new.dim == 2
        mat, cls, idx = new.flattened()
        np.testing.assert_array_equal(mat, [[0.0, 0.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        np.testing.assert_array_equal(cls, [0, 1, 1, 1])
        np.testing.assert_array_equal(idx, [0, 0, 1, 2])
        with pytest.raises(NonFiniteValueError):
            pset.replace_class(0, np.array([[np.nan, 0.0]]))
        with pytest.raises(DimensionMismatchError):
            pset.replace_class(0, np.zeros((1, 3)))
        alone = PrototypeSet({}, "centroid").replace_class(4, np.ones((1, 3)))
        assert alone.derived_from is None and alone.dim == 3

    def test_bad_tag(self):
        with pytest.raises(DataFormatError):
            PrototypeSet({0: np.zeros((1, 2))}, "sorcery")

    def test_inconsistent_dims(self):
        with pytest.raises(DimensionMismatchError):
            PrototypeSet({0: np.zeros((1, 2)), 1: np.zeros((1, 3))}, "fps")

    def test_non_finite(self):
        with pytest.raises(NonFiniteValueError):
            PrototypeSet({0: np.array([[np.inf, 0.0]])}, "fps")
