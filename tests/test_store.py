"""Embedding set construction, indices, and file round trips."""

import functools
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcproto.errors import (
    DataFormatError,
    GcprotoError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyFileError,
    MissingColumnError,
    NonFiniteValueError,
    UnknownClassError,
)
from gcproto.harness import load_prototypes, save_prototypes
from gcproto.model import GcpConfig, GcpModel, init_params, load_model, save_model
from gcproto.seeding import substream
from gcproto.selectors import SelectorConfig, run_selector
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
        assert es.row_cameras[list(es.class_index[0])].tolist() == [0, 1, 0]
        np.testing.assert_array_equal(
            es.class_matrix(1), np.array([[5.0, 5.0], [6.0, 5.0]])
        )

    def test_indices_are_read_only_and_not_copied(self):
        es = small_set()
        assert es.class_index is es.class_index
        assert es.row_cameras.tolist() == [0, 1, 0, 0, 2]
        assert not es.row_cameras.flags.writeable
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

    def test_columns_are_read_only_and_records_built_once(self):
        es = small_set()
        assert es.ids == ("r0", "r1", "r2", "r3", "r4")
        np.testing.assert_array_equal(es.row_classes, [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(es.row_cameras, [0, 1, 0, 0, 2])
        for column in (es.row_classes, es.row_cameras):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 5
        assert es.records is es.records
        assert np.shares_memory(es.records[3].vector, es.features)
        # a class whose rows are adjacent is served as a view
        assert np.shares_memory(es.class_matrix(1), es.features)
        mixed = build_set(np.eye(3), [0, 1, 0], [0, 0, 0])
        np.testing.assert_array_equal(mixed.class_matrix(0), [[1, 0, 0], [0, 0, 1]])

    @pytest.mark.parametrize(
        "build, error, named",
        [
            (lambda: EmbeddingSet([EmbeddingRecord("a", np.zeros(2), 0, 0),
                                   EmbeddingRecord("b", np.zeros(2), "x", 0)]),
             DataFormatError, "'b'"),
            (lambda: EmbeddingSet([EmbeddingRecord("a", np.zeros(2), None, 0)]),
             DataFormatError, "'a'"),
            (lambda: EmbeddingSet([EmbeddingRecord("a", np.zeros(2), 0, 0),
                                   EmbeddingRecord("b", np.zeros(2), 1.5, 0)]),
             DataFormatError, "'b'"),
            (lambda: EmbeddingSet([EmbeddingRecord("a", np.zeros(2), 0, True)]),
             DataFormatError, "'a'"),
            (lambda: build_set(np.zeros((2, 2)), [0, 1.7], [0, 0]), DataFormatError, "'r1'"),
            (lambda: build_set(np.zeros((3, 2)), [0, 1], [0, 0, 0]),
             DimensionMismatchError, "'r2'"),
            (lambda: build_set(np.zeros(3), [0, 0, 0], [0, 0, 0]),
             DimensionMismatchError, "'r0'"),
        ],
        ids=["str-class", "none-class", "float-class", "bool-camera", "fractional-label",
             "short-labels", "1d-vectors"],
    )
    def test_bad_labels_and_shapes_are_typed_errors(self, build, error, named):
        with pytest.raises(error) as err:
            build()
        assert named in str(err.value)

    @pytest.mark.parametrize(
        "kept, error, named",
        [
            (7, DimensionMismatchError, "'e'"),
            (5, NonFiniteValueError, "'c'"),
            (3, DataFormatError, "'b'"),
            (2, DuplicateIdError, "'a'"),
        ],
    )
    def test_fault_kinds_checked_in_order(self, kept, error, named):
        # the earliest record ("a" again) is a duplicate id, yet each kind of
        # fault is checked over every row before the next kind, and names
        # the first record that has it
        recs = [
            EmbeddingRecord("a", np.zeros(2), 0, 0),
            EmbeddingRecord("a", np.zeros(2), 0, 0),
            EmbeddingRecord("b", np.zeros(2), -1, 0),
            EmbeddingRecord("c", np.array([np.inf, 0.0]), 0, -2),
            EmbeddingRecord("d", np.array([0.0, np.nan]), 0, 0),
            EmbeddingRecord("e", np.zeros(3), 0, 0),
            EmbeddingRecord("f", np.zeros((1, 2)), 0, 0),
        ][:kept]
        with pytest.raises(error) as err:
            EmbeddingSet(recs)
        assert type(err.value) is error
        assert named in str(err.value)


@st.composite
def labeled_rows(draw):
    """(vectors, class labels, camera labels): few distinct labels, not
    dense, so single-class sets and repeated cameras are common."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 4))
    class_pool = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    camera_pool = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    classes = draw(st.lists(st.sampled_from(class_pool), min_size=n, max_size=n))
    cameras = draw(st.lists(st.sampled_from(camera_pool), min_size=n, max_size=n))
    coords = draw(st.lists(st.floats(-1e6, 1e6), min_size=n * dim, max_size=n * dim))
    return np.array(coords).reshape(n, dim), classes, cameras


class TestColumnarEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(rows=labeled_rows())
    def test_columnar_set_equals_per_record_build(self, rows):
        vectors, classes, cameras = rows
        records = [
            EmbeddingRecord(f"r{i}", vectors[i], c, k)
            for i, (c, k) in enumerate(zip(classes, cameras))
        ]
        # the indices as a per-record loop builds them: keys in order of
        # first appearance, rows ascending
        class_index = {}
        for i, rec in enumerate(records):
            class_index.setdefault(rec.class_id, []).append(i)
        for es in (EmbeddingSet(records), build_set(vectors, classes, cameras)):
            assert es.features.tobytes() == vectors.tobytes()
            assert list(es.class_index.items()) == [
                (c, tuple(ix)) for c, ix in class_index.items()
            ]
            assert es.row_cameras.tolist() == list(cameras)
            assert all(type(c) is int for c in es.class_index)
            for c, ix in class_index.items():
                assert es.row_classes[ix].tolist() == [c] * len(ix)
                assert es.class_matrix(c).tobytes() == vectors[ix].tobytes()
            assert [
                (r.id, type(r.class_id), r.class_id, r.camera_id, r.vector.tobytes())
                for r in es.records
            ] == [
                (r.id, int, r.class_id, r.camera_id, r.vector.tobytes()) for r in records
            ]


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

    def test_load_holds_little_beyond_the_matrix(self, tmp_path):
        # each line is parsed into its row of one preallocated matrix; a
        # reader that holds every line and a Python float per value peaks
        # near 15 times the matrix
        rng = np.random.default_rng(5)
        es = build_set(
            rng.normal(size=(2000, 128)), rng.integers(0, 50, 2000), rng.integers(0, 4, 2000)
        )
        path = tmp_path / "big.csv"
        save_embedding_set(es, path)
        tracemalloc.start()
        try:
            back = load_embedding_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.features, es.features)
        assert peak < 4 * es.features.nbytes

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as spreadsheet programs write "CSV UTF-8"
        text = "id,class,camera,f0,f1\na,walrus,north,1.5,-2\nb,heron,south,2.5,0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = load_embedding_set(plain), load_embedding_set(marked)
        np.testing.assert_array_equal(a.features, b.features)
        assert (a.ids, a.class_names, a.camera_names) == (b.ids, b.class_names, b.camera_names)

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

    def test_misordered_header(self, tmp_path):
        # every column is there, but not as id,class,camera
        path = tmp_path / "bad.csv"
        path.write_text("class,id,camera,f0\n0,a,0,1.0\n")
        with pytest.raises(MissingColumnError, match="must start with id,class,camera"):
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

    def test_text_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,class,camera,f0\na,cl\xff\xfe,0,1.0\n")
        with pytest.raises(DataFormatError, match="not UTF-8"):
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

    def test_zero_width_set_refused_before_writing(self, tmp_path):
        # a header with no feature columns is one the reader refuses
        path = tmp_path / "x.csv"
        with pytest.raises(DataFormatError, match="zero-width"):
            save_embedding_set(build_set(np.ones((2, 0)), [0, 1], [0, 0]), path)
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

    @pytest.mark.parametrize("column", ["class", "camera"])
    def test_label_past_32_bits_refused_before_writing(self, tmp_path, column):
        labels = {"class": [0, 0], "camera": [0, 0]}
        labels[column][1] = 2**32
        es = build_set(np.ones((2, 3)), labels["class"], labels["camera"])
        path = tmp_path / "x.gcpe"
        with pytest.raises(DataFormatError, match="record 'r1'"):
            save_embedding_set(es, path)
        assert not path.exists()
        labels[column][1] = 2**32 - 1  # the largest label the format holds
        es = build_set(np.ones((2, 3)), labels["class"], labels["camera"])
        save_embedding_set(es, path)
        assert load_embedding_set(path).row_classes.tolist() == labels["class"]

    def test_load_holds_the_matrix_about_once(self, tmp_path):
        # the records are read into one preallocated matrix; a reader that
        # holds the whole file and then copies its vectors out peaks above
        # twice the matrix
        rng = np.random.default_rng(5)
        es = build_set(
            rng.normal(size=(2000, 128)), rng.integers(0, 50, 2000), rng.integers(0, 4, 2000)
        )
        path = tmp_path / "big.gcpe"
        save_embedding_set(es, path)
        tracemalloc.start()
        try:
            back = load_embedding_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.features, es.features)
        assert peak < 1.5 * es.features.nbytes

    def test_save_writes_the_format_without_holding_a_copy(self, tmp_path):
        # each record goes to the open file as it is encoded; a writer that
        # joins the whole file in memory first peaks above the matrix
        rng = np.random.default_rng(7)
        n, dim = 2000, 128
        labels = rng.integers(0, 2**32, (n, 2)).tolist()
        es = EmbeddingSet([
            EmbeddingRecord(f"r{i}" + "é" * (i % 3), rng.normal(size=dim), cls, cam)
            for i, (cls, cam) in enumerate(labels)
        ])
        want = [b"GCPE", struct.pack("<III", 1, n, dim)]
        for rec_id, (cls, cam), vec in zip(es.ids, labels, es.features.tolist()):
            raw = rec_id.encode("utf-8")
            want += [struct.pack("<I", len(raw)), raw, struct.pack("<II", cls, cam)]
            want.append(struct.pack(f"<{dim}d", *vec))
        path = tmp_path / "set.gcpe"
        tracemalloc.start()
        try:
            save_embedding_set(es, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == b"".join(want)
        assert peak < es.features.nbytes / 2

    @pytest.mark.parametrize("offset", [8, 12, 16], ids=["count", "dim", "id-length"])
    def test_size_past_the_file_is_truncated_before_allocating(self, tmp_path, offset):
        es = build_set(np.ones((3, 4)), [0, 0, 1], [0, 1, 0])
        path = tmp_path / "x.gcpe"
        save_embedding_set(es, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, offset, 2**32 - 1)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="truncated"):
                load_embedding_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
        with pytest.raises(DataFormatError, match="truncated"):
            load_embedding_set(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.gcpe"
        save_embedding_set(build_set(np.ones((2, 3)), [0, 1], [0, 0]), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 2)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="unsupported version 2"):
            load_embedding_set(path)

    def test_zero_records(self, tmp_path):
        path = tmp_path / "x.gcpe"
        path.write_bytes(b"GCPE" + struct.pack("<III", 1, 0, 3))
        with pytest.raises(EmptyFileError, match="zero records"):
            load_embedding_set(path)

    # two records with 41-byte ids, 77 bytes each, far past the 36 a record
    # of dim 3 needs at least: the file's size passes the up-front check and
    # the record loop meets the cut, in the last vector or in its labels
    @pytest.mark.parametrize("cut", [4, 28], ids=["vector", "labels"])
    def test_record_cut_short_is_truncated(self, tmp_path, cut):
        path = tmp_path / "x.gcpe"
        save_embedding_set(build_set(np.ones((2, 3)), [0, 1], [0, 0], id_prefix="x" * 40), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataFormatError, match="truncated"):
            load_embedding_set(path)

    def test_trailing_bytes(self, tmp_path):
        es = build_set(np.ones((6, 4)), [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1])
        path = tmp_path / "x.gcpe"
        save_embedding_set(es, path)
        path.write_bytes(path.read_bytes() + b"\0" * 40)
        with pytest.raises(DataFormatError, match="40 extra bytes after the last of 6 records"):
            load_embedding_set(path)

    def test_id_not_utf8(self, tmp_path):
        es = build_set(np.ones((2, 3)), [0, 1], [0, 0])
        path = tmp_path / "x.gcpe"
        save_embedding_set(es, path)
        data = path.read_bytes()
        assert data.count(b"r0") == 1
        path.write_bytes(data.replace(b"r0", b"\xff0"))  # same length: the file is complete
        with pytest.raises(DataFormatError, match="not UTF-8"):
            load_embedding_set(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "bad.gcpe"
        path.write_bytes(b"")
        with pytest.raises(EmptyFileError):
            load_embedding_set(path)


class TestWriterRefusals:
    # both writers check every id and label before opening the file, so a
    # refused set leaves a file already at the path as it was

    @pytest.mark.parametrize("suffix", [".csv", ".gcpe"])
    @pytest.mark.parametrize("field", ["id", "class", "camera"])
    def test_text_utf8_cannot_encode(self, tmp_path, suffix, field):
        bad = {"id": "a\ud800", "class": "x\udcff", "camera": "c\udfff"}[field]
        rec_id = bad if field == "id" else "r0"
        es = EmbeddingSet(
            [EmbeddingRecord(rec_id, np.zeros(2), 0, 0), EmbeddingRecord("r1", np.ones(2), 1, 0)],
            class_names={0: bad if field == "class" else "0", 1: "1"},
            camera_names={0: bad if field == "camera" else "0"},
        )
        path = tmp_path / f"x{suffix}"
        path.write_bytes(b"kept")
        with pytest.raises(DataFormatError, match=f"^record {re.escape(repr(rec_id))}: "):
            save_embedding_set(es, path)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("column", ["class", "camera"])
    def test_gcpe_refuses_labels_it_would_rename(self, tmp_path, column):
        # .gcpe stores dense ids only: a CSV gallery of alice and bob would
        # reload with classes "0" and "1", and align_labels would then give
        # the queries' alice and bob new ids that match no gallery class
        rows = {"class": ["g0,alice,0,0.0\n", "g1,bob,1,1.0\n"],
                "camera": ["g0,0,cam-a,0.0\n", "g1,1,cam-b,1.0\n"]}[column]
        (tmp_path / "gallery.csv").write_text("id,class,camera,f0\n" + "".join(rows))
        gallery = load_embedding_set(tmp_path / "gallery.csv")
        message = rf"^record 'g0': {column} '(alice|cam-a)' \(dense id 0\) cannot"
        with pytest.raises(DataFormatError, match=message):
            save_embedding_set(gallery, tmp_path / "g.gcpe")
        assert not (tmp_path / "g.gcpe").exists()

    def test_gcpe_keeps_nameless_and_decimal_sets(self, tmp_path):
        nameless = build_set(np.arange(3.0).reshape(3, 1), [1, 0, 1], [1, 0, 0])
        save_embedding_set(nameless, tmp_path / "n.gcpe")
        back = load_embedding_set(tmp_path / "n.gcpe")
        assert back.row_classes.tolist() == [1, 0, 1] and back.row_cameras.tolist() == [1, 0, 0]
        # decimal labels met in another order are dense ids named "1", "0":
        # refused as read, written once aligned with a decimal reference
        (tmp_path / "q.csv").write_text("id,class,camera,f0\nq0,1,1,0.5\nq1,0,0,1.5\n")
        queries = load_embedding_set(tmp_path / "q.csv")
        with pytest.raises(DataFormatError, match=r"^record 'q0': class '1' \(dense id 0\) cannot"):
            save_embedding_set(queries, tmp_path / "q.gcpe")
        aligned = align_labels(nameless, queries)
        save_embedding_set(aligned, tmp_path / "q.gcpe")
        back = align_labels(nameless, load_embedding_set(tmp_path / "q.gcpe"))
        assert back.row_classes.tolist() == aligned.row_classes.tolist() == [1, 0]
        assert back.row_cameras.tolist() == aligned.row_cameras.tolist() == [1, 0]
        np.testing.assert_array_equal(back.features, queries.features)


class TestPrototypeSet:
    def test_flattened_layout(self):
        pset = PrototypeSet(
            {1: np.array([[1.0, 0.0], [2.0, 0.0]]), 0: np.array([[5.0, 5.0]])},
            "fps",
        )
        mat, cls, spans = pset.flattened()
        np.testing.assert_array_equal(mat, [[5.0, 5.0], [1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(cls, [0, 1, 1])
        assert spans == {0: slice(0, 1), 1: slice(1, 3)}
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
        mat, cls, spans = pset.flattened()
        assert all(got is want for got, want in zip(pset.flattened(), (mat, cls, spans)))
        assert spans == {0: slice(0, 1), 2: slice(1, 3)}
        with pytest.raises(TypeError):
            spans[1] = slice(0, 0)
        assert pset.base is pset and pset.replaced == {}
        assert np.shares_memory(pset.per_class[2], mat)
        assert not np.shares_memory(given_rows[2], mat)
        with pytest.raises(ValueError):
            pset.per_class[0][0, 0] = 9.0
        with pytest.raises(TypeError):
            pset.per_class[1] = np.zeros((1, 3))

    def test_replace_class_shares_the_parent_and_checks_only_new_rows(self):
        pset = PrototypeSet({0: np.zeros((1, 2)), 1: np.ones((2, 2))}, "centroid")
        new = pset.replace_class(1, np.full((3, 2), 2.0))
        assert new.base is pset and list(new.replaced) == [1]
        assert new.replaced[1] is new.per_class[1]
        assert new.per_class[0] is pset.per_class[0]
        assert new.total_count() == 4 and new.dim == 2
        np.testing.assert_array_equal(new.per_class[1], np.full((3, 2), 2.0))
        assert not new.per_class[1].flags.writeable
        with pytest.raises(TypeError, match="per_class"):
            new.flattened()  # a derived set is never packed
        with pytest.raises(NonFiniteValueError):
            pset.replace_class(0, np.array([[np.nan, 0.0]]))
        with pytest.raises(DimensionMismatchError):
            pset.replace_class(0, np.zeros((1, 3)))
        alone = PrototypeSet({}, "centroid").replace_class(4, np.ones((1, 3)))
        assert alone.base is alone and alone.replaced == {} and alone.dim == 3

    def test_derived_mapping_reads_like_a_copy_of_the_base(self):
        pset = PrototypeSet({2: np.ones((2, 2)), 0: np.zeros((1, 2))}, "fps")
        for class_id in (2, 1):  # a class of the base, then a new one
            derived = pset.replace_class(class_id, np.full((3, 2), 5.0))
            copy = {**pset.per_class, class_id: derived.replaced[class_id]}
            assert list(derived.per_class) == list(copy)
            assert len(derived.per_class) == len(copy)
            assert all(got is copy[c] for c, got in derived.per_class.items())
            with pytest.raises(TypeError):
                derived.per_class[class_id] = np.zeros((1, 2))
        assert list(derived.per_class) == [0, 2, 1]

    def test_derived_set_answers_like_an_equal_packed_set(self):
        pset = PrototypeSet({0: np.zeros((1, 2)), 2: np.ones((2, 2))}, "fps")
        derived = pset.replace_class(2, np.full((3, 2), 2.0)).replace_class(1, np.ones((1, 2)))
        packed = PrototypeSet(dict(derived.per_class), "fps")
        # a replace on a derived set packs the new mapping
        assert derived.base is derived and derived.replaced == {}
        got, want = derived.flattened(), packed.flattened()
        assert got[2] == want[2] == {0: slice(0, 1), 1: slice(1, 2), 2: slice(2, 5)}
        for g, w in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype and not g.flags.writeable
        assert derived.total_count() == packed.total_count() == 5
        assert {c: len(r) for c, r in derived.per_class.items()} == {0: 1, 1: 1, 2: 3}
        assert derived.class_ids == packed.class_ids and derived.dim == packed.dim

    def test_sets_compare_by_identity(self):
        rows = {0: np.zeros((2, 2))}
        pset, twin = PrototypeSet(rows, "fps"), PrototypeSet(rows, "fps")
        assert pset == pset and pset != twin
        assert len({pset, twin, pset.replace_class(0, np.ones((1, 2)))}) == 3

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_replacement_sequence_equals_the_packed_final_mapping(self, data):
        dim = data.draw(st.integers(1, 3))
        value = st.floats(allow_nan=False, allow_infinity=False, width=64)

        def rows():
            k = data.draw(st.integers(0, 3))
            return np.array(data.draw(st.lists(value, min_size=k * dim, max_size=k * dim)),
                            dtype=np.float64).reshape(k, dim)

        mapping = {c: rows() for c in data.draw(st.lists(st.integers(0, 4), max_size=3))}
        pset = PrototypeSet(mapping, "fps")
        for _ in range(data.draw(st.integers(1, 4))):
            c, new_rows = data.draw(st.integers(0, 5)), rows()
            parent, pset = pset, pset.replace_class(c, new_rows)
            mapping[c] = new_rows
            if parent.base is parent and parent.per_class:
                assert pset.base is parent and list(pset.replaced) == [c]
                assert pset.replaced[c] is pset.per_class[c]
            else:
                assert pset.base is pset and pset.replaced == {}
        want = PrototypeSet(mapping, "fps")
        assert sorted(pset.per_class) == sorted(want.per_class)
        for c, arr in want.per_class.items():
            assert pset.per_class[c].shape == arr.shape
            np.testing.assert_array_equal(pset.per_class[c].view(np.uint64), arr.view(np.uint64))
        if pset.replaced:  # a derived set is never packed
            with pytest.raises(TypeError, match="per_class"):
                pset.flattened()
        else:
            got_mat, got_cls, got_spans = pset.flattened()
            want_mat, want_cls, want_spans = want.flattened()
            np.testing.assert_array_equal(got_mat.view(np.uint64), want_mat.view(np.uint64))
            np.testing.assert_array_equal(got_cls, want_cls)
            assert got_spans == want_spans
        assert pset.total_count() == want.total_count()
        assert pset.dim == want.dim

    def test_bad_tag(self):
        with pytest.raises(DataFormatError):
            PrototypeSet({0: np.zeros((1, 2))}, "sorcery")

    def test_inconsistent_dims(self):
        with pytest.raises(DimensionMismatchError):
            PrototypeSet({0: np.zeros((1, 2)), 1: np.zeros((1, 3))}, "fps")

    def test_non_finite(self):
        with pytest.raises(NonFiniteValueError):
            PrototypeSet({0: np.array([[np.inf, 0.0]])}, "fps")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_class_is_named_and_huge_finite_rows_pass(self, bad):
        huge = np.full((2, 2), 1.5e308)  # every sum over them overflows
        with pytest.raises(NonFiniteValueError, match="class 3: non-finite prototype"):
            PrototypeSet({0: huge, 3: np.array([[np.inf, bad]]), 5: huge}, "fps")
        assert PrototypeSet({0: huge, 5: huge}, "fps").total_count() == 4


# How the classes' arrays relate to one owner matrix.  "tiled" cuts them as
# consecutive row ranges, in class order, of a read-only owner, and
# "straddling" as consecutive stretches of its memory that cross its rows;
# every other layout breaks one condition of sharing.
SHARED_LAYOUTS = ("tiled", "straddling", "whole_owner")
LAYOUTS = SHARED_LAYOUTS + (
    "gap", "reordered", "writable_owner", "writable_part", "strided", "copied_part",
)


@st.composite
def class_arrays(draw):
    """(per-class arrays, the matrix they are cut from, layout)."""
    layout = draw(st.sampled_from(LAYOUTS))
    dim = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    if layout == "strided":  # one class, its rows every other row of the owner
        lengths = [max(lengths[0], 2)] + [0] * (len(lengths) - 1)
    elif layout == "whole_owner":  # one class, its array the owner itself
        lengths = [max(lengths[0], 1)] + [0] * (len(lengths) - 1)
    elif layout not in SHARED_LAYOUTS:  # two non-empty classes, so the layout breaks sharing
        lengths[0], lengths[-1] = max(lengths[0], 1), max(lengths[-1], 1)
    lead, tail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    gap = 1 if layout == "gap" else 0
    n_rows = (2 if layout == "strided" else 1) * (lead + sum(lengths) + gap + tail + 1)
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=n_rows * dim, max_size=n_rows * dim,
    ))
    owner = np.array(np.reshape(values, (n_rows, dim)))  # owns its memory
    rows = owner[::2] if layout == "strided" else owner
    parts, start = [], lead
    for i, k in enumerate(lengths):
        if layout == "straddling":
            parts.append(owner.reshape(-1)[start * dim + 1 : (start + k) * dim + 1].reshape(k, dim))
        else:
            parts.append(rows[start : start + k])
        start += k + (gap if i == 0 else 0)
    if layout == "whole_owner":
        owner = parts[0] = parts[0].copy()
    if layout == "copied_part":
        parts[-1] = parts[-1].copy()
        parts[-1].setflags(write=False)
    if layout != "writable_owner":
        owner.setflags(write=False)  # after slicing: "writable_part" keeps writable views
    if layout != "writable_part":
        for p in parts:
            p.setflags(write=False)
    ids = list(range(len(parts)))
    if layout == "reordered":
        ids.reverse()
    return dict(zip(ids, parts)), owner, layout


class TestPacking:
    @settings(max_examples=150, deadline=None)
    @given(case=class_arrays())
    def test_packing_equals_concatenation_and_shares_exactly_a_tiling(self, case):
        per_class, owner, layout = case
        given_bytes = {c: arr.tobytes() for c, arr in per_class.items()}
        ids = sorted(per_class)
        want = np.concatenate([per_class[c] for c in ids])
        pset = PrototypeSet(per_class, "instance")
        mat, cls, spans = pset.flattened()
        assert mat.shape == want.shape and mat.dtype == want.dtype
        assert mat.tobytes() == want.tobytes()
        np.testing.assert_array_equal(cls, np.repeat(ids, [len(per_class[c]) for c in ids]))
        stops = np.cumsum([len(per_class[c]) for c in ids]).tolist()
        assert spans == {c: slice(e - len(per_class[c]), e) for c, e in zip(ids, stops)}
        for c in ids:
            assert pset.per_class[c].tobytes() == given_bytes[c]
            assert pset.per_class[c].shape == per_class[c].shape
        assert not any(arr.flags.writeable for arr in (mat, cls))
        shared = layout in SHARED_LAYOUTS and len(want) > 0
        assert np.shares_memory(mat, owner) == shared
        assert all(np.shares_memory(pset.per_class[c], mat) for c in ids if len(per_class[c]))

    def test_instance_selection_shares_a_class_sorted_gallery(self):
        vecs = np.arange(24.0).reshape(6, 4)
        sorted_set = build_set(vecs, [0, 0, 1, 1, 1, 2], [0] * 6)
        mixed_set = build_set(vecs, [0, 1, 0, 1, 1, 2], [0] * 6)
        for eset, shared in ((sorted_set, True), (mixed_set, False)):
            pset = PrototypeSet({c: eset.class_matrix(c) for c in eset.class_ids}, "instance")
            assert np.shares_memory(pset.flattened()[0], eset.features) == shared
            assert not pset.flattened()[0].flags.writeable


# -- reader robustness ----------------------------------------------------

# Numbers in a text file, and what a mutation writes over one: NaN, infinite,
# out-of-range and over-long tokens; binary files get the same as raw bytes.
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
TEXT_TOKENS = (b"nan", b"NaN", b"inf", b"-Infinity", b"1e999", b"-1e400", b"9" * 30)
RAW_TOKENS = tuple(struct.pack("<d", v) for v in (np.nan, np.inf, -np.inf, 1.7e308)) + (
    b"\xff\xff\xff\xff",
)
READERS = {
    "set.gcpe": load_embedding_set,
    "set.csv": load_embedding_set,
    "prototypes.json": load_prototypes,
    "model.gcpm": load_model,
}


@functools.lru_cache(maxsize=None)
def reader_seed(name: str) -> bytes:
    """A valid file of each kind, as written by its writer."""
    eset = small_set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        if name == "prototypes.json":
            save_prototypes(run_selector(eset, SelectorConfig(method="fps", n_prototypes=2)), path)
        elif name == "model.gcpm":
            cfg = GcpConfig(
                dim=2, n_blocks=1, n_heads=1, ffn_dim=4, n_prototypes=2, n_cameras=3,
                batch_classes=2, instances_per_class=2, epochs=1,
            )
            save_model(GcpModel(config=cfg, params=init_params(cfg, substream(0, "init"))), path)
        else:
            save_embedding_set(eset, path)
        return path.read_bytes()


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, at, arg in edits:
        pos = at % (len(out) + 1)
        if kind == "flip" and pos < len(out):
            out[pos] ^= arg
        elif kind == "truncate":
            del out[pos:]
        elif kind == "insert":
            out[pos:pos] = arg
        elif kind == "raw":
            out[pos : pos + len(arg)] = arg
        elif kind == "token":
            numbers = list(NUMBER.finditer(bytes(out)))
            if numbers:
                m = numbers[at % len(numbers)]
                out[m.start() : m.end()] = arg
    return bytes(out)


EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 4096), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 4096), st.none()),
        st.tuples(st.just("insert"), st.integers(0, 4096), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("raw"), st.integers(0, 4096), st.sampled_from(RAW_TOKENS)),
        st.tuples(st.just("token"), st.integers(0, 4096), st.sampled_from(TEXT_TOKENS)),
    ),
    min_size=1,
    max_size=3,
)


class TestReaderMutations:
    """A mutated file either loads or raises a ``GcprotoError``; nothing else
    escapes any of the four readers."""

    @pytest.mark.parametrize("name", sorted(READERS))
    @settings(max_examples=75, deadline=None)
    @given(edits=EDITS)
    # a class id beyond int64 once escaped the prototype reader as OverflowError
    @example(edits=[("token", 0, b"9" * 30)])
    def test_every_failure_is_a_gcproto_error(self, name, edits):
        data = mutate(reader_seed(name), edits)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(data)
            try:
                READERS[name](path)
            except GcprotoError:
                pass
