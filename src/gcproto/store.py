"""Labeled embedding vectors: records, indexed sets, prototype sets, file IO.

Two on-disk formats are supported, chosen by the file suffix:

* CSV (suffix ``.csv``, UTF-8 text) with header
  ``id,class,camera,f0,...,f{D-1}``. Ids and class and camera labels may be
  any strings without a comma or line break (the writer refuses those);
  labels are remapped to dense non-negative integers in order of first
  appearance and the mapping is kept on the set so reports can echo it.
  Because that order is per file, two independently loaded sets must be
  passed through :func:`align_labels` before their dense ids can be
  compared. Coordinates are written with 17 significant digits, so a
  save/load cycle reproduces every float64 exactly.
* A binary format (magic ``GCPE``, any other suffix) storing UTF-8 ids, 32-bit
  class and camera ids and float64 vectors, which round-trips bit-exactly; it
  refuses labels that are not their ids in decimal (a CSV class ``alice``).

Text that is not UTF-8, read or to be written, is a ``DataFormatError``.

``EmbeddingSet`` is stored as read-only columns (features, ids, class and
camera labels) and checked and indexed a column at a time; the pipeline and
the file IO read the columns, and ``EmbeddingRecord`` objects are built only
when a caller asks for ``records``.  A set is immutable after construction
and safe for concurrent reads.

``PrototypeSet`` packs its classes into one read-only matrix with the one
packer, :func:`pack`, which takes a view instead of a copy when the classes
already lie in order in one read-only matrix; only the evaluator reads
that layout, ``flattened()``.  The camera-filter protocol's per-group sets
are made by ``replace_class`` on a packed set: each shares that set as its
``base`` and holds the one class it ``replaced``, which is all the
evaluator needs to rank that class's queries from the rebuilt rows and
every other class from the base's matrix.  Its ``per_class`` is a
read-only overlay of the rebuilt class on the base's mapping: a derived
set copies neither the base's rows nor its class mapping, and is never
packed.
"""

from __future__ import annotations

import os
import struct
from collections import ChainMap
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyFileError,
    MissingColumnError,
    NonFiniteValueError,
    UnknownClassError,
)

BINARY_MAGIC = b"GCPE"
BINARY_VERSION = 1

METHODS = ("instance", "centroid", "kcentroid", "fps", "alphafps", "gcp")
METHOD_SPELLINGS = {"alpha_fps": "alphafps"}  # an older spelling that only configs still read


@dataclass(frozen=True)
class EmbeddingRecord:
    """One gallery or query item: a feature vector with identity and camera."""

    id: str
    vector: np.ndarray
    class_id: int
    camera_id: int


class EmbeddingSet:
    """Indexed, immutable collection of labeled embeddings of uniform dimension.

    Read-only columns, one row per record: ``features`` (n, D) float64,
    ``ids`` (str) and the int64 ``row_classes`` and ``row_cameras``.
    ``records`` is built from them on first access and cached; concurrent
    first accesses each build identical tuples.  Construction checks one kind
    of fault over every row before the next (dimension, non-finite value,
    label, duplicate id) and names the first offending record.
    """

    def __init__(
        self,
        records: Sequence[EmbeddingRecord],
        class_names: Mapping[int, str] | None = None,
        camera_names: Mapping[int, str] | None = None,
    ):
        shapes = [np.shape(rec.vector) for rec in records]
        bad = [rec.id for rec, shape in zip(records, shapes) if shape != shapes[0][-1:]]
        if bad:
            raise DimensionMismatchError(f"record {bad[0]!r}: shape is not {shapes[0][-1:]}")
        vectors = np.array([rec.vector for rec in records], dtype=np.float64)
        self._set_columns(
            [rec.id for rec in records], vectors, [rec.class_id for rec in records],
            [rec.camera_id for rec in records], class_names, camera_names,
        )

    @classmethod
    def _from_columns(cls, ids, features, classes, cameras, class_names=None, camera_names=None):
        """A set over these columns; ``features`` is kept, not copied."""
        eset = cls.__new__(cls)
        eset._set_columns(ids, features, classes, cameras, class_names, camera_names)
        return eset

    def _set_columns(self, ids, features, classes, cameras, class_names, camera_names):
        ids = tuple(ids)
        n = len(ids)
        if n == 0:
            raise EmptyFileError("embedding set must contain at least one record")
        counts = (len(features) if features.ndim == 2 else 0, len(classes), len(cameras))
        if counts != (n, n, n):
            raise DimensionMismatchError(
                f"record {ids[min(*counts, n - 1)]!r}: {n} records, features of shape "
                f"{features.shape}, {counts[1]} class and {counts[2]} camera labels"
            )
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            raise NonFiniteValueError(f"record {ids[np.argmin(finite)]!r} has a non-finite value")
        row_classes, row_cameras = _label_column(classes), _label_column(cameras)
        bad = np.flatnonzero((row_classes < 0) | (row_cameras < 0))
        if len(bad):
            i = bad[0]
            raise DataFormatError(
                f"record {ids[i]!r}: class {classes[i]!r} or camera {cameras[i]!r} is not a "
                "non-negative integer"
            )
        if len(set(ids)) != n:
            seen: set[str] = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise DuplicateIdError(f"duplicate record id {dup!r}")
        for column in (features, row_classes, row_cameras):
            column.setflags(write=False)
        self._ids, self._features, self._records = ids, features, None
        self._row_classes, self._row_cameras = row_classes, row_cameras
        self._class_names = dict(class_names) if class_names else None
        self._camera_names = dict(camera_names) if camera_names else None
        self._class_index = _group_rows(row_classes)

    # -- basic accessors -------------------------------------------------

    @property
    def records(self) -> tuple[EmbeddingRecord, ...]:
        """One record per row, its ``vector`` a view of the row."""
        if self._records is None:
            labels = (self._row_classes.tolist(), self._row_cameras.tolist())
            self._records = tuple(map(EmbeddingRecord, self._ids, self._features, *labels))
        return self._records

    @property
    def features(self) -> np.ndarray:
        """(n, D) float64 matrix, read-only, row i belongs to ``ids[i]``."""
        return self._features

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def row_classes(self) -> np.ndarray:
        return self._row_classes

    @property
    def row_cameras(self) -> np.ndarray:
        return self._row_cameras

    @property
    def dim(self) -> int:
        return self._features.shape[1]

    @property
    def class_ids(self) -> list[int]:
        return sorted(self._class_index)

    @property
    def class_index(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only class id -> record indices."""
        return self._class_index

    @property
    def class_names(self) -> dict[int, str] | None:
        """Original labels when loaded from CSV with non-dense labels."""
        return dict(self._class_names) if self._class_names else None

    @property
    def camera_names(self) -> dict[int, str] | None:
        return dict(self._camera_names) if self._camera_names else None

    def __len__(self) -> int:
        return len(self._ids)

    def class_size(self, class_id: int) -> int:
        return len(self._class_indices(class_id))

    # -- views -----------------------------------------------------------

    def _class_indices(self, class_id: int) -> tuple[int, ...]:
        try:
            return self._class_index[class_id]
        except KeyError:
            raise UnknownClassError(f"unknown class {class_id}") from None

    def class_matrix(self, class_id: int) -> np.ndarray:
        """(|G_c|, D) rows of a class in record order; a view when adjacent."""
        rows = self._class_indices(class_id)
        if rows[-1] - rows[0] == len(rows) - 1:
            return self._features[rows[0] : rows[-1] + 1]
        return self._features[list(rows)]


def _label_column(labels) -> np.ndarray:
    """``labels`` as int64, -1 where one is not a non-negative integer."""
    if isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "iu":
        return labels.astype(np.int64)  # uint64 beyond int64 wraps negative
    return np.array(
        [v if type(v) is not bool and isinstance(v, (int, np.integer)) and 0 <= v < 2**63 else -1
         for v in labels],
        dtype=np.int64,
    )


def _group_rows(column: np.ndarray) -> Mapping:
    """Read-only map from each value of ``column`` to the ascending rows
    holding it, in first-appearance order."""
    order = np.lexsort((column,))  # stable: each group's rows ascend
    keys = column[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bounds, rows = np.r_[starts, len(order)].tolist(), order.tolist()
    keys = keys[starts].tolist()
    by_first_row = sorted(range(len(keys)), key=lambda g: rows[bounds[g]])
    return MappingProxyType({keys[g]: tuple(rows[bounds[g] : bounds[g + 1]]) for g in by_first_row})


def _checked_rows(class_id: int, protos, finite: bool = True) -> np.ndarray:
    """One class's prototypes as a validated 2-D float64 array; ``finite=False``
    leaves the finiteness check to the caller."""
    arr = np.asarray(protos, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"class {class_id}: prototypes must be a 2-D array")
    if finite and not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"class {class_id}: non-finite prototype")
    return arr


def _owner(arr: np.ndarray) -> np.ndarray:
    return arr if arr.base is None else arr.base


def _shared_block(parts: list[np.ndarray], dim: int) -> np.ndarray | None:
    """``parts`` stacked as one read-only view, when they lie end to end, in
    order, in the memory of one read-only, C-contiguous float64 owner and
    every part is a read-only, C-contiguous float64 (k, dim) array; else None."""
    parts = [p for p in parts if len(p)]
    if not parts or dim == 0:
        return None
    owner = _owner(parts[0])
    if not (
        isinstance(owner, np.ndarray) and owner.dtype == np.float64
        and owner.flags.c_contiguous and not owner.flags.writeable
    ):
        return None
    start = end = parts[0].ctypes.data
    for p in parts:
        if (
            _owner(p) is not owner or p.flags.writeable or not p.flags.c_contiguous
            or p.dtype != np.float64 or p.shape[1:] != (dim,) or p.ctypes.data != end
        ):
            return None
        end += p.nbytes
    first = (start - owner.ctypes.data) // 8
    return owner.reshape(-1)[first : first + (end - start) // 8].reshape(-1, dim)


def pack(per_class: Mapping[int, np.ndarray], dim: int):
    """Every class's rows packed into one read-only (P, D) matrix, classes
    ascending: (matrix, parallel class-id array, read-only class id ->
    slice of the matrix holding its rows).

    The matrix is a view, sharing storage, when the classes' arrays lie end
    to end, in ascending class order, in one read-only, C-contiguous float64
    owner (consecutive row ranges of it, as ``EmbeddingSet.class_matrix``
    gives them for a class-sorted set); otherwise, or when the owner or a
    part is writable, the rows are copied.  Either way the matrix holds the
    bits the concatenation would."""
    ids = sorted(per_class)
    parts = [per_class[c] for c in ids]
    counts = [len(p) for p in parts]
    matrix = _shared_block(parts, dim)
    if matrix is None:
        matrix = np.concatenate(parts) if ids else np.empty((0, dim))
    classes = np.repeat(np.array(ids, dtype=np.int64), counts)
    for arr in (matrix, classes):
        arr.setflags(write=False)
    stops = np.cumsum(counts, dtype=np.int64).tolist()
    spans = {c: slice(e - k, e) for c, k, e in zip(ids, counts, stops)}
    return matrix, classes, MappingProxyType(spans)


@dataclass(eq=False)
class PrototypeSet:
    """Per-class ordered prototype vectors, tagged with their method's name.

    List position within a class records the generation iteration, which is
    meaningful for the iterative selectors.

    Storage is packed and read-only: construction puts every class into one
    (P, D) float64 matrix with :func:`pack`, rows ordered by (class
    ascending, prototype index), and ``per_class`` becomes a read-only
    mapping of row views into it.  The matrix shares storage with the
    classes' arrays when they tile one read-only owner in that order, as an
    instance selection over a class-sorted ``EmbeddingSet`` does; otherwise
    every class is copied.  Such a packed set is its own ``base`` and has
    no ``replaced`` class.  ``replace_class`` on a packed set makes a
    derived set that shares its storage: ``base`` is that packed set and
    ``replaced`` maps the one rebuilt class id to its new rows.  A derived
    set is never packed; ``evaluate`` ranks it only for queries of its
    replaced class.  Sets compare by identity.
    """

    per_class: Mapping[int, np.ndarray]
    selector_tag: str
    params_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.selector_tag not in METHODS:
            raise DataFormatError(f"unknown selector tag {self.selector_tag!r}")
        rows = {c: _checked_rows(c, p, finite=False) for c, p in self.per_class.items()}
        dims = {arr.shape[1] for arr in rows.values()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"inconsistent prototype dimensions {sorted(dims)}")
        self._dim = dims.pop() if dims else 0
        self._packed = pack(rows, self._dim)
        matrix, _, spans = self._packed
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(matrix.sum())  # one pass, no temporary
        if not finite:  # a NaN or ±inf, or finite rows whose sum overflows
            for c, arr in rows.items():
                _checked_rows(c, arr)
        self._count = len(matrix)
        self.per_class = MappingProxyType({c: matrix[s] for c, s in spans.items()})
        # ``base`` reads None as the set itself, without a reference cycle
        self._base, self._replaced = None, MappingProxyType({})

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.per_class)

    @property
    def base(self) -> "PrototypeSet":
        """The packed set whose storage this one shares; a packed set is
        its own base."""
        return self if self._base is None else self._base

    @property
    def replaced(self) -> Mapping[int, np.ndarray]:
        """Read-only class id -> the rows this set holds in place of
        ``base``'s: one class for a derived set, none for a packed set."""
        return self._replaced

    def total_count(self) -> int:
        return self._count

    def flattened(self) -> tuple[np.ndarray, np.ndarray, Mapping[int, slice]]:
        """The packed layout: (P, D) matrix, parallel class-id array, and
        read-only class id -> the slice of rows holding its prototypes.

        Classes in ascending id order, prototypes in iteration order; every
        part is read-only and cached.  A set made by ``replace_class`` is
        not packed and raises TypeError.
        """
        if self._base is not None:
            raise TypeError("a set made by replace_class is not packed: read its per_class")
        return self._packed

    def replace_class(self, class_id: int, protos: np.ndarray) -> "PrototypeSet":
        """A set with ``class_id``'s prototypes replaced by ``protos``.

        On a packed, non-empty set only ``protos`` is validated and copied,
        and the result shares this set as its ``base``.  A derived or empty
        set instead packs the new mapping into a new set, which checks
        every row.
        """
        if self._base is not None or not self.per_class:
            rows = {**self.per_class, class_id: protos}
            return PrototypeSet(rows, self.selector_tag, dict(self.params_echo))
        rows = _checked_rows(class_id, protos)
        if rows.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"class {class_id}: prototype dimension {rows.shape[1]}, expected {self._dim}"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        # built without __post_init__: nothing but the new rows needs checking
        new = object.__new__(PrototypeSet)
        # an overlay, not a copy: the base's classes, then a new class last
        new.per_class = MappingProxyType(ChainMap({class_id: rows}, self.per_class))
        new.selector_tag = self.selector_tag
        new.params_echo = dict(self.params_echo)
        new._base = self
        new._replaced = MappingProxyType({class_id: rows})
        new._dim = self._dim
        new._count = self._count - len(self.per_class.get(class_id, ())) + len(rows)
        return new


# -- CSV ----------------------------------------------------------------


def _dense_remap(labels: Sequence[str]) -> tuple[list[int], dict[int, str]]:
    mapping = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}  # first appearance
    return [mapping[lab] for lab in labels], {i: lab for lab, i in mapping.items()}


def _load_csv(path: Path) -> EmbeddingSet:
    # utf-8-sig drops a leading byte-order mark, as spreadsheet programs
    # write one; seek(0) resets the decoder, so the second pass drops it too
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            n_lines = sum(1 for ln in fh if ln.strip())
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}: text is not UTF-8") from None
        if not n_lines:
            raise EmptyFileError(f"{path}: empty file")
        # a second pass parses each line into its row of one preallocated matrix
        fh.seek(0)
        lines = (ln.rstrip("\n") for ln in fh if ln.strip())
        header = next(lines).split(",")
        for col in ("id", "class", "camera"):
            if col not in header[:3]:
                raise MissingColumnError(f"{path}: header missing {col!r} column")
        if header[:3] != ["id", "class", "camera"]:
            raise MissingColumnError(f"{path}: header must start with id,class,camera")
        dim = len(header) - 3
        if dim < 1:
            raise MissingColumnError(f"{path}: header has no feature columns")
        if n_lines == 1:
            raise EmptyFileError(f"{path}: no data rows")
        coords, heads = np.empty((n_lines - 1, dim)), []
        for lineno, (line, row) in enumerate(zip(lines, coords), start=2):
            parts = line.split(",")
            if len(parts) != 3 + dim:
                raise DimensionMismatchError(
                    f"{path}: line {lineno} has {len(parts) - 3} feature values, expected {dim}"
                )
            try:
                row[:] = list(map(float, parts[3:]))
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno} has a non-numeric coordinate"
                ) from None
            heads.append(parts[:3])

    ids, class_labels, camera_labels = zip(*heads)
    dense_classes, class_names = _dense_remap(class_labels)
    dense_cameras, camera_names = _dense_remap(camera_labels)
    return EmbeddingSet._from_columns(
        ids, coords, dense_classes, dense_cameras, class_names, camera_names
    )


def _save_csv(eset: EmbeddingSet, path: Path) -> None:
    """Write the set as CSV; raises before writing when the set has no
    feature columns or an id or label holds a comma or line break, which the
    reader could not read back, or text UTF-8 cannot encode."""
    if eset.dim == 0:
        raise DataFormatError("a set of zero-width vectors cannot be written to CSV")
    class_names, camera_names = _labels_of(eset, "class"), _labels_of(eset, "camera")
    heads = []
    for rec_id, cls, cam in zip(eset.ids, eset.row_classes.tolist(), eset.row_cameras.tolist()):
        head = f"{rec_id},{class_names[cls]},{camera_names[cam]}"
        if head.count(",") != 2 or "\n" in head or "\r" in head:
            raise DataFormatError(
                f"record {rec_id!r}: a comma or line break in its id or labels "
                "cannot be written to CSV"
            )
        heads.append(_utf8(head, rec_id))
    with open(path, "wb") as fh:
        cols = ",".join(f"f{i}" for i in range(eset.dim))
        fh.write(f"id,class,camera,{cols}\n".encode())
        for head, vector in zip(heads, eset.features):
            coords = ",".join(f"{v:.17g}" for v in vector)
            fh.write(head + f",{coords}\n".encode())


def _utf8(text: str, rec_id: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise DataFormatError(f"record {rec_id!r}: its id or labels are not UTF-8 text") from None


# -- binary -------------------------------------------------------------


def _load_binary(path: Path) -> EmbeddingSet:
    """Read the records from the open file into one preallocated matrix, so
    the coordinates are held once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            raise EmptyFileError(f"{path}: empty file")
        head = fh.read(16)
        if len(head) < 16 or head[:4] != BINARY_MAGIC:
            raise DataFormatError(f"{path}: bad magic, not a {BINARY_MAGIC.decode()} file")
        version, count, dim = struct.unpack_from("<III", head, 4)
        if version != BINARY_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        if count == 0:
            raise EmptyFileError(f"{path}: zero records")
        truncated = DataFormatError(f"{path}: truncated file")
        # a record is at least its id length, labels and vector: a count or
        # dim the file cannot hold is refused before the matrix is allocated
        if size - 16 < count * (12 + 8 * dim):
            raise truncated
        vectors = np.empty((count, dim), dtype="<f8")
        ids, labels = [], []
        try:
            for row in vectors:
                (id_len,) = struct.unpack("<I", fh.read(4))
                if id_len > size - fh.tell():
                    raise truncated
                ids.append(fh.read(id_len))
                labels.append(struct.unpack("<II", fh.read(8)))
                if fh.readinto(row) != row.nbytes:
                    raise truncated
        except struct.error:
            raise truncated from None
        extra = size - fh.tell()
    if extra:
        raise DataFormatError(f"{path}: {extra} extra bytes after the last of {count} records")
    try:
        ids = [raw.decode("utf-8") for raw in ids]
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: a record id is not UTF-8 text") from None
    classes, cameras = zip(*labels)
    return EmbeddingSet._from_columns(ids, vectors.astype(np.float64, copy=False), classes, cameras)


def _save_binary(eset: EmbeddingSet, path: Path) -> None:
    for kind, column in (("class", eset.row_classes), ("camera", eset.row_cameras)):
        labels = _labels_of(eset, kind)
        bad = [i for i, label in labels.items() if label != str(i) or i >= 2**32]
        if bad:
            raise DataFormatError(
                f"record {eset.ids[np.flatnonzero(column == bad[0])[0]]!r}: {kind} "
                f"{labels[bad[0]]!r} (dense id {bad[0]}) cannot be written to .gcpe, "
                "which stores 32-bit ids and no names"
            )
    ids = [_utf8(rec_id, rec_id) for rec_id in eset.ids]
    with open(path, "wb") as fh:  # record by record: the coordinates are held once
        fh.write(BINARY_MAGIC + struct.pack("<III", BINARY_VERSION, len(eset), eset.dim))
        for rec_id, cls, cam, vec in zip(ids, eset.row_classes, eset.row_cameras, eset.features):
            fh.write(struct.pack(f"<I{len(rec_id)}sII", len(rec_id), rec_id, cls, cam))
            fh.write(vec.astype("<f8").tobytes())


# -- public IO ----------------------------------------------------------


def load_embedding_set(path: str | Path) -> EmbeddingSet:
    """Load a gallery/query file: CSV when the suffix is ``.csv``, else binary."""
    path = Path(path)
    return _load_csv(path) if path.suffix.lower() == ".csv" else _load_binary(path)


def save_embedding_set(eset: EmbeddingSet, path: str | Path) -> None:
    """Write a gallery/query file: CSV when the suffix is ``.csv``, else binary."""
    path = Path(path)
    (_save_csv if path.suffix.lower() == ".csv" else _save_binary)(eset, path)


def build_set(
    vectors: np.ndarray,
    class_ids: Sequence[int],
    camera_ids: Sequence[int],
    id_prefix: str = "r",
) -> EmbeddingSet:
    """Convenience constructor from parallel arrays, ids auto-generated;
    the vectors are copied."""
    vectors = np.array(vectors, dtype=np.float64, ndmin=1)
    ids = [f"{id_prefix}{i}" for i in range(len(vectors))]
    return EmbeddingSet._from_columns(ids, vectors, class_ids, camera_ids)


def _labels_of(eset: EmbeddingSet, kind: str) -> dict[int, str]:
    # A set without a stored mapping labels its ids by their decimal form.
    # _save_csv writes these labels; _save_binary refuses any but that form.
    names = (eset.class_names if kind == "class" else eset.camera_names) or {}
    column = eset.row_classes if kind == "class" else eset.row_cameras
    return {i: names.get(i, str(i)) for i in np.unique(column).tolist()}


def align_labels(reference: EmbeddingSet, other: EmbeddingSet) -> EmbeddingSet:
    """Re-index ``other`` so equal class/camera labels mean equal dense ids.

    CSV loading assigns dense ids per file in first-appearance order, so a
    gallery and a query file can disagree about which id a given label maps
    to; joining them on raw ids would then compare the wrong classes and
    filter the wrong cameras.  Labels present in ``reference`` keep its ids;
    labels only in ``other`` are appended after the reference's highest id,
    in ascending order of their old ids.  Returns a copy of ``other``, its
    features shared, carrying the merged label mappings.
    """
    columns = []
    merged: dict[str, dict[int, str]] = {}
    for kind, column in (("class", other.row_classes), ("camera", other.row_cameras)):
        to_id = {lab: i for i, lab in _labels_of(reference, kind).items()}
        next_id = max(to_id.values()) + 1
        new_ids = []  # per old id, ascending
        for lab in _labels_of(other, kind).values():
            if lab not in to_id:
                to_id[lab] = next_id
                next_id += 1
            new_ids.append(to_id[lab])
        columns.append(np.array(new_ids, dtype=np.int64)[np.unique(column, return_inverse=True)[1]])
        merged[kind] = {i: lab for lab, i in to_id.items()}
    return EmbeddingSet._from_columns(
        other.ids, other.features, *columns, merged["class"], merged["camera"]
    )
