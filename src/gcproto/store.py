"""Labeled embedding vectors: records, indexed sets, prototype sets, file IO.

Two on-disk formats are supported:

* CSV with header ``id,class,camera,f0,...,f{D-1}``. Ids and class and
  camera labels may be any strings without a comma or line break (the writer
  refuses those); labels are remapped to dense non-negative integers
  in order of first appearance and the mapping is kept on the set so reports
  can echo it. Because that order is per file, two independently loaded sets
  must be passed through :func:`align_labels` before their dense ids can be
  compared. Coordinates are written with 17 significant digits, so a
  save/load cycle reproduces every float64 exactly.
* A binary format (magic ``GCPE``) storing vectors as little-endian float64,
  which round-trips bit-exactly.

``EmbeddingSet`` is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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

SELECTOR_TAGS = ("instance", "centroid", "kcentroid", "fps", "alpha_fps", "gcp")


@dataclass(frozen=True)
class EmbeddingRecord:
    """One gallery or query item: a feature vector with identity and camera."""

    id: str
    vector: np.ndarray
    class_id: int
    camera_id: int


class EmbeddingSet:
    """Indexed, immutable collection of embedding records of uniform dimension.

    Provides per-class and per-(class, camera) record indices and feature
    rows, used by selectors and by the camera-filtered inference protocol.
    """

    def __init__(
        self,
        records: Sequence[EmbeddingRecord],
        class_names: Mapping[int, str] | None = None,
        camera_names: Mapping[int, str] | None = None,
    ):
        if not records:
            raise EmptyFileError("embedding set must contain at least one record")
        dim = records[0].vector.shape[-1]
        seen: set[str] = set()
        features = np.empty((len(records), dim), dtype=np.float64)
        for i, rec in enumerate(records):
            vec = np.asarray(rec.vector, dtype=np.float64)
            if vec.ndim != 1 or vec.shape[0] != dim:
                raise DimensionMismatchError(
                    f"record {rec.id!r} has dimension {vec.shape[-1]}, expected {dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise NonFiniteValueError(f"record {rec.id!r} contains a non-finite value")
            if rec.class_id < 0 or rec.camera_id < 0:
                raise DataFormatError(f"record {rec.id!r} has negative class or camera id")
            if rec.id in seen:
                raise DuplicateIdError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            features[i] = vec

        self._records = tuple(
            EmbeddingRecord(rec.id, features[i], rec.class_id, rec.camera_id)
            for i, rec in enumerate(records)
        )
        self._features = features
        self._features.setflags(write=False)
        self._dim = dim
        self._class_names = dict(class_names) if class_names else None
        self._camera_names = dict(camera_names) if camera_names else None

        class_index: dict[int, list[int]] = {}
        camera_index: dict[tuple[int, int], list[int]] = {}
        for i, rec in enumerate(self._records):
            class_index.setdefault(rec.class_id, []).append(i)
            camera_index.setdefault((rec.class_id, rec.camera_id), []).append(i)
        self._class_index = MappingProxyType({c: tuple(ix) for c, ix in class_index.items()})
        self._camera_index = MappingProxyType({k: tuple(ix) for k, ix in camera_index.items()})

    # -- basic accessors -------------------------------------------------

    @property
    def records(self) -> tuple[EmbeddingRecord, ...]:
        return self._records

    @property
    def features(self) -> np.ndarray:
        """(n, D) float64 matrix, read-only, row i belongs to records[i]."""
        return self._features

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def class_ids(self) -> list[int]:
        return sorted(self._class_index)

    @property
    def class_index(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only class id -> record indices."""
        return self._class_index

    @property
    def camera_index(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """Read-only (class id, camera id) -> record indices."""
        return self._camera_index

    @property
    def class_names(self) -> dict[int, str] | None:
        """Original labels when loaded from CSV with non-dense labels."""
        return dict(self._class_names) if self._class_names else None

    @property
    def camera_names(self) -> dict[int, str] | None:
        return dict(self._camera_names) if self._camera_names else None

    def __len__(self) -> int:
        return len(self._records)

    def class_size(self, class_id: int) -> int:
        return len(self._class_indices(class_id))

    def cameras_of_class(self, class_id: int) -> list[int]:
        self._class_indices(class_id)
        return sorted({self._records[i].camera_id for i in self._class_index[class_id]})

    # -- views -----------------------------------------------------------

    def _class_indices(self, class_id: int) -> tuple[int, ...]:
        try:
            return self._class_index[class_id]
        except KeyError:
            raise UnknownClassError(f"unknown class {class_id}") from None

    def class_matrix(self, class_id: int) -> np.ndarray:
        """(|G_c|, D) feature rows of a class, in record-index order."""
        return self._features[list(self._class_indices(class_id))]


def _checked_rows(class_id: int, protos) -> np.ndarray:
    """One class's prototypes as a validated 2-D float64 array."""
    arr = np.asarray(protos, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"class {class_id}: prototypes must be a 2-D array")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"class {class_id}: non-finite prototype")
    return arr


def _pack(per_class: Mapping[int, np.ndarray], dim: int):
    """Read-only (P, D) matrix of every class's rows, classes ascending,
    plus the parallel class-id and within-class-index arrays."""
    ids = sorted(per_class)
    counts = np.array([per_class[c].shape[0] for c in ids], dtype=np.int64)
    if ids:
        matrix = np.concatenate([per_class[c] for c in ids])
    else:
        matrix = np.empty((0, dim))
    classes = np.repeat(np.array(ids, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    index = np.arange(len(classes), dtype=np.int64) - np.repeat(starts, counts)
    for arr in (matrix, classes, index):
        arr.setflags(write=False)
    return matrix, classes, index


def _class_spans(per_class: Mapping[int, np.ndarray]) -> dict[int, slice]:
    """Class id -> its rows' slice of the packed matrix, classes ascending."""
    spans, start = {}, 0
    for c in sorted(per_class):
        spans[c] = slice(start, start + len(per_class[c]))
        start = spans[c].stop
    return spans


@dataclass
class PrototypeSet:
    """Per-class ordered prototype vectors with selection provenance.

    List position within a class records the generation iteration, which is
    meaningful for the iterative selectors.

    Storage is packed and read-only: construction copies every class into
    one (P, D) float64 matrix, rows ordered by (class ascending, prototype
    index), with each class's row span and each row's squared norm cached;
    ``per_class`` becomes a read-only mapping of row views into that matrix.  ``replace_class``
    makes a derived set that shares this storage, holds only the new rows,
    and records ``derived_from = (parent, class_id)``.
    """

    per_class: Mapping[int, np.ndarray]
    selector_tag: str
    params_echo: dict = field(default_factory=dict)
    derived_from: tuple["PrototypeSet", int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.selector_tag not in SELECTOR_TAGS:
            raise DataFormatError(f"unknown selector tag {self.selector_tag!r}")
        rows = {c: _checked_rows(c, protos) for c, protos in self.per_class.items()}
        dims = {arr.shape[1] for arr in rows.values()}
        if len(dims) > 1:
            raise DimensionMismatchError(f"inconsistent prototype dimensions {sorted(dims)}")
        self._dim = dims.pop() if dims else 0
        self._flat = _pack(rows, self._dim)
        matrix = self._flat[0]
        # huge finite rows may square to inf; the ranking kernel checks for it
        with np.errstate(over="ignore", invalid="ignore"):
            self._sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        self._sq_norms.setflags(write=False)
        self._count = len(matrix)
        self._spans = MappingProxyType(_class_spans(rows))
        self.per_class = MappingProxyType({c: matrix[s] for c, s in self._spans.items()})

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def class_ids(self) -> list[int]:
        return sorted(self.per_class)

    def total_count(self) -> int:
        return self._count

    def counts_by_class(self) -> dict[int, int]:
        return {c: arr.shape[0] for c, arr in self.per_class.items()}

    def flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P, D) matrix plus parallel class-id and within-class-index arrays.

        Classes in ascending id order, prototypes in iteration order; all
        three are read-only.  A packed set returns its cached arrays; a set
        made by ``replace_class`` assembles them on every call.
        """
        if self.derived_from is None:
            return self._flat
        return _pack(self.per_class, self._dim)

    @property
    def class_spans(self) -> Mapping[int, slice]:
        """Class id -> the slice of ``flattened()`` rows holding its
        prototypes; a set made by ``replace_class`` has none."""
        return self._spans

    @property
    def sq_norms(self) -> np.ndarray:
        """Squared norm of each ``flattened()`` row; a set made by
        ``replace_class`` has none."""
        return self._sq_norms

    def replace_class(self, class_id: int, protos: np.ndarray) -> "PrototypeSet":
        """A set with ``class_id``'s prototypes replaced by ``protos``.

        Only ``protos`` is validated and copied; the result shares this
        set's storage.
        """
        rows = _checked_rows(class_id, protos)
        if not self.per_class:  # nothing to share
            return PrototypeSet({class_id: rows}, self.selector_tag, dict(self.params_echo))
        if rows.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"class {class_id}: prototype dimension {rows.shape[1]}, expected {self._dim}"
            )
        rows = rows.copy()
        rows.setflags(write=False)
        # built without __post_init__: nothing but the new rows needs checking
        new = object.__new__(PrototypeSet)
        new.per_class = MappingProxyType({**self.per_class, class_id: rows})
        new.selector_tag = self.selector_tag
        new.params_echo = dict(self.params_echo)
        new.derived_from = (self, class_id)
        new._dim = rows.shape[1]
        new._count = self._count - len(self.per_class.get(class_id, ())) + len(rows)
        return new


# -- CSV ----------------------------------------------------------------


def _dense_remap(labels: Iterable[str]) -> tuple[list[int], dict[int, str]]:
    mapping: dict[str, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out, {v: k for k, v in mapping.items()}


def _load_csv(path: Path) -> EmbeddingSet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise EmptyFileError(f"{path}: empty file")
    header = lines[0].split(",")
    for col in ("id", "class", "camera"):
        if col not in header[:3]:
            raise MissingColumnError(f"{path}: header missing {col!r} column")
    if header[:3] != ["id", "class", "camera"]:
        raise MissingColumnError(f"{path}: header must start with id,class,camera")
    dim = len(header) - 3
    if dim < 1:
        raise MissingColumnError(f"{path}: header has no feature columns")
    if len(lines) == 1:
        raise EmptyFileError(f"{path}: no data rows")

    ids, class_labels, camera_labels = [], [], []
    vectors = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise DimensionMismatchError(
                f"{path}: line {lineno} has {len(parts) - 3} feature values, expected {dim}"
            )
        ids.append(parts[0])
        class_labels.append(parts[1])
        camera_labels.append(parts[2])
        try:
            vec = np.array([float(v) for v in parts[3:]], dtype=np.float64)
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno} has a non-numeric coordinate") from None
        if not np.all(np.isfinite(vec)):
            raise NonFiniteValueError(f"{path}: line {lineno} (id {parts[0]!r}) has a non-finite value")
        vectors.append(vec)

    dense_classes, class_names = _dense_remap(class_labels)
    dense_cameras, camera_names = _dense_remap(camera_labels)
    records = [
        EmbeddingRecord(ids[i], vectors[i], dense_classes[i], dense_cameras[i])
        for i in range(len(ids))
    ]
    return EmbeddingSet(records, class_names=class_names, camera_names=camera_names)


def _save_csv(eset: EmbeddingSet, path: Path) -> None:
    """Write the set as CSV; raises before writing when an id or label holds
    a comma or line break, which the reader could not split back."""
    class_names = eset.class_names or {}
    camera_names = eset.camera_names or {}
    heads = []
    for rec in eset.records:
        cls = class_names.get(rec.class_id, rec.class_id)
        cam = camera_names.get(rec.camera_id, rec.camera_id)
        head = f"{rec.id},{cls},{cam}"
        if head.count(",") != 2 or "\n" in head or "\r" in head:
            raise DataFormatError(
                f"record {rec.id!r}: a comma or line break in its id or labels "
                "cannot be written to CSV"
            )
        heads.append(head)
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"f{i}" for i in range(eset.dim))
        fh.write(f"id,class,camera,{cols}\n")
        for rec, head in zip(eset.records, heads):
            coords = ",".join(f"{v:.17g}" for v in rec.vector)
            fh.write(f"{head},{coords}\n")


# -- binary -------------------------------------------------------------


def _load_binary(path: Path) -> EmbeddingSet:
    data = path.read_bytes()
    if len(data) == 0:
        raise EmptyFileError(f"{path}: empty file")
    if len(data) < 16 or data[:4] != BINARY_MAGIC:
        raise DataFormatError(f"{path}: bad magic, not a {BINARY_MAGIC.decode()} file")
    version, count, dim = struct.unpack_from("<III", data, 4)
    if version != BINARY_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    if count == 0:
        raise EmptyFileError(f"{path}: zero records")
    offset = 16
    records = []
    try:
        for _ in range(count):
            (id_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            rec_id = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            cls, cam = struct.unpack_from("<II", data, offset)
            offset += 8
            vec = np.frombuffer(data, dtype="<f8", count=dim, offset=offset).astype(np.float64)
            offset += 8 * dim
            if not np.all(np.isfinite(vec)):
                raise NonFiniteValueError(f"{path}: record {rec_id!r} has a non-finite value")
            records.append(EmbeddingRecord(rec_id, vec, cls, cam))
    except (struct.error, ValueError):
        # ValueError comes from np.frombuffer when the blob ends mid-vector.
        raise DataFormatError(f"{path}: truncated file") from None
    return EmbeddingSet(records)


def _save_binary(eset: EmbeddingSet, path: Path) -> None:
    parts = [BINARY_MAGIC, struct.pack("<III", BINARY_VERSION, len(eset), eset.dim)]
    for rec in eset.records:
        rec_id = rec.id.encode("utf-8")
        parts.append(struct.pack("<I", len(rec_id)))
        parts.append(rec_id)
        parts.append(struct.pack("<II", rec.class_id, rec.camera_id))
        parts.append(rec.vector.astype("<f8").tobytes())
    path.write_bytes(b"".join(parts))


# -- public IO ----------------------------------------------------------


def load_embedding_set(path: str | Path, format: str | None = None) -> EmbeddingSet:
    """Load a gallery/query file; format inferred from suffix when omitted."""
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "binary")
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "binary":
        return _load_binary(path)
    raise DataFormatError(f"unknown format {fmt!r}")


def save_embedding_set(eset: EmbeddingSet, path: str | Path, format: str | None = None) -> None:
    path = Path(path)
    fmt = format or ("csv" if path.suffix.lower() == ".csv" else "binary")
    if fmt == "csv":
        _save_csv(eset, path)
    elif fmt == "binary":
        _save_binary(eset, path)
    else:
        raise DataFormatError(f"unknown format {fmt!r}")


def build_set(
    vectors: np.ndarray,
    class_ids: Sequence[int],
    camera_ids: Sequence[int],
    id_prefix: str = "r",
) -> EmbeddingSet:
    """Convenience constructor from parallel arrays, ids auto-generated."""
    vectors = np.asarray(vectors, dtype=np.float64)
    records = [
        EmbeddingRecord(f"{id_prefix}{i}", vectors[i], int(class_ids[i]), int(camera_ids[i]))
        for i in range(vectors.shape[0])
    ]
    return EmbeddingSet(records)


def _labels_of(eset: EmbeddingSet, kind: str) -> dict[int, str]:
    # A set without a stored mapping labels its ids by their decimal form,
    # matching what _save_csv writes for it.
    if kind == "class":
        names = eset.class_names
        present = sorted({rec.class_id for rec in eset.records})
    else:
        names = eset.camera_names
        present = sorted({rec.camera_id for rec in eset.records})
    return {i: (names[i] if names and i in names else str(i)) for i in present}


def align_labels(reference: EmbeddingSet, other: EmbeddingSet) -> EmbeddingSet:
    """Re-index ``other`` so equal class/camera labels mean equal dense ids.

    CSV loading assigns dense ids per file in first-appearance order, so a
    gallery and a query file can disagree about which id a given label maps
    to; joining them on raw ids would then compare the wrong classes and
    filter the wrong cameras.  Labels present in ``reference`` keep its ids;
    labels only in ``other`` are appended after the reference's highest id,
    in ascending order of their old ids.  Returns a rebuilt copy of
    ``other`` carrying the merged label mappings.
    """
    remap: dict[str, dict[int, int]] = {}
    merged: dict[str, dict[int, str]] = {}
    for kind in ("class", "camera"):
        to_id = {lab: i for i, lab in _labels_of(reference, kind).items()}
        next_id = max(to_id.values()) + 1
        kind_remap = {}
        for old_id, lab in sorted(_labels_of(other, kind).items()):
            if lab not in to_id:
                to_id[lab] = next_id
                next_id += 1
            kind_remap[old_id] = to_id[lab]
        remap[kind] = kind_remap
        merged[kind] = {i: lab for lab, i in to_id.items()}
    records = [
        EmbeddingRecord(
            rec.id, rec.vector, remap["class"][rec.class_id], remap["camera"][rec.camera_id]
        )
        for rec in other.records
    ]
    return EmbeddingSet(records, class_names=merged["class"], camera_names=merged["camera"])
