"""Exception hierarchy with machine-parsable categories.

Every error raised by this package carries a short ``category`` string that
the CLI prints on a single line, so callers can dispatch on failure kind
without parsing prose.
"""

from __future__ import annotations


class GcprotoError(Exception):
    category = "error"


class DataFormatError(GcprotoError):
    category = "format"


class DimensionMismatchError(DataFormatError):
    category = "dimension-mismatch"


class NonFiniteValueError(DataFormatError):
    category = "non-finite"


class MissingColumnError(DataFormatError):
    category = "missing-column"


class EmptyFileError(DataFormatError):
    category = "empty-file"


class DuplicateIdError(DataFormatError):
    category = "duplicate-id"


class UnknownClassError(GcprotoError):
    category = "unknown-class"


class UnknownCameraError(GcprotoError):
    category = "unknown-camera"


class EmptyPrototypeSetError(GcprotoError):
    category = "empty-prototypes"


class ConfigError(GcprotoError):
    category = "config"


class TrainingDivergedError(GcprotoError):
    category = "training-diverged"
