"""Exception hierarchy with machine-parsable categories.

Every error raised by this package carries a short ``category`` string that
the CLI prints on a single line, so callers can dispatch on failure kind
without parsing prose.  ``check_field_types`` turns a config field of the
wrong type into a ``ConfigError`` before any comparison on it can raise a
bare ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers


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


class EmptyMemoryError(GcprotoError):
    category = "empty-memory"


class EmptyPrototypeSetError(GcprotoError):
    category = "empty-prototypes"


class ConfigError(GcprotoError):
    category = "config"


class TrainingDivergedError(GcprotoError):
    category = "training-diverged"


# Plain scalar annotations that check_field_types enforces; bool is never
# accepted as a number.
_SCALARS = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "str": str,
    "bool": bool,
    "None": type(None),
}
# Exact types that satisfy each annotation at once; other values (numpy
# scalars, tuples, nested configs) take the slower ``_matches`` path.
_EXACT = {
    "int": (int,),
    "float": (float, int),
    "str": (str,),
    "bool": (bool,),
    "None": (type(None),),
}


def _matches(value, kind: str) -> bool:
    if kind.startswith("tuple[") and kind.endswith("]"):
        items = [k.strip() for k in kind[len("tuple[") : -1].split(",")]
        return (
            isinstance(value, tuple)
            and len(value) == len(items)
            and all(_matches(v, k) for v, k in zip(value, items))
        )
    if kind not in _SCALARS:
        return True  # nested configs and containers are checked by their owners
    if kind != "bool" and isinstance(value, bool):
        return False
    return isinstance(value, _SCALARS[kind])


@functools.cache
def _field_kinds(cls) -> tuple:
    """(name, annotation, kinds, exact types) for each field of a dataclass."""
    rows = []
    for f in dataclasses.fields(cls):
        kinds = tuple(k.strip() for k in f.type.split("|"))
        exact = frozenset(t for k in kinds for t in _EXACT.get(k, ()))
        rows.append((f.name, f.type, kinds, exact))
    return tuple(rows)


def check_field_types(obj) -> None:
    """Raise ConfigError when a dataclass field annotated with plain scalar
    types (``int``, ``float``, ``str``, ``bool``, ``None``, fixed tuples of
    these, and unions of them) holds a value of none of them."""
    for name, annotation, kinds, exact in _field_kinds(type(obj)):
        value = getattr(obj, name)
        if type(value) not in exact and not any(_matches(value, k) for k in kinds):
            raise ConfigError(f"{name} must be {annotation}, got {value!r}")
