"""One JSON schema for every config dataclass.

``dataclasses.fields`` and the field annotations drive the reader
(:func:`from_json`), the writer (:func:`to_json`) and the construction-time
type check (:func:`check_field_types`), with one rule set for every section:

* a section is a JSON object, and unknown keys raise ``ConfigError``;
* an absent key takes the dataclass default (or the caller's ``defaults``),
  and a nested section's absent ``seed`` takes the enclosing object's seed;
* ``tuple[...]`` fields accept JSON lists; ``float`` fields accept JSON
  integers and store them as floats; a bool never counts as a number, and
  a NaN or infinity (which ``json`` reads) is refused;
* the writer is the exact inverse of the reader and writes tuples as lists.

JSON-only names are field metadata, declared once on the dataclass:
``{"json": "n"}`` stores a field under another key, and a dotted key
(``"data.path"``) puts it in a JSON object shared with the other fields of
that prefix, written without null members, or as null when all are null;
``{"required": True}`` makes a key mandatory in JSON; ``{"spellings": {...}}``
maps extra JSON spellings to the stored value.  A class attribute
``JSON_VERSION`` adds a ``"version"`` key that must hold that value.

A field's single-value rules are metadata too, checked by
:func:`check_field_types` after the type: ``{"ge": 1}``, ``"gt"``, ``"le"``
and ``"lt"`` bound the value (``n_blocks must be >= 1, got 0``), or each
member of a tuple value, and ``{"choices": (...)}`` lists the values
allowed (``unknown protocol 'x' (choose from (...))``).  A field that holds
``None`` is not checked against either.  Rules that relate two fields, or
two members of one value, stay in the class's ``__post_init__``.

Every JSON artifact the package writes goes through :func:`write_json`, in
the one form of :func:`json_text`: sorted keys, two-space indent, a trailing
newline, UTF-8.  Its readers raise ``DataFormatError`` unless a file or text
holds one JSON object.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
import types
import typing
from pathlib import Path

from .errors import ConfigError, DataFormatError

_NONE = type(None)
# Exact types that satisfy each scalar annotation at once; other values
# (numpy scalars, tuples, lists, nested configs) take the slower ``_matches``.
_EXACT = {int: (int,), float: (float, int), str: (str,), bool: (bool,), _NONE: (_NONE,)}
_NUMBERS = {int: numbers.Integral, float: numbers.Real}  # for Python callers
_NO = object()  # a JSON value that does not read as the annotated type
# bound keys of field metadata: (key, test(value, limit) that must hold, symbol)
_BOUNDS = (
    ("ge", operator.ge, ">="),
    ("gt", operator.gt, ">"),
    ("le", operator.le, "<="),
    ("lt", operator.lt, "<"),
)


def _alternatives(tp) -> tuple:
    if isinstance(tp, types.UnionType) or typing.get_origin(tp) is typing.Union:
        return typing.get_args(tp)
    return (tp,)


@functools.cache
def _schema(cls) -> tuple[list, dict]:
    """One row ``(field, group, key, alternatives, exact types, bounds,
    choices)`` per field, nested configs last so that they can inherit the
    seed, and the JSON keys of each group ("" is the top level).  ``bounds``
    holds one ``(test, symbol, limit)`` per bound the field declares."""
    hints = typing.get_type_hints(cls)
    rows, groups = [], {"": {"version"} if hasattr(cls, "JSON_VERSION") else set()}
    for f in dataclasses.fields(cls):
        group, _, key = f.metadata.get("json", f.name).rpartition(".")
        groups.setdefault(group, set()).add(key)
        groups[""].add(group or key)
        kinds = _alternatives(hints[f.name])
        exact = {t for k in kinds for t in _EXACT.get(k, ())}
        exact.update(k for k in kinds if dataclasses.is_dataclass(k))
        bounds = tuple((op, sym, f.metadata[k]) for k, op, sym in _BOUNDS if k in f.metadata)
        rows.append((f, group, key, kinds, frozenset(exact), bounds, f.metadata.get("choices")))
    rows.sort(key=lambda r: any(dataclasses.is_dataclass(k) for k in r[3]))
    return rows, groups


def _matches(value, tp) -> bool:
    kinds = _alternatives(tp)
    if len(kinds) > 1:
        return any(_matches(value, k) for k in kinds)
    if tp in _NUMBERS:
        return isinstance(value, _NUMBERS[tp]) and not isinstance(value, bool)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        return (
            isinstance(value, tuple)
            and len(value) == len(args)
            and all(map(_matches, value, args))
        )
    if origin is list:
        return isinstance(value, list) and all(_matches(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items()
        )
    return isinstance(value, tp)


def _finite(value) -> bool:
    # exact types first: a numbers ABC check costs about a microsecond
    if type(value) is float:
        return math.isfinite(value)
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if type(value) in (int, str, bool, _NONE) or isinstance(value, numbers.Integral):
        return True  # an int may be too large for math.isfinite
    return not isinstance(value, numbers.Real) or math.isfinite(value)


def check_field_types(obj) -> None:
    """Raise ConfigError when a field of the dataclass ``obj`` holds a value
    of none of its annotated types (numpy scalars count as numbers), a NaN
    or infinity, alone or in a tuple or list, or a value its declared
    bounds or choices refuse."""
    for f, _, _, kinds, exact, bounds, choices in _schema(type(obj))[0]:
        value = getattr(obj, f.name)
        if type(value) not in exact and not any(_matches(value, k) for k in kinds):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not _finite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if value is None:
            continue
        if choices is not None and value not in choices:
            raise ConfigError(f"unknown {f.name} {value!r} (choose from {choices})")
        for test, sym, limit in bounds:
            for v in value if type(value) is tuple else (value,):
                if not test(v, limit):
                    raise ConfigError(f"{f.name} must be {sym} {limit}, got {v!r}")


def _read_value(value, tp, inherited: dict, where: str):
    """JSON ``value`` as a Python value of ``tp``, or ``_NO``."""
    if tp is float:
        if type(value) not in (int, float):
            return _NO
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            return _NO
    if tp in _EXACT:
        return value if type(value) is tp else _NO
    if dataclasses.is_dataclass(tp):
        return _read(tp, value, inherited, where) if type(value) is dict else _NO
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple or origin is list:
        if type(value) is not list or (origin is tuple and len(value) != len(args)):
            return _NO
        kinds = args if origin is tuple else args * len(value)
        items = [_read_value(v, k, inherited, where) for v, k in zip(value, kinds)]
        if any(item is _NO for item in items):
            return _NO
        return tuple(items) if origin is tuple else items
    return _read_any(value, _alternatives(tp), inherited, where)


def _read_any(value, kinds: tuple, inherited: dict, where: str):
    for kind in kinds:
        out = _read_value(value, kind, inherited, where)
        if out is not _NO:
            return out
    return _NO


def _read(cls, data, defaults: dict, where: str):
    rows, groups = _schema(cls)
    sections = {}
    for group, keys in groups.items():  # the top level first
        qual = ".".join(p for p in (where, group) if p) or "config"
        section = data.get(group) if group else data
        if group and section is None:
            section = {}
        if type(section) is not dict:
            raise ConfigError(f"{qual} must be a JSON object, got {type(section).__name__}")
        extra = set(section) - keys
        if extra:
            raise ConfigError(f"unknown {qual} keys {sorted(extra)}")
        sections[group] = section
    # "version" passed the key check only if cls declares a JSON_VERSION
    version = data.get("version")
    if version is not None and (type(version) is not int or version != cls.JSON_VERSION):
        raise ConfigError(f"unsupported config version {version!r}")
    kwargs = {}
    for f, group, key, kinds, *_ in rows:
        section, qual = sections[group], ".".join(p for p in (where, group, key) if p)
        if key not in section:
            kwargs[f.name] = defaults.get(f.name, f.default)
            if f.metadata.get("required") or kwargs[f.name] is dataclasses.MISSING:
                raise ConfigError(f"missing required key {qual!r}")
            continue
        value = section[key]
        if type(value) is str:
            value = f.metadata.get("spellings", {}).get(value, value)
        inherited = {"seed": kwargs["seed"]} if "seed" in kwargs else {}
        kwargs[f.name] = _read_any(value, kinds, inherited, qual)
        if kwargs[f.name] is _NO:
            raise ConfigError(f"{qual} must be {f.type}, got {value!r}")
    return cls(**kwargs)


def from_json(cls, data, defaults: dict | None = None):
    """The config dataclass ``cls`` read from the decoded JSON object
    ``data``; ``defaults`` maps field names to values for absent keys."""
    return _read(cls, data, defaults or {}, "")


def _write_value(value):
    if dataclasses.is_dataclass(value):
        return to_json(value)
    if isinstance(value, (tuple, list)):
        return [_write_value(v) for v in value]
    return value


def to_json(obj) -> dict:
    """The JSON object of the config dataclass ``obj``."""
    rows, groups = _schema(type(obj))
    out = {"version": obj.JSON_VERSION} if hasattr(obj, "JSON_VERSION") else {}
    for f, group, key, *_ in rows:
        value = _write_value(getattr(obj, f.name))
        if not group:
            out[key] = value
        elif value is not None:
            out.setdefault(group, {})[key] = value
    for group in filter(None, groups):
        out.setdefault(group, None)
    return out


def json_text(data) -> str:
    """``data`` as JSON: sorted keys, two-space indent, a trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as UTF-8 ``json_text``."""
    Path(path).write_text(json_text(data), encoding="utf-8")


def parse_json_object(text: str | bytes, where) -> dict:
    """Decode ``text`` (bytes as UTF-8), which must hold one JSON object;
    errors name ``where``."""
    try:
        data = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{where}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DataFormatError(f"{where}: expected a JSON object")
    return data


def read_json_object(path) -> dict:
    """Decode the file at ``path``, which must hold one JSON object."""
    return parse_json_object(Path(path).read_bytes(), path)
