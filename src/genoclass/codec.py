"""One JSON codec for the package's value dataclasses, plus atomic file I/O.

``encode`` turns a dataclass into a dict of its ``init`` fields, recursing
through nested dataclasses, sequences, arrays and numpy scalars. ``decode``
converts each value back by the field's type hint. It is strict: an unknown
key is an error, and so is a missing one unless a ``base`` instance supplies
it; a scalar must already have its field's JSON type (``scalar``), so
``"false"`` is no boolean and ``2.7`` no integer, and an array field takes
only a rectangular JSON array of numbers.
Stored documents decode without a base; partial user input (model params,
engineered-feature sources) decodes over the default instance. Every
decoding failure is an ``ArgumentError``.

Classes opt in by inheriting :class:`JsonCodec`. Every file the package
writes, JSON or not, goes through ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import os
import types
import typing
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ArgumentError, PersistenceError


class JsonCodec:
    """Mixin giving a dataclass ``to_json``/``from_json`` through the codec."""

    def to_json(self) -> dict:
        return encode(self)

    @classmethod
    def from_json(cls, doc: dict):
        return decode(cls, doc)


@functools.cache
def _init_fields(cls: type) -> tuple[tuple[str, Any], ...]:
    """(name, resolved type hint) of each ``init`` field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def encode(obj: Any) -> Any:
    """JSON-ready form of obj: dicts, lists and Python scalars only."""
    if dataclasses.is_dataclass(obj):
        return {name: encode(getattr(obj, name)) for name, _ in _init_fields(type(obj))}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def decode(cls: type, doc: Any, base: Any = None) -> Any:
    """Rebuild a ``cls`` instance from a document ``encode`` produced.

    Keys missing from doc are taken from ``base`` when one is given and are
    an error otherwise. Raises ArgumentError naming the offending keys.
    """
    return _decode(cls, doc, base, cls.__name__)


def _decode(cls: type, doc: Any, base: Any, where: str) -> Any:
    if not isinstance(doc, dict):
        raise ArgumentError(f"{where} must be a JSON object")
    fields = _init_fields(cls)
    unknown = sorted(set(doc) - {name for name, _ in fields})
    if unknown:
        raise ArgumentError(f"unknown {where} keys {unknown}")
    missing = [name for name, _ in fields if name not in doc]
    if missing and base is None:
        raise ArgumentError(f"{where} is missing keys {missing}")
    try:
        kwargs = {name: getattr(base, name) for name in missing}
        for name, hint in fields:
            if name in doc:
                kwargs[name] = _decode_value(hint, doc[name], getattr(base, name, None), name)
        return cls(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"{where} is malformed: {exc!r}") from exc


def _decode_value(hint: Any, value: Any, base: Any, where: str) -> Any:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return _decode_value(inner, value, base, where)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ArgumentError(f"{where} must be a JSON array")
        items = [_decode_value(typing.get_args(hint)[0], v, None, where) for v in value]
        return tuple(items) if origin is tuple else items
    if issubclass(hint, JsonCodec):
        return _decode(hint, value, base, where)
    if hint is np.ndarray:
        try:
            array = np.asarray(value) if isinstance(value, list) else None
        except ValueError:  # ragged rows
            array = None
        # the dtype kind shows strings, booleans and nulls before the cast could convert them;
        # numbers promote booleans mixed in among them, so only the items show those
        items = value
        for _ in range(1, getattr(array, "ndim", 1)):
            items = itertools.chain.from_iterable(items)
        if array is None or array.dtype.kind not in "iuf" or bool in set(map(type, items)):
            raise ArgumentError(f"{where} must be a rectangular JSON array of numbers")
        return array.astype(np.float64)
    return scalar(hint, value, where)


#: JSON name and accepted Python types of each scalar field type
_SCALARS = {bool: ("boolean", bool), int: ("integer", int), float: ("number", (int, float)), str: ("string", str)}


def scalar(hint: type, value: Any, where: str) -> Any:
    """value for a bool, int, float or str field, type-checked instead of coerced.

    A float field also takes a JSON integer, as a float; true and false,
    which Python counts as integers, are booleans only. Raises ArgumentError.
    """
    name, accepted = _SCALARS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ArgumentError(f"{where} must be a JSON {name}, got {value!r}")
    return hint(value)


# -- files --------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path: str | Path, newline: str | None = None):
    """Open path for writing UTF-8 text (``newline=""`` for csv), all or nothing.

    The text goes to a temporary file in the same directory that replaces
    path in one rename, so a crash mid-write leaves the old file or the new
    one, never a truncated mix; a failed write removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv_rows(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row, then rows, with the default csv dialect, atomically."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, doc: Any, end: str = "") -> None:
    """Write doc as sorted, one-space-indented JSON followed by ``end``, atomically."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write(end)


def read_json(path: str | Path, what: str) -> Any:
    """Parse a JSON file; a missing file or invalid JSON is a PersistenceError."""
    path = Path(path)
    if not path.is_file():
        raise PersistenceError(f"{what} {str(path)!r} does not exist")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PersistenceError(f"{what} {str(path)!r} is not valid JSON: {exc}") from exc
