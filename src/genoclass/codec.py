"""One JSON codec for every document the package stores, plus atomic file I/O.

``encode`` turns a dataclass into a dict of its ``init`` fields, recursing
through nested dataclasses, sequences, arrays and numpy scalars; a dict is
copied as it is, so its values must be JSON-ready. ``decode`` converts each
value back by the field's type hint: a dataclass, bool, int, float, str,
array, ``X | None``, ``tuple[X, ...]``, ``list[X]``, fixed-length
``tuple[X, Y]``, ``dict[K, V]``, or a plain ``dict`` (any JSON object).

A field is stored under its own name unless it names its JSON key,
``field(metadata={"key": ...})``; a dotted key such as ``"split.ratio"``
puts the value in a nested section, ``{"split": {"ratio": ...}}``.

Decoding is strict. The document and each section must be a JSON object
without unknown keys. A missing key is an error, except that under
``partial=True`` (user input: run configs, model params) it takes its
field's default; a field without a default is always required. A scalar
must already have its field's JSON type (``_scalar``), so ``"false"`` is no
boolean and ``2.7`` no integer, and an array field takes only a rectangular
JSON array of numbers. Every decoding failure is an ``ArgumentError``.

Classes opt in by inheriting :class:`JsonCodec`, and may override its
``to_json`` (``cart.Tree``), which nesting then uses; a nested document
decodes through its class's fields and checks. Every file goes through
``atomic_write`` and every directory through ``make_dirs``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import types
import typing
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ArgumentError, PersistenceError


class JsonCodec:
    """Mixin giving a dataclass ``to_json``/``from_json`` through the codec."""

    def to_json(self) -> dict:
        return _encode_section(self, _layout(type(self)))

    @classmethod
    def from_json(cls, doc: dict):
        return decode(cls, doc)


class _Field(typing.NamedTuple):
    """One ``init`` field: its name, JSON key, resolved type hint and whether it lacks a default."""

    name: str
    key: str
    hint: Any
    required: bool


#: the value ``_collect`` pairs with a field whose key the document lacks
_ABSENT = object()


@functools.cache
def _layout(cls: type) -> dict:
    """The document's shape: each key maps to its ``_Field``, or to the layout of its section."""
    hints = typing.get_type_hints(cls)
    layout: dict = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        key = f.metadata.get("key", f.name)
        *sections, last = key.split(".")
        node = layout
        for section in sections:
            node = node.setdefault(section, {})
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        node[last] = _Field(f.name, key, hints[f.name], required)
    return layout


def encode(obj: Any) -> Any:
    """JSON-ready form of obj: dicts, lists and Python scalars only."""
    if isinstance(obj, JsonCodec):
        return obj.to_json()
    if dataclasses.is_dataclass(obj):
        return _encode_section(obj, _layout(type(obj)))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, dict):
        return dict(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _encode_section(obj: Any, layout: dict) -> dict:
    return {
        key: _encode_section(obj, entry) if isinstance(entry, dict) else encode(getattr(obj, entry.name))
        for key, entry in layout.items()
    }


def decode(cls: type, doc: Any, partial: bool = False, name: str | None = None) -> Any:
    """Rebuild a ``cls`` instance from a document ``encode`` produced.

    Under ``partial`` a missing key takes its field's default; otherwise
    every key is required. ``name`` is what messages call the document
    (default: the class name). Raises ArgumentError naming the offending keys.
    """
    where = name or cls.__name__
    values = list(_collect(_layout(cls), doc, where))
    missing = [f.key for f, value in values if value is _ABSENT and (f.required or not partial)]
    if missing:
        raise ArgumentError(f"{where} is missing required keys {missing}")
    try:
        return cls(**{f.name: _decode_value(f.hint, value, partial, f.key) for f, value in values if value is not _ABSENT})
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"{where} is malformed: {exc!r}") from exc


def _collect(layout: dict, doc: Any, where: str) -> Iterator[tuple[_Field, Any]]:
    """Each field with its JSON value, or ``_ABSENT``, after checking each section's type and keys."""
    if not isinstance(doc, dict):
        raise ArgumentError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(layout))
    if unknown:
        raise ArgumentError(f"unknown {where} keys {unknown}")
    for key, entry in layout.items():
        if isinstance(entry, dict):
            yield from _collect(entry, doc.get(key, {}), key)
        else:
            yield entry, doc.get(key, _ABSENT)


def _decode_value(hint: Any, value: Any, partial: bool, where: str) -> Any:
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode_value(inner, value, partial, where)
    if dict in (hint, origin):
        if not isinstance(value, dict):
            raise ArgumentError(f"{where} must be a JSON object")
        if not args:
            return dict(value)
        return {k: _decode_value(args[1], v, partial, where) for k, v in value.items()}
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ArgumentError(f"{where} must be a JSON array")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ArgumentError(f"{where} must be a JSON array of {len(args)} items, got {len(value)}")
            return tuple(_decode_value(a, v, partial, where) for a, v in zip(args, value))
        items = [_decode_value(args[0], v, partial, where) for v in value]
        return tuple(items) if origin is tuple else items
    if issubclass(hint, JsonCodec):
        return decode(hint, value, partial, where)
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
    return _scalar(hint, value, where)


#: JSON name and accepted Python types of each scalar field type
_SCALARS = {bool: ("boolean", bool), int: ("integer", int), float: ("number", (int, float)), str: ("string", str)}


def _scalar(hint: type, value: Any, where: str) -> Any:
    """value for a bool, int, float or str field, type-checked instead of coerced.

    A float field also takes a JSON integer, as a float; true and false,
    which Python counts as integers, are booleans only. Raises ArgumentError.
    """
    name, accepted = _SCALARS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ArgumentError(f"{where} must be a JSON {name}, got {value!r}")
    return hint(value)


# -- files --------------------------------------------------------------------------


def make_dirs(path: str | Path) -> Path:
    """Create directory path and its parents if missing; an OSError is a PersistenceError naming path."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PersistenceError(f"cannot create directory {str(path)!r}: {exc.strerror or exc}") from exc
    return Path(path)


def remove_stale_temporaries(directories: Iterable[Path]) -> None:
    """Remove the ``atomic_write`` temporaries in directories whose process is gone (killed mid-write)."""
    for tmp in itertools.chain.from_iterable(d.glob(".*.tmp") for d in directories):
        pid = tmp.name.split(".")[-2]
        if not pid.isdecimal() or int(pid) == os.getpid():
            continue
        try:
            os.kill(int(pid), 0)  # signal 0 sends nothing: it only asks whether the process exists
        except ProcessLookupError:
            with contextlib.suppress(OSError):  # one left behind does no harm
                tmp.unlink()
        except (OSError, OverflowError):  # alive under another user, or beyond any pid
            pass


@contextlib.contextmanager
def atomic_write(path: str | Path, newline: str | None = None):
    """Open path for writing UTF-8 text (``newline=""`` for csv), all or nothing.

    The text goes to a temporary file in the same directory that replaces
    path in one rename, so a crash mid-write leaves the old file or the new
    one, never a truncated mix; a failed write removes the temporary file.
    An OSError is a PersistenceError naming path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise PersistenceError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
        raise


def write_csv_rows(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header row, then rows, with the default csv dialect, atomically."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclasses.dataclass(frozen=True)
class NumberTexts:
    """A number list rendered by ``float_texts``: the indented ``write_json`` writes its texts as they are."""

    texts: Sequence[str]


def float_texts(values: Any) -> list[str]:
    """``float.__repr__`` of each item of a float array, rendering each distinct bit pattern once (-0.0 keeps its text)."""
    bits = np.asarray(values, dtype=np.float64).ravel().view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_json(path: str | Path, doc: Any, end: str = "", compact: bool = False) -> None:
    """Write doc as sorted JSON followed by ``end``, atomically: compact through json's C
    encoder, or the bytes of ``json.dumps(doc, sort_keys=True, indent=1)``, which bypasses
    it. Those are written a container at a time: a list of plain ints and floats, or a
    ``NumberTexts``, is one C-level join of reprs; json renders every other scalar and key."""
    with atomic_write(path) as fh:
        if compact:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + end)
        else:
            _write_indented(fh, doc, "\n")
            fh.write(end)


def _write_indented(fh, value: Any, pad: str) -> None:
    """Write value as ``json.dumps`` with ``sort_keys=True, indent=1`` would; pad is the
    newline and indentation that close it."""
    inner = pad + " "
    types = set(map(type, value)) if isinstance(value, (list, tuple)) else set()  # empty for an empty list
    if isinstance(value, NumberTexts) or types and types <= {int, float}:
        texts = value.texts if isinstance(value, NumberTexts) else map(float.__repr__ if types == {float} else repr, value)
        text = ("," + inner).join(texts)
        if "n" in text:  # only nan and inf repr with an n, and json spells them NaN and Infinity
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        fh.write(f"[{inner}{text}{pad}]" if text else "[]")
    elif types:
        for i, item in enumerate(value):
            fh.write("," + inner if i else "[" + inner)
            _write_indented(fh, item, inner)
        fh.write(pad + "]")
    elif isinstance(value, dict) and value:
        for i, (key, item) in enumerate(sorted(value.items())):
            # a key that is no string takes json's conversion and check: '{"1": null}' gives '"1"'
            key = json.encoder.encode_basestring_ascii(key) if isinstance(key, str) else json.dumps({key: None})[1:-7]
            fh.write(("," if i else "{") + inner + key + ": ")
            _write_indented(fh, item, inner)
        fh.write(pad + "}")
    else:
        fh.write(json.encoder.encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value))


def json_digest(doc: Any) -> str:
    """SHA-256 hex digest of doc as sorted, compact JSON: equal documents give equal digests."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def read_json(path: str | Path, what: str) -> Any:
    """Parse a JSON file; a missing file or invalid JSON is a PersistenceError."""
    path = Path(path)
    if not path.is_file():
        raise PersistenceError(f"{what} {str(path)!r} does not exist")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PersistenceError(f"{what} {str(path)!r} is not valid JSON: {exc}") from exc
