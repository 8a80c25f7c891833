"""The one way cache and output files are written and read back.

Writers go through :func:`write_atomic`: a file is absent, the previous
version or the new one in full; a path that cannot be written is a
:class:`ConfigError`. A reader turns a missing, undecodable or (against a
recorded SHA-256) altered file into :class:`FormatError`. Each cache is one
JSON object plus one table (:func:`write_table`, :func:`read_table`): a
header, then one ``\n``-ended row per key, its key cells and then its
numbers in ``repr`` form, so a reload is bit-exact. JSON objects (manifest,
index, config) are read by :func:`read_json_object`, raw CSV by
:func:`read_text`; JSON fields, and config values, are typed by
:func:`has_type`. The owning modules add only their domain checks, such as
a positive weight or a digest.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Literal, Sequence, get_args, get_origin

import numpy as np

from .errors import ConfigError, FormatError, UsageError


def make_dir(directory: Path) -> Path:
    """Create ``directory`` and its parents; ConfigError naming it if that
    fails, as when a ``paths.*`` value names an existing file."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{directory}: cannot create directory ({e.strerror or e})") from e
    return directory


def write_atomic(path, data: str | bytes | Iterable[bytes]) -> None:
    """Write ``data`` (text is UTF-8 encoded; an iterable of byte chunks is
    written as it is consumed) through a temporary sibling and ``os.replace``,
    creating parent directories; ``path`` is never half-written. A failed
    write raises ConfigError naming ``path``: its usual cause is a
    ``paths.*`` value."""
    path = Path(path)
    make_dir(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(tmp, "wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise ConfigError(f"{path}: cannot write ({e.strerror or e})") from e
        raise


@contextmanager
def _reading(path: Path, what: str) -> Iterator[BinaryIO]:
    """``path`` open for binary reading; FormatError if it is missing or a
    read fails."""
    try:
        with open(path, "rb") as f:
            yield f
    except FileNotFoundError:
        raise FormatError(f"{path}: {what} not found") from None
    except OSError as e:
        raise FormatError(f"{path}: unreadable {what} ({e})") from e


def read_text(path: Path, what: str) -> str:
    """UTF-8 text of ``path`` (newlines normalized); FormatError if missing,
    unreadable or not UTF-8."""
    with _reading(path, what) as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: unreadable {what} ({e})") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def has_type(value, kind) -> bool:
    """Whether a JSON value has type ``kind``: ``int`` (bools excluded), ``float``
    (any number that converts to a finite float), ``str``, ``list[X]``,
    ``dict[str, X]``, a fixed-length ``tuple[...]`` (a JSON list), a
    ``Literal[...]`` or a union (``X | None``)."""
    origin, parts = get_origin(kind), get_args(kind)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        if has_type(value, int):
            return abs(value) <= sys.float_info.max
        return isinstance(value, float) and math.isfinite(value)
    if kind in (str, type(None)):
        return isinstance(value, kind)
    if origin is list:
        return isinstance(value, list) and all(has_type(v, parts[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(has_type(v, parts[1]) for v in value.values())
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(parts) and all(map(has_type, value, parts))
    if origin is Literal:
        return value in parts
    return any(has_type(value, part) for part in parts)


def type_name(kind) -> str:
    return kind.__name__ if kind in (int, float, str) else str(kind)


def unique_keys(error):
    """A ``json.loads`` ``object_pairs_hook`` that raises ``error(key)`` for
    a key that an object, at any depth, repeats (json would keep the last
    value)."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        found: dict = {}
        for key, item in pairs:
            if key in found:
                raise error(key)
            found[key] = item
        return found

    return unique


def read_json_object(path: Path, what: str, types: dict[str, object]) -> dict:
    """The JSON object in ``path`` whose fields ``types`` names have those
    types (:func:`has_type`) and in which no object repeats a key
    (:func:`unique_keys`); FormatError otherwise."""
    repeated = unique_keys(lambda key: FormatError(f"{path}: {what} repeats the key {key!r:.80}"))
    try:
        value = json.loads(read_text(path, what), object_pairs_hook=repeated)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: {what} is not valid JSON ({e})") from e
    if not isinstance(value, dict):
        raise FormatError(f"{path}: {what} is not a JSON object")
    for key, kind in types.items():
        if not has_type(found := value.get(key), kind):
            raise FormatError(f"{path}: {what} field {key} must be {type_name(kind)}, got {found!r:.80}")
    return value


def _width(columns: Sequence[str], keys: Sequence[str]) -> int:
    """Number of value columns: ``columns`` less the key cells of each row."""
    return len(columns) - 1 - (keys[0].count(",") if keys else 0)


def write_table(path, columns: Sequence[str], keys: Sequence[str], values: np.ndarray) -> str:
    """Write a table atomically and return the SHA-256 of its bytes: header
    ``columns``, then row k is ``keys[k]`` (key cells) and ``values[k]``.
    UsageError, before anything is written, unless ``values`` has one row per
    key and one column per value column."""
    expected = (len(keys), _width(columns, keys))
    if np.shape(values) != expected:
        raise UsageError(f"{path}: table values have shape {np.shape(values)}, expected {expected}")
    digest = hashlib.sha256()

    def lines() -> Iterator[bytes]:
        rows = (f"{key},{','.join(map(repr, row.tolist()))}" for key, row in zip(keys, values))
        for line in itertools.chain([",".join(columns)], rows):
            data = f"{line}\n".encode("utf-8")
            digest.update(data)
            yield data

    write_atomic(path, lines())  # row by row: the file's text is never held whole
    return digest.hexdigest()


def read_table(
    path: Path, what: str, columns: Sequence[str], keys: Sequence[str], sha256: str | None = None
) -> np.ndarray:
    """The (len(keys), width) numbers of a :func:`write_table` table; FormatError
    naming ``file:line`` unless its bytes have the SHA-256 ``sha256`` (if
    given), it is UTF-8 text ending with a newline, it has the header and one
    row per key in order with ``width`` numbers each, and every number parses
    and is finite. The digest reads 1 MiB at a time and the rows line by line,
    so a read holds no copy of the file's text beside the result."""
    width = _width(columns, keys)
    values = np.empty((len(keys), width), dtype=np.float64)
    with _reading(path, what) as f:
        if sha256 is not None:
            digest, buffer = hashlib.sha256(), bytearray(1 << 20)
            while size := f.readinto(buffer):
                digest.update(memoryview(buffer)[:size])
            if digest.hexdigest() != sha256:
                raise FormatError(f"{path}: {what} does not match the sha256 recorded for it")
            f.seek(0)
        lines = io.TextIOWrapper(f, encoding="utf-8", newline=None)
        try:
            header = lines.readline()
            if not header.endswith("\n"):
                raise FormatError(f"{path}: truncated (no final newline)")
            if header[:-1] != ",".join(columns):
                raise FormatError(f"{path}: unexpected header {header[:-1]!r:.80}")
            for j, key in enumerate(keys):
                line = lines.readline()
                if not line:
                    raise FormatError(f"{path}: {j} rows, expected {len(keys)}")
                if not line.endswith("\n"):
                    raise FormatError(f"{path}: truncated (no final newline)")
                line = line[:-1]
                row = line[len(key) + 1 :].split(",")
                if not line.startswith(key + ",") or len(row) != width:
                    raise FormatError(
                        f"{path}:{j + 2}: expected the row {key!r} with {width} numbers, got {line!r:.80}"
                    )
                try:
                    values[j] = list(map(float, row))
                except ValueError:
                    raise FormatError(f"{path}:{j + 2}: non-numeric value in {line!r:.80}") from None
            extra = sum(1 for _ in lines)
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: unreadable {what} ({e})") from e
    if extra:
        raise FormatError(f"{path}: {len(keys) + extra} rows, expected {len(keys)}")
    bad = ~np.isfinite(values)
    if bad.any():
        j, c = np.argwhere(bad)[0]
        raise FormatError(f"{path}:{j + 2}: non-finite value in column {columns[c - width]!r} of the row {keys[j]!r}")
    return values
