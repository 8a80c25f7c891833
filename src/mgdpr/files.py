"""The one way cache and output files are written and read back.

Writers go through :func:`write_atomic` (a file is absent, the previous
version or the new one in full; a path that cannot be written is a
:class:`ConfigError`), and a cache writer ends with :func:`remove_unlisted`.
Readers go through :func:`read_text`, which turns a missing, undecodable
or (against a recorded SHA-256) altered file into :class:`FormatError`.
Both caches' data files are tables (:func:`write_table`, :func:`read_table`):
a header, then one ``\n``-ended row per key, its key cells and then its
numbers in ``repr`` form, so a reload is bit-exact.
JSON objects (manifest, index, config) are read by :func:`read_json_object`;
their fields, and config values, are typed by :func:`has_type`. The owning
modules add only their domain checks, such as a positive weight or a digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Literal, Sequence, get_args, get_origin

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


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text is UTF-8 encoded) through a temporary sibling and
    ``os.replace``, creating parent directories; ``path`` is never half-written.
    A failed write raises ConfigError naming ``path``: its usual cause is a
    ``paths.*`` value."""
    path = Path(path)
    make_dir(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise ConfigError(f"{path}: cannot write ({e.strerror or e})") from e
        raise


def remove_unlisted(directory: Path, pattern: str, listed: set[str]) -> None:
    """Delete the files of ``directory`` whose names fully match the regular
    expression ``pattern`` but are not in ``listed``; other files stay."""
    for path in directory.iterdir():
        if path.is_file() and re.fullmatch(pattern, path.name) and path.name not in listed:
            path.unlink(missing_ok=True)


def read_text(path: Path, what: str, sha256: str | None = None) -> str:
    """UTF-8 text of ``path`` (newlines normalized); FormatError if missing,
    unreadable, or (given ``sha256``) if its bytes have another SHA-256."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{path}: {what} not found") from None
    except OSError as e:
        raise FormatError(f"{path}: unreadable {what} ({e})") from e
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise FormatError(f"{path}: {what} does not match the sha256 recorded for it")
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


def read_json_object(path: Path, what: str, types: dict[str, object]) -> dict:
    """The JSON object in ``path`` whose fields ``types`` names have those
    types (:func:`has_type`); FormatError otherwise."""
    try:
        value = json.loads(read_text(path, what))
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
    lines = [",".join(columns)]
    lines += [f"{key},{','.join(map(repr, row))}" for key, row in zip(keys, values.tolist())]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    write_atomic(path, data)
    return hashlib.sha256(data).hexdigest()


def read_table(
    path: Path, what: str, columns: Sequence[str], keys: Sequence[str], sha256: str | None = None
) -> np.ndarray:
    """The (len(keys), width) numbers of a :func:`write_table` table; FormatError
    naming ``file:line`` unless it matches ``sha256`` (if given), ends with a
    newline, has the header, one row per key in order with ``width`` numbers
    each, and every number parses and is finite."""
    text = read_text(path, what, sha256)
    if not text.endswith("\n"):
        raise FormatError(f"{path}: truncated (no final newline)")
    header, *lines = text[:-1].split("\n")
    if header != ",".join(columns):
        raise FormatError(f"{path}: unexpected header {header!r}")
    if len(lines) != len(keys):
        raise FormatError(f"{path}: {len(lines)} rows, expected {len(keys)}")
    width = _width(columns, keys)
    numbers: list[float] = []
    for j, (line, key) in enumerate(zip(lines, keys), start=2):
        row = line[len(key) + 1 :].split(",")
        if not line.startswith(key + ",") or len(row) != width:
            raise FormatError(f"{path}:{j}: expected the row {key!r} with {width} numbers, got {line!r}")
        try:
            numbers += map(float, row)
        except ValueError:
            raise FormatError(f"{path}:{j}: non-numeric value in {line!r}") from None
    values = np.array(numbers, dtype=np.float64).reshape(len(keys), width)
    bad = ~np.isfinite(values)
    if bad.any():
        j, c = np.argwhere(bad)[0]
        raise FormatError(f"{path}:{j + 2}: non-finite {columns[c - width]} in {lines[j]!r}")
    return values
