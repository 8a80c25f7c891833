"""The one way cache and output files are written and read back.

Writers go through :func:`write_atomic`, so a file is either absent,
the previous version, or the new version in full; readers of checked
formats go through :func:`read_text`, which turns a missing, undecodable
or (against a recorded SHA-256) altered file into :class:`FormatError`. A
cache writer ends with :func:`remove_unlisted`, so its directory holds only
what its manifest or index lists.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path

from .errors import FormatError


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text is UTF-8 encoded) through a temporary sibling and
    ``os.replace``, creating parent directories; ``path`` is never half-written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
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


def is_int(value) -> bool:
    """A JSON integer (bools excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)
