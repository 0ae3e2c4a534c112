"""Atomic file writing, checked CSV reading, and delimited matrix I/O."""
from __future__ import annotations

import csv
import io
import os
import secrets
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write-then-rename so readers never observe a partial file.

    Each call writes ``text`` verbatim to its own uniquely named sibling,
    created with the permissions a plain write would give, and renames it
    over ``path``; on failure the sibling is removed and ``path`` is left
    as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_csv_rows(
    path: str | Path, columns: Sequence[str], what: str
) -> Iterator[tuple[int, list[str]]]:
    """The rows after the header of a CSV file, as ``(line, fields)`` pairs.

    Raises :class:`DataError` naming ``path`` when the header is not
    ``columns`` or the file cannot be decoded, and ``path:line`` when a row
    has another number of fields or cannot be parsed as CSV.  ``what``
    names the file's kind in the header message.
    """
    path = Path(path)
    width = len(columns)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != tuple(columns):
                raise DataError(f"{path}: unexpected {what} header {header!r}")
            for row in reader:
                if len(row) != width:
                    raise DataError(
                        f"{path}:{reader.line_num}: expected {width} columns, got {len(row)}"
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not a text file: {exc}") from exc


def matrix_csv_text(matrix: np.ndarray) -> str:
    buf = io.StringIO()
    np.savetxt(buf, np.atleast_2d(np.asarray(matrix, dtype=float)), delimiter=",", fmt="%.17g")
    return buf.getvalue()


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> Path:
    """Plain numeric CSV, rows by columns, no header."""
    return atomic_write_text(path, matrix_csv_text(matrix))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))
