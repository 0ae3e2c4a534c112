"""Atomic file writing, the CSV record rule (one writer, one checked reader
loop, field parsers), and delimited matrix I/O."""
from __future__ import annotations

import csv
import io
import math
import os
import secrets
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import ConfigurationError, DataError

T = TypeVar("T")


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
    path: str | Path, columns: Sequence[str], what: str, parse: Callable[[list[str]], T]
) -> tuple[list[T], list[int]]:
    """The records of a CSV file's rows after its header, each row's fields
    parsed by ``parse``, and each row's line in the file.

    Raises :class:`DataError` naming ``path`` when the file cannot be
    opened or decoded or the header is not ``columns``, and ``path:line``
    when a row has another number of fields, cannot be parsed as CSV, or
    ``parse`` raises :class:`ValueError` or :class:`ConfigurationError`.
    ``what`` names the file's kind in the messages that name no line.
    """
    path = Path(path)
    width = len(columns)
    records: list[T] = []
    lines: list[int] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != tuple(columns):
                raise DataError(f"{path}: unexpected {what} header {header!r}")
            for row in reader:
                if len(row) != width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                records.append(parse(row))
                lines.append(reader.line_num)
    except OSError as exc:
        raise DataError(f"{path}: cannot read the {what}: {exc.strerror or exc}") from exc
    # A UnicodeDecodeError is a ValueError too, but names no line.
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    except (csv.Error, ValueError, ConfigurationError) as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return records, lines


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the header ``columns`` followed by ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# Field parsers for ``read_csv_rows``: each raises ValueError naming the
# field when ``text`` is not a value its writer writes.


def _flag(text: str, name: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {text!r}")
    return text == "1"


def _number(text: str, name: str, nan_ok: bool = False, inf_ok: bool = False) -> float:
    """A float field; infinite only where ``inf_ok``, NaN only where ``nan_ok``."""
    value = float(text)
    if (math.isinf(value) and not inf_ok) or (math.isnan(value) and not nan_ok):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _count(text: str, name: str, least: int = 0) -> int:
    value = int(text)
    if not least <= value < 2**63:
        raise ValueError(f"{name} must be a count in [{least}, 2**63), got {text!r}")
    return value


def matrix_csv_text(matrix: np.ndarray) -> str:
    # Closing the buffer frees its text at once: ``np.savetxt`` leaves it in
    # a reference cycle that only the cyclic collector would free.
    with io.StringIO() as buf:
        np.savetxt(buf, np.atleast_2d(np.asarray(matrix, float)), delimiter=",", fmt="%.17g")
        return buf.getvalue()


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> Path:
    """Plain numeric CSV, rows by columns, no header."""
    return atomic_write_text(path, matrix_csv_text(matrix))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))
