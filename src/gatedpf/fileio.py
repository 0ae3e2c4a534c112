"""Atomic file writing and delimited matrix I/O."""
from __future__ import annotations

import io
import os
import secrets
from pathlib import Path

import numpy as np


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


def matrix_csv_text(matrix: np.ndarray) -> str:
    buf = io.StringIO()
    np.savetxt(buf, np.atleast_2d(np.asarray(matrix, dtype=float)), delimiter=",", fmt="%.17g")
    return buf.getvalue()


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> Path:
    """Plain numeric CSV, rows by columns, no header."""
    return atomic_write_text(path, matrix_csv_text(matrix))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))
