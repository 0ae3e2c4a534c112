"""Atomic file writing, the text rule of every record file, and delimited
matrix I/O.

A record file (the measurement log, a decision log, ``metrics_long.csv``)
is declared by a :class:`RecordFormat`: its columns, each of one field
kind, and its range and cross-column rules.  The kind alone decides how a
value is written as text, so one writer renders every format
(:func:`record_text`) and one reader parses every format column by column
(:func:`read_records`), accepting a field only when writing the value it
reads gives the field again.
"""
from __future__ import annotations

import csv
import io
import itertools
import os
import secrets
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

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
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror and exc.filename is None:
            exc.filename = str(path)  # a system error on the data names its file
        raise
    return path


class Kind(NamedTuple):
    """How a field kind's values are written as text and read back (``read``
    raises :class:`ValueError` or :class:`LookupError` on text it cannot
    read); ``what`` names a readable field in messages."""

    write: Callable[[Any], str]
    read: Callable[[str], Any]
    what: str


INT = Kind(str, int, "an integer")
FLOAT = Kind(repr, float, "a number")
FLAG = Kind("01".__getitem__, {"0": False, "1": True}.__getitem__, "0 or 1")
# A variant's level: empty for the ungated run.
LEVEL = Kind(
    lambda value: "" if value is None else repr(value),
    lambda text: None if text == "" else float(text),
    "a number or empty",
)
TEXT = Kind(str, str, "text")


class Rule(NamedTuple):
    """A rule of a record format: ``accepts`` maps the parsed columns (name
    -> list of values) to one flag per row, or to ``True`` for all of them;
    a refused row is named by its ``column``'s text and what it ``must`` be."""

    column: str
    must: str
    accepts: Callable[[Mapping[str, list]], Any]


def int_range(column: str, least: int, below: int) -> Rule:
    """The rule that the integers of ``column`` lie in [least, below)."""

    def accepts(columns):
        values = columns[column]
        return not values or least <= min(values) and max(values) < below or [
            least <= value < below for value in values
        ]

    def bound(n: int) -> str:
        e = abs(n).bit_length() - 1
        return f"{'-' * (n < 0)}2**{e}" if abs(n) == 2**e > 2**32 else str(n)

    return Rule(column, f"lie in [{bound(least)}, {bound(below)})", accepts)


def one_of(column: str, choices: Sequence[str]) -> Rule:
    """The rule that ``column`` holds one of ``choices``."""
    allowed = frozenset(choices)
    return Rule(
        column, f"be one of {tuple(choices)}",
        lambda c: allowed.issuperset(c[column]) or [value in allowed for value in c[column]],
    )


class RecordFormat(NamedTuple):
    """A record file: what it holds (for messages), its ``(name, kind)``
    columns in file order, and its rules."""

    what: str
    fields: tuple[tuple[str, Kind], ...]
    rules: tuple[Rule, ...] = ()

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)


def record_text(fmt: RecordFormat, columns: Mapping[str, list], path: str | Path) -> str:
    """The text of the record file at ``path``: ``fmt``'s header, then the
    rows of ``columns`` (name -> list of values), each value written by its
    field's kind.

    The rules are applied first: the first row, in file order, that a rule
    refuses raises :class:`DataError` naming ``path:line``, the line that
    :func:`read_records` would name, and no text is built.
    """
    kinds = dict(fmt.fields)
    refusals = _rule_refusals(fmt, columns, lambda name, i: kinds[name].write(columns[name][i]))
    refused = min(refusals, default=None)
    if refused is not None:
        i, _, message = refused
        # The line a reader ends the row on: a text field may hold a newline.
        reader = csv.reader(io.StringIO(_csv_rows(fmt, columns, i + 1), newline=""))
        for _ in reader:
            pass
        raise DataError(f"{path}:{reader.line_num}: {message}")
    return _csv_rows(fmt, columns, None)


def _csv_rows(fmt: RecordFormat, columns: Mapping[str, list], stop: int | None) -> str:
    """The header and rows ``:stop`` of ``columns``, as CSV text."""
    # The CSV writer itself writes ``str`` of a value that is not text.
    written = (
        columns[name] if kind.write is str else map(kind.write, columns[name])
        for name, kind in fmt.fields
    )
    return csv_text(fmt.columns, itertools.islice(zip(*written, strict=True), stop))


def _rule_refusals(fmt: RecordFormat, columns: Mapping[str, list], field: Callable[[str, int], str]):
    """``(row, order, message)`` of the first row each of ``fmt``'s rules
    refuses in ``columns`` (name -> list of values), in rule order;
    ``field(name, row)`` is the text the message quotes."""
    for order, (column, must, accepts) in enumerate(fmt.rules):
        accepted = np.asarray(accepts(columns), dtype=bool)
        if not accepted.all():
            i = int(np.argmin(accepted))
            yield i, order, f"{column} must {must}, got {field(column, i)!r}"


# The rows parsed at a time: a chunk's text is freed before the next is read.
_CHUNK = 4096


def read_records(path: str | Path, fmt: RecordFormat) -> tuple[dict[str, list], list[int]]:
    """The columns of the record file at ``path`` (name -> list of values)
    and each row's line in the file.

    Raises :class:`DataError` naming ``path`` for a file it cannot open or
    decode or a header other than ``fmt``'s, and ``path:line`` for the
    first refused row in file order: a row with another number of fields
    or that is not CSV; else, checked in this order, a field its kind
    cannot read, a broken rule, or a field other than its kind's text of
    the value read.
    """
    path = Path(path)
    columns: dict[str, list] = {name: [] for name in fmt.columns}
    lines: list[int] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(fmt.columns):
                raise DataError(f"{path}: unexpected {fmt.what} header {header!r}")
            broken = None
            while True:
                rows = []
                try:
                    for row in itertools.islice(reader, _CHUNK):
                        if len(row) != len(header):
                            broken = f"expected {len(header)} columns, got {len(row)}"
                            break
                        rows.append(row)
                        lines.append(reader.line_num)
                except csv.Error as exc:
                    broken = str(exc)
                parsed, refused = _parse(fmt, rows)
                if refused is not None:
                    i, message = refused
                    raise DataError(f"{path}:{lines[len(lines) - len(rows) + i]}: {message}")
                if broken is not None:
                    raise DataError(f"{path}:{reader.line_num}: {broken}")
                for name, values in parsed.items():
                    columns[name] += values
                if len(rows) < _CHUNK:
                    return columns, lines
    except OSError as exc:
        raise DataError(f"{path}: cannot read the {fmt.what}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def _parse(fmt: RecordFormat, rows: list[list[str]]) -> tuple[dict, tuple[int, str] | None]:
    """The columns of ``rows``, and the first refused row with its message,
    or ``None``.  Each distinct field of a column is read and checked once;
    each check yields its first refused row as ``(row, check, order,
    message)``, and the rules see the rows before the first unreadable field."""
    texts = {name: [row[j] for row in rows] for j, name in enumerate(fmt.columns)}
    refusals = []
    reads = {}
    for order, (name, kind) in enumerate(fmt.fields):
        if kind is TEXT:
            continue
        column = texts[name]
        distinct = list(dict.fromkeys(column))  # in the order of their first rows
        try:
            read = dict(zip(distinct, map(kind.read, distinct)))
        except (ValueError, LookupError):
            read = {}
            for text in distinct:
                try:
                    read[text] = kind.read(text)
                except (ValueError, LookupError):
                    message = f"{name} must be {kind.what}, got {text!r}"
                    refusals.append((column.index(text), 0, order, message))
                    break
        written = list(map(kind.write, read.values()))
        if written != distinct[: len(written)]:
            text, want = next(pair for pair in zip(distinct, written) if pair[0] != pair[1])
            message = f"{name} must be written {want!r}, got {text!r}"
            refusals.append((column.index(text), 2, order, message))
        reads[name] = read
    n = min((row for row, check, _, _ in refusals if check == 0), default=len(rows))
    columns = {}
    for name, column in texts.items():
        column = column[:n]
        columns[name] = list(map(reads[name].__getitem__, column)) if name in reads else column
    for i, order, message in _rule_refusals(fmt, columns, lambda name, i: texts[name][i]):
        refusals.append((i, 1, order, message))
    if not refusals:
        return columns, None
    i, _, _, message = min(refusals)
    return columns, (i, message)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the header ``columns`` followed by ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


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
