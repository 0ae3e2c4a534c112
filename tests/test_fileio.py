"""Atomic text writes, the record files' text rule, and undecodable CSV
files."""
from __future__ import annotations

import gc
import io
import os
import re

import numpy as np
import pytest

from gatedpf import fileio
from gatedpf.errors import DataError
from gatedpf.fileio import (
    FLAG,
    FLOAT,
    INT,
    LEVEL,
    TEXT,
    RecordFormat,
    atomic_write_text,
    int_range,
    one_of,
    read_records,
    record_text,
)
from gatedpf.harness import read_decision_log, read_metrics_long
from gatedpf.sensing import read_measurement_log


def test_writes_text_verbatim(tmp_path):
    path = atomic_write_text(tmp_path / "sub" / "a.csv", "x,y\r\n1,2\n")
    assert path.read_bytes() == b"x,y\r\n1,2\n"


def test_failed_replace_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    atomic_write_text(path, "old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(fileio.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_each_writer_gets_its_own_temp_file(tmp_path, monkeypatch):
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", recording_replace)
    atomic_write_text(tmp_path / "a.txt", "1\n")
    atomic_write_text(tmp_path / "a.txt", "2\n")
    assert len(set(sources)) == 2
    assert (tmp_path / "a.txt").read_text() == "2\n"


def test_permissions_match_a_plain_write(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    atomic = atomic_write_text(tmp_path / "atomic.txt", "x")
    assert (atomic.stat().st_mode & 0o777) == (plain.stat().st_mode & 0o777)


@pytest.mark.parametrize("read", [read_measurement_log, read_decision_log, read_metrics_long])
def test_undecodable_file_is_not_a_text_file(tmp_path, read):
    # Bytes that are not UTF-8, already in the header: the error names the
    # file, not a line.
    path = tmp_path / "log.csv"
    path.write_bytes(b"k,sensor_id,\xe9tat\n1,\xff\xfe,0\n")
    with pytest.raises(DataError, match=r"log\.csv: not a text file"):
        read(path)


def test_matrix_text_frees_its_buffer_at_once():
    # np.savetxt leaves its buffer in a reference cycle; a sweep writes one
    # matrix per run, and their text must not wait for the cyclic collector.
    def open_buffers():
        return {id(o) for o in gc.get_objects() if isinstance(o, io.StringIO) and not o.closed}

    gc.collect()
    gc.disable()
    try:
        before = open_buffers()
        assert fileio.matrix_csv_text(np.ones((2, 3))) == "1,1,1\n1,1,1\n"
        left = open_buffers() - before
    finally:
        gc.enable()
    assert not left


@pytest.mark.parametrize(
    "kind, value, text",
    [
        (INT, 7, "7"), (INT, -3, "-3"), (INT, 2**64 - 1, "18446744073709551615"),
        (FLOAT, 0.1, "0.1"), (FLOAT, 1e200, "1e+200"), (FLOAT, -0.0, "-0.0"), (FLOAT, float("inf"), "inf"),
        (FLAG, True, "1"), (FLAG, False, "0"),
        (LEVEL, None, ""), (LEVEL, 0.01, "0.01"),
        (TEXT, "a,b", "a,b"),
    ],
)
def test_each_kind_reads_what_it_writes(kind, value, text):
    assert kind.write(value) == text
    assert kind.read(text) == value and type(kind.read(text)) is type(value)


TOY = RecordFormat(
    "toy file",
    (("n", INT), ("x", FLOAT), ("on", FLAG), ("level", LEVEL), ("name", TEXT)),
    (int_range("n", 0, 10), one_of("name", ("a", "b", "a\nb"))),
)


# Chunks of one row, of two, and larger than every file here.
chunks = pytest.mark.parametrize("chunk", [1, 2, 4096])


@chunks
def test_record_file_round_trip(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(fileio, "_CHUNK", chunk)
    columns = {
        "n": [0, 9, 9, 1], "x": [0.1, float("nan"), 2.5, 0.1], "on": [True, False, False, True],
        "level": [None, 0.05, None, 0.05], "name": ["a", "b", "a\nb", "a"],
    }
    path = tmp_path / "toy.csv"
    path.write_text(record_text(TOY, columns), newline="")
    assert path.read_bytes() == (
        b'n,x,on,level,name\r\n0,0.1,1,,a\r\n9,nan,0,0.05,b\r\n9,2.5,0,,"a\nb"\r\n1,0.1,1,0.05,a\r\n'
    )
    back, lines = read_records(path, TOY)
    assert lines == [2, 3, 5, 6]
    assert back.keys() == columns.keys() and np.isnan(back["x"][1])
    assert {**back, "x": None} == {**columns, "x": None}


@pytest.mark.parametrize(
    "rows, line, message",
    [
        # The first refused row in file order, whatever its column or check.
        (["1,0.5,1,,a", "2,0.50,1,,a", "x,0.5,1,,a"], 3, "x must be written '0.5', got '0.50'"),
        (["1,0.5,1,,c", "x,0.5,1,,a"], 2, r"name must be one of \('a', 'b', 'a\\nb'\), got 'c'"),
        (["1,0.5,1,,a", "1,0.5,1,,a,z"], 3, "expected 5 columns, got 6"),
        (["1,0.5,1,,c", "1,0.5"], 2, r"name must be one of \('a', 'b', 'a\\nb'\), got 'c'"),
        (["1,0.5,1,,a", "01,0.5,1,,a", "1,0.5,1,,a", "01,0.5,1,,a"], 3, "n must be written '1', got '01'"),
        # Within a row: a field its kind cannot read, then a rule, then a
        # field in another form.
        (["11,0.50,2,,a"], 2, "on must be 0 or 1, got '2'"),
        (["11,0.50,1,,a"], 2, r"n must lie in \[0, 10\), got '11'"),
        (["1,0.5,1,0.010,a"], 2, "level must be written '0.01', got '0.010'"),
        (["1,0.5,1, ,a"], 2, "level must be a number or empty, got ' '"),
    ],
)
@chunks
def test_reader_names_the_first_refused_row(tmp_path, monkeypatch, chunk, rows, line, message):
    monkeypatch.setattr(fileio, "_CHUNK", chunk)
    path = tmp_path / "toy.csv"
    path.write_text("n,x,on,level,name\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:{line}: {message}$"):
        read_records(path, TOY)
