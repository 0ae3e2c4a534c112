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
from gatedpf.harness import (
    MetricsReport,
    RunMetrics,
    read_decision_log,
    read_metrics_long,
    write_decision_log,
    write_metrics_long,
)
from gatedpf.sensing import MeasurementLog, read_measurement_log, write_measurement_log


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
    path.write_text(record_text(TOY, columns, path), newline="")
    assert path.read_bytes() == (
        b'n,x,on,level,name\r\n0,0.1,1,,a\r\n9,nan,0,0.05,b\r\n9,2.5,0,,"a\nb"\r\n1,0.1,1,0.05,a\r\n'
    )
    back, lines = read_records(path, TOY)
    assert lines == [2, 3, 5, 6]
    assert back.keys() == columns.keys() and np.isnan(back["x"][1])
    assert {**back, "x": None} == {**columns, "x": None}


@pytest.mark.parametrize(
    "columns, line, message",
    [
        # A row after a text field that spans two lines ends on line 5.
        (
            {"n": [1, 2, 10], "x": [0.5] * 3, "on": [True] * 3, "level": [None] * 3, "name": ["a", "a\nb", "a"]},
            5, r"n must lie in \[0, 10\), got '10'",
        ),
        # The first refused row in file order, whatever its rule.
        (
            {"n": [1, 11, 1], "x": [0.5] * 3, "on": [True] * 3, "level": [None] * 3, "name": ["a", "a", "c"]},
            3, r"n must lie in \[0, 10\), got '11'",
        ),
        (
            {"n": [1, 1, 11], "x": [0.5] * 3, "on": [True] * 3, "level": [None] * 3, "name": ["a", "c", "a"]},
            3, r"name must be one of \('a', 'b', 'a\\nb'\), got 'c'",
        ),
    ],
)
def test_writer_refuses_what_its_reader_refuses(tmp_path, columns, line, message):
    # The writer names the line and message the reader would name in the
    # text written without the rules.
    path = tmp_path / "toy.csv"
    refused = rf"^{re.escape(str(path))}:{line}: {message}$"
    with pytest.raises(DataError, match=refused):
        record_text(TOY, columns, path)
    path.write_text(fileio._csv_rows(TOY, columns, None), newline="")
    with pytest.raises(DataError, match=refused):
        read_records(path, TOY)


def _decisions(statistic):
    # The writer takes any column mapping: here, lists of Python values.
    return {
        "k": [1, 1], "sensor_id": ["g", "g"], "link": [0, 0], "test_kind": ["fisher", "fisher"],
        "statistic": [0.5, statistic], "alpha": [0.05, 0.05], "rejected": [False, False],
        "auxiliary": [0.0, 0.0], "faulty": [False, False],
    }


def _log(value):
    return MeasurementLog([1, 1], ["l", "g"], [False, True], [0, 0], [0.04, value], [False, True])


def _report(mape_pct):
    runs = [(1, 1.0), (2, mape_pct)]
    return MetricsReport([RunMetrics("fisher", 0.05, seed, 1, 0, 1, 0, 50.0, mape) for seed, mape in runs])


# Each record writer, its reader, and its columns holding a value the
# reader refuses on line 3.
WRITERS = {
    "measurements": (
        lambda path, value: write_measurement_log(path, _log(value)), read_measurement_log,
        r"value must be finite and nonnegative, got 'inf'", float("inf"),
    ),
    "decisions": (
        lambda path, value: write_decision_log(path, _decisions(value)), read_decision_log,
        r"statistic must not be nan, got 'nan'", float("nan"),
    ),
    "metrics_long": (
        lambda path, value: write_metrics_long(path, _report(value)), read_metrics_long,
        r"mape_pct must be finite, or nan in a collapsed run or one with no decisions, got 'inf'",
        float("inf"),
    ),
}


@pytest.mark.parametrize("name", WRITERS)
def test_each_writer_writes_nothing_its_reader_refuses(tmp_path, name):
    write, read, message, refused = WRITERS[name]
    path = tmp_path / "out" / f"{name}.csv"
    write(path, 1.0)
    read(path)
    path.unlink()
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: {message}$"):
        write(path, refused)
    assert list(tmp_path.rglob("*")) == [path.parent]


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
