"""Atomic text writes and undecodable CSV files."""
from __future__ import annotations

import gc
import io
import os

import numpy as np
import pytest

from gatedpf import fileio
from gatedpf.errors import DataError
from gatedpf.fileio import atomic_write_text
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
