"""Binary embedding snapshot format."""

import numpy as np
import pytest

from nbcontrast.errors import DataError
from nbcontrast.graph_embed import EmbeddingTable
from nbcontrast.snapshot import MAGIC, read_snapshot, write_snapshot


def test_roundtrip_float32_precision(tmp_path):
    rng = np.random.default_rng(0)
    table = EmbeddingTable(values=rng.normal(size=(7, 5)), measure="cosine")
    path = tmp_path / "t.nbe"
    write_snapshot(table, path)
    loaded = read_snapshot(path)
    assert loaded.rows == 7 and loaded.dim == 5
    assert loaded.measure == "cosine"
    assert loaded.values.dtype == np.float64
    np.testing.assert_array_equal(
        loaded.values, table.values.astype(np.float32).astype(np.float64)
    )


def test_header_layout(tmp_path):
    table = EmbeddingTable(values=np.zeros((2, 3)), measure="dot")
    path = tmp_path / "t.nbe"
    write_snapshot(table, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 3
    assert raw[12] == 0
    assert len(raw) == 13 + 2 * 3 * 4


def test_deterministic_bytes(tmp_path):
    table = EmbeddingTable(values=np.random.default_rng(1).normal(size=(4, 4)))
    a, b = tmp_path / "a.nbe", tmp_path / "b.nbe"
    write_snapshot(table, a)
    write_snapshot(table, b)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.nbe"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        read_snapshot(path)


def test_truncated_payload(tmp_path):
    table = EmbeddingTable(values=np.ones((3, 3)))
    path = tmp_path / "t.nbe"
    write_snapshot(table, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError, match="payload"):
        read_snapshot(path)


def test_every_truncation_is_a_data_error(tmp_path):
    table = EmbeddingTable(values=np.arange(6.0).reshape(2, 3), measure="cosine")
    full = tmp_path / "t.nbe"
    write_snapshot(table, full)
    raw = full.read_bytes()
    cut = tmp_path / "cut.nbe"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(DataError):
            read_snapshot(cut)
