"""Binary embedding snapshot format and the block I/O it shares with
encoder checkpoints."""

import struct
import tracemalloc

import numpy as np
import pytest

from nbcontrast import graph_embed
from nbcontrast.encoder import SEP, UNK, init_encoder, load_encoder, save_encoder
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


@pytest.mark.parametrize("payload", [b"", b"\x00" * 64])
def test_huge_header_is_a_data_error(tmp_path, payload):
    # 2^32 - 1 rows of 2^32 - 1 columns: rejected against the file's size,
    # never allocated
    path = tmp_path / "huge.nbe"
    path.write_bytes(MAGIC + struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 0) + payload)
    with pytest.raises(DataError, match="payload"):
        read_snapshot(path)


def traced(fn, *args) -> tuple[int, int]:
    """Peak bytes allocated during ``fn(*args)`` and the bytes still held
    once it returned, by its result."""
    tracemalloc.start()
    try:
        result = fn(*args)  # alive while measured, so ``held`` counts it
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


class TestBlockIO:
    """Snapshots and checkpoints move their floats a block of at most
    ``CELL_CAP`` cells at a time: on a 20k x 64 table (10 MB against a 2 MB
    float64 block) a writer holds no more than one block, and a reader one
    block beyond the table it returns."""

    BLOCK = graph_embed.CELL_CAP * 8

    @pytest.fixture
    def params(self):
        vocab = {UNK: 0, SEP: 1, **{f"w{i}": i for i in range(2, 20_000)}}
        return init_encoder(vocab, hidden_dim=64, out_dim=8, seed=0)

    def test_writers_hold_one_block(self, tmp_path, params):
        table = EmbeddingTable(values=params.token_table)
        for write, obj in ((write_snapshot, table), (save_encoder, params)):
            peak, _ = traced(write, obj, tmp_path / "out.bin")
            assert peak < self.BLOCK, write.__name__

    def test_readers_hold_one_table_and_one_block(self, tmp_path, params):
        write_snapshot(EmbeddingTable(values=params.token_table), tmp_path / "t.nbe")
        save_encoder(params, tmp_path / "enc.bin")
        for read, name in ((read_snapshot, "t.nbe"), (load_encoder, "enc.bin")):
            peak, held = traced(read, tmp_path / name)
            assert held >= params.token_table.nbytes, read.__name__
            assert peak < held + self.BLOCK, read.__name__
