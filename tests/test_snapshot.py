"""The array file layout, embedding snapshots, and the block I/O they
share with encoder checkpoints."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from nbcontrast import graph_embed
from nbcontrast.encoder import SEP, UNK, init_encoder, load_encoder, save_encoder
from nbcontrast.errors import DataError
from nbcontrast.graph_embed import EmbeddingTable
from nbcontrast.snapshot import (
    MAGIC, read_arrays, read_snapshot, write_arrays, write_snapshot,
)


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
    header = b'{"arrays":[["values","<f4",[2,3]]],"meta":{"measure":"dot"}}'
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:12], "little") == len(header)
    assert raw[12:12 + len(header)] == header
    assert len(raw) == 12 + len(header) + 2 * 3 * 4


def test_deterministic_bytes(tmp_path):
    table = EmbeddingTable(values=np.random.default_rng(1).normal(size=(4, 4)))
    a, b = tmp_path / "a.nbe", tmp_path / "b.nbe"
    write_snapshot(table, a)
    write_snapshot(table, b)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.nbe"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(DataError, match="not an array file .magic"):
        read_snapshot(path)


def test_older_snapshot_is_not_an_array_file(tmp_path):
    # the layout before one header: NBE1, u32 rows, u32 dim, u8 measure
    path = tmp_path / "old.nbe"
    path.write_bytes(b"NBE1" + struct.pack("<IIB", 2, 3, 0) + b"\x00" * 24)
    with pytest.raises(DataError, match="not an array file"):
        read_snapshot(path)


def test_truncated_payload(tmp_path):
    table = EmbeddingTable(values=np.ones((3, 3)))
    path = tmp_path / "t.nbe"
    write_snapshot(table, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError, match=r"arrays of 36 bytes, more than the file holds \(31\)"):
        read_snapshot(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "t.nbe"
    write_snapshot(EmbeddingTable(values=np.ones((3, 3))), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="1 trailing bytes after the arrays"):
        read_snapshot(path)


def test_every_truncation_is_a_data_error(tmp_path):
    table = EmbeddingTable(values=np.arange(6.0).reshape(2, 3), measure="cosine")
    full = tmp_path / "t.nbe"
    write_snapshot(table, full)
    raw = full.read_bytes()
    cut = tmp_path / "cut.nbe"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(DataError, match=f"^{cut}: "):
            read_snapshot(cut)


def header_of(path):
    """The header of an array file as JSON, and the array bytes after it."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[4:12], "little")
    return json.loads(raw[12:12 + length]), raw[12 + length:]


def array_file(path, header, body=b""):
    """Write an array file of ``header`` (a JSON value, or its raw bytes)
    and ``body``."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("ascii")
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header + body)


VALUES = {"values": ("<f4", np.float64)}


@pytest.mark.parametrize("payload", [b"", b"\x00" * 64])
def test_huge_header_is_a_data_error(tmp_path, payload):
    # 2^32 - 1 rows of 2^32 - 1 columns: rejected against the file's size,
    # never allocated
    path = tmp_path / "huge.nbe"
    array_file(path, {"arrays": [["values", "<f4", [2**32 - 1, 2**32 - 1]]],
                      "meta": {"measure": "dot"}}, payload)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="more than the file holds"):
            read_snapshot(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("length", [2**64 - 1, 2**40, 65])
def test_header_length_past_the_end_is_a_data_error(tmp_path, length):
    path = tmp_path / "t.nbe"
    write_snapshot(EmbeddingTable(values=np.ones((1, 1))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + length.to_bytes(8, "little") + raw[12:])
    with pytest.raises(DataError, match="truncated to 76 bytes, short of its header"):
        read_snapshot(path)


@pytest.mark.parametrize("header, message", [
    (b'{"arrays": [["values", "<f4", [1, 1]]], "meta": {', "bad header: Expecting"),
    (b'{"arrays": [["values", "<f4", [1, 1]]], "meta": {"measure": "\xff"}}',
     "bad header: 'ascii' codec"),
    (b"[" * 100_000, "bad header: maximum recursion depth"),
    (b'{"arrays": [["values", "<f4", [1, 1]]], "meta": {}} {}', "bad header: Extra data"),
    (b'[["values", "<f4", [1, 1]]]', "not an object of arrays and meta"),
    (b'{"arrays": [["values", "<f4", [1, 1]]]}', "not an object of arrays and meta"),
    (b'{"arrays": [["values", "<f4", [1, 1]]], "meta": [], "x": 1}',
     "not an object of arrays and meta"),
    (b'{"arrays": [["values", "<f4", [1, 1]]], "meta": ["dot"]}',
     "not an object of arrays and meta"),
    (b'{"arrays": {"values": ["<f4", [1, 1]]}, "meta": {}}', "not an object of arrays and meta"),
    (b'{"arrays": [["values", "<f4"]], "meta": {}}', "not an object of arrays and meta"),
    (b'{"arrays": [], "meta": {}}', "holds arrays [], expected [['values', '<f4']]"),
    (b'{"arrays": [["values", "<f8", [1, 1]]], "meta": {}}',
     "holds arrays [['values', '<f8']], expected [['values', '<f4']]"),
    (b'{"arrays": [["table", "<f4", [1, 1]]], "meta": {}}', "holds arrays [['table', '<f4']]"),
    (b'{"arrays": [["values", "<f4", [1, 1]], ["values", "<f4", [0]]], "meta": {}}',
     "holds arrays [['values', '<f4'], ['values', '<f4']]"),
    (b'{"arrays": [["values", "<f4", [1, -1]]], "meta": {}}', "shapes must be lists of"),
    (b'{"arrays": [["values", "<f4", [1, 1.0]]], "meta": {}}', "shapes must be lists of"),
    (b'{"arrays": [["values", "<f4", [1, true]]], "meta": {}}', "shapes must be lists of"),
    (b'{"arrays": [["values", "<f4", [1, "1"]]], "meta": {}}', "shapes must be lists of"),
    (b'{"arrays": [["values", "<f4", 1]], "meta": {}}', "shapes must be lists of"),
    (b'{"arrays": [["values", "<f4", [1, 1]]], "meta": {"measure": "l2"}}', "measure must be"),
    (b'{"arrays": [["values", "<f4", [1]]], "meta": {"measure": "dot"}}', "2D matrix"),
])
def test_bad_header_is_a_data_error(tmp_path, header, message):
    path = tmp_path / "t.nbe"
    array_file(path, header, b"\x00" * 4)
    with pytest.raises(DataError) as err:
        read_snapshot(path)
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)


def test_arrays_roundtrip(tmp_path):
    arrays = {"a": (np.arange(6).reshape(2, 3), "<i8"), "empty": (np.zeros((0, 4)), "<f4"),
              "b": (np.array([0.5, -1.0]), "<f8"), "c": (np.array([1, 2], np.int32), "<u2")}
    meta = {"note": "caf\u00e9 \ud800", "n": [1, None]}
    path = tmp_path / "a.bin"
    write_arrays(path, arrays, meta)
    header, _ = header_of(path)
    assert header == {"arrays": [["a", "<i8", [2, 3]], ["empty", "<f4", [0, 4]],
                                 ["b", "<f8", [2]], ["c", "<u2", [2]]], "meta": meta}
    got, got_meta = read_arrays(path, {"a": ("<i8", np.int64), "empty": ("<f4", np.float32),
                                       "b": ("<f8", np.float64), "c": ("<u2", np.int32)})
    assert got_meta == meta
    for name, (values, _) in arrays.items():
        np.testing.assert_array_equal(got[name], values)
        assert got[name].shape == values.shape
    assert [got[name].dtype for name in got] == [np.int64, np.float32, np.float64, np.int32]


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
    """Snapshots, checkpoints and the encoder's init move their floats a
    block of at most ``CELL_CAP`` cells at a time: on a 20k x 64 table (5 MB
    as float32, 10 MB as float64, against a 2 MB float64 block) a writer
    holds no more than one block, and a reader or init one block beyond the
    table it returns."""

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

    def test_init_holds_one_table_and_one_block(self, params):
        # the float64 draws are rounded a block at a time, never as one table
        peak, held = traced(init_encoder, params.vocab, 64, 8, 0)
        assert held >= params.token_table.nbytes
        assert peak < held + self.BLOCK

    def test_readers_hold_one_table_and_one_block(self, tmp_path, params):
        write_snapshot(EmbeddingTable(values=params.token_table), tmp_path / "t.nbe")
        save_encoder(params, tmp_path / "enc.bin")
        for read, name in ((read_snapshot, "t.nbe"), (load_encoder, "enc.bin")):
            peak, held = traced(read, tmp_path / name)
            assert held >= params.token_table.nbytes, read.__name__
            assert peak < held + self.BLOCK, read.__name__
