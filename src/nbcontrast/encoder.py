"""Trainable mean-pool document encoder with a triplet margin loss.

A document is tokenized (lowercased title, a separator token, abstract),
its token embedding rows are mean-pooled, and an affine projection maps
the pooled vector to the output space. Training minimizes
``max(||q - p|| - ||q - n|| + slack, 0)`` over mined triples with
minibatch SGD.

A bias-only mode freezes everything except the projection bias. Because
the loss depends only on differences of encoded vectors, the output bias
cancels out of every distance and its gradient is identically zero: the
mode trains legally but cannot change the encoder.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from . import graph_embed, snapshot
from .corpus import Document
from .errors import DataError, ValidationError
from .graph_embed import EmbeddingTable
from .mining import TripleSet

UNK = "<unk>"
SEP = "<sep>"


@dataclass
class EncoderParams:
    """Vocabulary, token embedding table, and affine projection."""

    vocab: dict[str, int]
    token_table: np.ndarray    # (V, hidden)
    projection: np.ndarray     # (hidden, out_dim)
    projection_bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        self.token_table = np.asarray(self.token_table, dtype=np.float64)
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.projection_bias = np.asarray(self.projection_bias, dtype=np.float64)
        for token in (UNK, SEP):
            if token not in self.vocab:
                raise ValidationError(f"vocab must reserve {token!r}")
        if self.token_table.shape[0] != len(self.vocab):
            raise ValidationError("token_table rows must match vocab size")
        if self.token_table.shape[1] != self.projection.shape[0]:
            raise ValidationError("token_table and projection dims disagree")
        if self.projection.shape[1] != self.projection_bias.shape[0]:
            raise ValidationError("projection and bias dims disagree")

    @property
    def hidden_dim(self) -> int:
        return int(self.token_table.shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.projection.shape[1])

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            vocab=dict(self.vocab),
            token_table=self.token_table.copy(),
            projection=self.projection.copy(),
            projection_bias=self.projection_bias.copy(),
        )


@dataclass
class EncoderTrainConfig:
    """Triplet training knobs; one SGD step per effective_batch triples."""

    epochs: int = 2
    learning_rate: float = 0.1
    effective_batch: int = 32
    slack: float = 1.0
    bias_only: bool = False
    hidden_dim: int = 64  # token embedding dimension
    out_dim: int = 32  # document vector dimension
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1: {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError(
                f"learning_rate must be finite and >= 0: {self.learning_rate}"
            )
        if self.effective_batch < 1:
            raise ValidationError(
                f"effective_batch must be >= 1: {self.effective_batch}"
            )
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise ValidationError(f"slack must be finite and >= 0: {self.slack}")
        if self.hidden_dim < 1 or self.out_dim < 1:
            raise ValidationError("encoder dims must be >= 1")


def tokenize(d: Document) -> list[str]:
    r"""Lowercase ``[a-z0-9]+`` words of the title, a separator, then the
    abstract's; any other character, once lowercased, separates words.

    >>> tokenize(Document(id="d", title="\u212aelvin-9 İx", abstract="a\x00b\ud800c"))
    ['kelvin', '9', 'i', 'x', '<sep>', 'a', 'b', 'c']
    """
    tokens = next(_text_blocks([d]))[:-1]
    return [SEP if token == _TITLE_END else token for token in tokens]


@dataclass(frozen=True)
class DocTokens:
    """Documents as CSR token rows: document ``ids[i]`` is the vocab ids
    ``flat[offsets[i]:offsets[i + 1]]``."""

    ids: tuple[str, ...]
    offsets: np.ndarray  # (documents + 1,) int64
    flat: np.ndarray     # int32

    def __len__(self) -> int:
        return len(self.ids)


def index_corpus(docs: Collection[Document]) -> tuple[dict[str, int], DocTokens]:
    """The documents' vocabulary, reserved ids 0 and 1 then every token
    sorted (so independent of document order), and their token rows under
    it, from one split of their text."""
    # a token's provisional id is its rank of first appearance, the markers' 0 and 1
    first = collections.defaultdict(None, {_TITLE_END: 0, _DOC_END: 1})
    first.default_factory = first.__len__
    ids = np.concatenate([
        np.fromiter(map(first.__getitem__, tokens), dtype=np.int32, count=len(tokens))
        for tokens in _text_blocks(docs)
    ] or [np.zeros(0, dtype=np.int32)])
    words = list(first)[2:]
    vocab = {token: i for i, token in enumerate([UNK, SEP, *sorted(words)])}
    remap = np.array([vocab[SEP], -1, *map(vocab.__getitem__, words)], dtype=np.int32)
    ids = remap[ids]
    ends = np.flatnonzero(ids < 0)
    # a document ends at its marker's position less the markers before it
    offsets = np.concatenate([[0], ends - np.arange(len(ends))])
    return vocab, DocTokens(tuple(d.id for d in docs), offsets, ids[ids >= 0])


def build_vocab(docs: Collection[Document]) -> dict[str, int]:
    """Vocabulary of :func:`index_corpus`."""
    return index_corpus(docs)[0]


def init_encoder(
    vocab: dict[str, int], hidden_dim: int = 64, out_dim: int = 32, seed: int = 0
) -> EncoderParams:
    """Gaussian init scaled by 1/sqrt(hidden_dim); zero projection bias."""
    if hidden_dim < 1 or out_dim < 1:
        raise ValueError("hidden_dim and out_dim must be >= 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden_dim)
    return EncoderParams(
        vocab=vocab,
        token_table=rng.normal(0.0, scale, size=(len(vocab), hidden_dim)),
        projection=rng.normal(0.0, scale, size=(hidden_dim, out_dim)),
        projection_bias=np.zeros(out_dim),
    )


def encode_corpus(
    docs: DocTokens, p: EncoderParams
) -> tuple[EmbeddingTable, dict[str, int]]:
    """Encode tokenized documents into a table plus an id-to-row mapping."""
    id_to_row = {pid: i for i, pid in enumerate(docs.ids)}
    values = _encode_rows(p, docs.offsets, docs.flat)
    return EmbeddingTable(values=values, measure="dot"), id_to_row


def triplet_loss(
    q: np.ndarray, p: np.ndarray, n: np.ndarray, slack: float
) -> float:
    """``max(||q - p|| - ||q - n|| + slack, 0)`` with plain L2 norms."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if not (q.shape == p.shape == n.shape):
        raise ValueError(
            f"vector shapes disagree: {q.shape}, {p.shape}, {n.shape}"
        )
    return float(max(
        np.linalg.norm(q - p) - np.linalg.norm(q - n) + slack, 0.0
    ))


# Characters tokenized at once: a block's words leave memory arenas partly used
TEXT_CAP = 1 << 14

# Marker words after each title and each document, as lowercased text has no
# ASCII capital; any other byte but [a-z0-9] (non-ASCII ones are >= 0x80) is a space.
_TITLE_END, _DOC_END = "S", "D"
_WORD_BYTES = bytes(c if c in b"abcdefghijklmnopqrstuvwxyz0123456789SD" else 32
                    for c in range(256))


def _text_blocks(docs: Iterable[Document]) -> Iterator[list[str]]:
    """Tokens of the documents, a block of at most TEXT_CAP characters (or
    one longer document) at a time: each document's title words,
    ``_TITLE_END``, its abstract words, then ``_DOC_END``."""
    parts, size = [], 0
    for d in docs:
        text = f"{d.title.lower()} {_TITLE_END} {d.abstract.lower()} {_DOC_END} "
        if parts and size + len(text) > TEXT_CAP:
            yield _split(parts)
            parts, size = [], 0
        parts.append(text)
        size += len(text)
    if parts:
        yield _split(parts)


def _split(parts: list[str]) -> list[str]:
    raw = "".join(parts).encode("utf-8", "surrogatepass")
    return raw.translate(_WORD_BYTES).decode("ascii").split()


def tokenize_corpus(docs: Collection[Document], vocab: Mapping[str, int]) -> DocTokens:
    """Token rows of the documents under a given vocabulary, such as a
    trained encoder's; a word outside it is ``<unk>``."""
    own, rows = index_corpus(docs)
    remap = np.array([vocab.get(token, vocab[UNK]) for token in own], dtype=np.int32)
    return DocTokens(rows.ids, rows.offsets, remap[rows.flat])


def _pool_chunks(
    table: np.ndarray, offsets: np.ndarray, flat: np.ndarray, items: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Mean-pool ``items`` (rows of CSR documents, read column by column) a
    chunk at a time, yielding each chunk's distinct token ids, its count
    matrix ``C`` (a row per document, a column per token, counts over the
    document's length) and ``C @ table[tokens]``, a table row per vocab id.
    A chunk of ``k`` items has ``r = k * width`` rows and at most ``min(vocab,
    r * max_tokens)`` columns; it takes as many items as fit in
    ``graph_embed.CELL_CAP``, and at least one."""
    width = items.shape[1]
    max_tokens = int((offsets[items + 1] - offsets[items]).max())
    cap = graph_embed.CELL_CAP
    step = max(1, cap // (width * len(table)), math.isqrt(cap // max_tokens) // width)
    mark, rank = np.zeros(len(table), dtype=bool), np.empty(len(table), dtype=np.intp)
    for start in range(0, len(items), step):
        docs = items[start:start + step].T.reshape(-1)
        starts = offsets[docs]
        lengths = offsets[docs + 1] - starts
        row = np.repeat(np.arange(len(docs)), lengths)
        # each token's position in ``flat``: its rank in ``row`` order,
        # shifted from its run's start there to its document's start
        shift = starts - np.cumsum(lengths) + lengths
        ids = flat[np.arange(row.size) + np.repeat(shift, lengths)]
        # the chunk's distinct ids ascending, and each id's rank among them
        mark[ids] = True
        tokens = np.flatnonzero(mark)
        mark[tokens] = False
        rank[tokens] = np.arange(len(tokens))
        col = rank[ids]
        c = np.bincount(row * len(tokens) + col, minlength=len(docs) * len(tokens))
        c = c.reshape(len(docs), len(tokens)) / lengths[:, None]
        yield tokens, c, c @ table[tokens]


def _encode_rows(p: EncoderParams, offsets: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Encoded vectors of every CSR document, pooled from the projected table."""
    out = np.empty((len(offsets) - 1, p.out_dim))
    projected = p.token_table @ p.projection
    start = 0
    for *_, pooled in _pool_chunks(projected, offsets, flat, np.arange(len(out))[:, None]):
        out[start:start + len(pooled)] = pooled + p.projection_bias
        start += len(pooled)
    return out


def _batch_loss_and_grads(
    p: EncoderParams, offsets: np.ndarray, flat: np.ndarray, triples: np.ndarray,
    slack: float, bias_only: bool = False,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """Summed hinge loss of ``(query, positive, negative)`` CSR document rows
    and its gradient ``(row_grads, d_projection, d_bias)``, one forward and
    one backward per chunk. ``row_grads`` holds each chunk's distinct token
    rows and their gradient; with ``bias_only`` it is empty and
    ``d_projection`` zero. Subgradient 0 at the hinge boundary and at
    zero-distance kinks."""
    loss = 0.0
    row_grads = []
    d_projection = np.zeros_like(p.projection)
    d_bias = np.zeros_like(p.projection_bias)
    for tokens, c, pooled in _pool_chunks(p.token_table, offsets, flat, triples):
        eq, ep, en = np.split(pooled @ p.projection + p.projection_bias, 3)
        diffs = np.stack([eq - ep, eq - en])
        norms = np.linalg.norm(diffs, axis=2)
        hinge = norms[0] - norms[1] + slack
        active = hinge > 0.0
        loss += float(hinge[active].sum())
        u_qp, u_qn = np.divide(diffs, norms[..., None], out=np.zeros_like(diffs),
                               where=(active & (norms > 0.0))[..., None])
        d_out = np.concatenate([u_qp - u_qn, -u_qp, u_qn])
        d_bias += d_out.sum(axis=0)
        if not bias_only:
            d_projection += pooled.T @ d_out
            row_grads.append((tokens, c.T @ (d_out @ p.projection.T)))
    return loss, row_grads, d_projection, d_bias


def train(
    ts: TripleSet,
    docs: DocTokens,
    params: EncoderParams,
    cfg: EncoderTrainConfig,
) -> list[float]:
    """Minibatch SGD over the triple set, updating ``params`` in place (its
    arrays are stepped, never copied); returns the loss trace.

    The triples' documents are read from ``docs``, the corpus split once
    per chain (see :func:`index_corpus`), tokenized under ``params.vocab``.
    Triples are reshuffled each epoch with a seed derived from
    ``(cfg.seed, epoch)``; every ``effective_batch`` triples, and the
    remainder at the end of the epoch, make one step that applies their
    mean gradient to the rows they touch. With ``bias_only`` the token
    table and projection stay untouched.
    """
    cfg.validate()
    n_triples = len(ts.triples)
    if n_triples == 0:
        raise ValueError("cannot train on an empty triple set")
    row = {pid: i for i, pid in enumerate(docs.ids)}
    try:
        triples = np.array([[row[t.query], row[t.positive], row[t.negative]]
                            for t in ts.triples], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"triple references missing document {exc.args[0]!r}") from None

    trace: list[float] = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(n_triples)
        epoch_loss = 0.0
        for start in range(0, n_triples, cfg.effective_batch):
            batch = triples[order[start:start + cfg.effective_batch]]
            loss, row_grads, d_projection, d_bias = _batch_loss_and_grads(
                params, docs.offsets, docs.flat, batch, cfg.slack, cfg.bias_only
            )
            epoch_loss += loss
            factor = cfg.learning_rate / len(batch)
            params.projection_bias -= d_bias * factor
            for rows, grads in row_grads:
                params.token_table[rows] -= grads * factor
            params.projection -= d_projection * factor
        trace.append(epoch_loss / n_triples)
    return trace


def grad_check(
    p: EncoderParams,
    docs: tuple[Document, Document, Document],
    slack: float,
    eps: float = 1e-5,
    bias_only: bool = False,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The analytic gradient is the training batch gradient of one triple.
    The fixture must sit away from kinks: loss strictly positive and both
    pair distances nonzero, otherwise the fixture is rejected.
    """
    doc_rows = tokenize_corpus(docs, p.vocab)
    offsets, flat = doc_rows.offsets, doc_rows.flat

    def loss_at(params: EncoderParams) -> float:
        return triplet_loss(*_encode_rows(params, offsets, flat), slack)

    q, pos, neg = _encode_rows(p, offsets, flat)
    if triplet_loss(q, pos, neg, slack) <= 0.0:
        raise ValueError("rejected fixture: loss not strictly positive")
    if np.linalg.norm(q - pos) == 0.0 or np.linalg.norm(q - neg) == 0.0:
        raise ValueError("rejected fixture: zero pair distance (norm kink)")

    _, row_grads, d_projection, d_bias = _batch_loss_and_grads(
        p, offsets, flat, np.array([[0, 1, 2]]), slack, bias_only
    )
    d_table = np.zeros_like(p.token_table)
    for rows, grads in row_grads:
        d_table[rows] += grads
    analytic = {"projection_bias": d_bias}
    if not bias_only:
        analytic.update(token_table=d_table, projection=d_projection)

    work = p.copy()
    max_err = 0.0
    for name, grad in analytic.items():
        values = getattr(work, name).reshape(-1)
        analytic_flat = grad.reshape(-1)
        for i in range(values.size):
            original = values[i]
            values[i] = original + eps
            up = loss_at(work)
            values[i] = original - eps
            down = loss_at(work)
            values[i] = original
            fd = (up - down) / (2.0 * eps)
            denom = max(abs(analytic_flat[i]), abs(fd))
            # central differences carry ~|loss| * 1e-16 / eps of roundoff, so
            # parameters with (near-)zero true gradient sit below this floor
            if denom < 1e-8:
                continue
            max_err = max(max_err, abs(analytic_flat[i] - fd) / denom)
    return max_err


# distinct from the ``NBE1`` embedding snapshot, so neither loader
# misreads the other's files
CHECKPOINT_MAGIC = b"NBC1"
_U32 = struct.Struct("<I")  # a vocab entry's byte length, then its UTF-8 bytes


def save_encoder(p: EncoderParams, path: str | Path) -> None:
    """Binary checkpoint: NBC1 header, weights, then length-prefixed vocab."""
    tokens = sorted(p.vocab, key=p.vocab.get)
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIB", len(tokens), p.hidden_dim, 0))
        fh.writelines(snapshot.blocks(p.token_table, "<f4"))
        fh.write(struct.pack("<I", p.out_dim))
        fh.writelines(snapshot.blocks(p.projection, "<f4"))
        fh.writelines(snapshot.blocks(p.projection_bias, "<f4"))
        fh.write(struct.pack("<I", len(tokens)))
        fh.writelines(_U32.pack(len(raw)) + raw for raw in map(str.encode, tokens))


def load_encoder(path: str | Path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_encoder`.

    A size in the header that runs past the end of the file, trailing
    bytes, a token that is not UTF-8 or an inconsistent vocabulary is a
    :class:`DataError`.
    """
    path = Path(path)
    with path.open("rb") as fh:

        def read(size: int) -> bytes:
            raw = fh.read(size)
            if len(raw) != size:
                raise DataError(f"{path}: truncated encoder checkpoint")
            return raw

        magic = read(4)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not an encoder checkpoint (magic {magic!r})")
        vocab_size, hidden, _ = struct.unpack("<IIB", read(9))
        token_table = snapshot.read_f4(fh, (vocab_size, hidden))
        (out_dim,) = struct.unpack("<I", read(4))
        projection = snapshot.read_f4(fh, (hidden, out_dim))
        bias = snapshot.read_f4(fh, (out_dim,))
        (n_tokens,) = struct.unpack("<I", read(4))
        data = fh.read()
    if n_tokens != vocab_size:
        raise DataError(f"{path}: vocab section length mismatch")
    pos = 0
    vocab: dict[str, int] = {}
    try:
        for i in range(n_tokens):
            (length,) = _U32.unpack_from(data, pos)
            pos += 4 + length
            if pos > len(data):
                raise DataError(f"{path}: truncated encoder checkpoint")
            vocab[data[pos - length:pos].decode("utf-8")] = i
        if pos != len(data):
            raise DataError(f"{path}: trailing bytes after the vocab section")
        return EncoderParams(
            vocab=vocab,
            token_table=token_table,
            projection=projection,
            projection_bias=bias,
        )
    except (struct.error, UnicodeDecodeError, ValidationError) as exc:
        raise DataError(f"{path}: bad vocab section: {exc}") from None


# distinct from the checkpoint's and the snapshot's magic
TOKENS_MAGIC = b"NBT1"
# key, documents, tokens
_TOKENS_HEAD = struct.Struct("<64sQQ")


def save_doc_tokens(docs: DocTokens, key: bytes, path: str | Path) -> None:
    """Token rows file: NBT1, the SHA-256 of the rest, then a header of
    ``key`` (64 bytes) and the document and token counts, the offsets
    (``<i8``), the token ids (``<i4``) and the document ids as a JSON list."""
    ids = json.dumps(docs.ids).encode("ascii")

    def pieces() -> Iterator[bytes | np.ndarray]:
        yield _TOKENS_HEAD.pack(key, len(docs), len(docs.flat))
        yield from snapshot.blocks(docs.offsets, "<i8")
        yield from snapshot.blocks(docs.flat, "<i4")
        yield ids

    digest = hashlib.sha256()
    for piece in pieces():
        digest.update(piece)
    with Path(path).open("wb") as fh:
        fh.write(TOKENS_MAGIC + digest.digest())
        fh.writelines(pieces())


def load_doc_tokens(path: str | Path, key: bytes) -> DocTokens:
    """Token rows written by :func:`save_doc_tokens` under ``key``.

    A file that fails its checksum or was written under another key is a
    :class:`DataError`.
    """
    raw = memoryview(Path(path).read_bytes())
    head, body = bytes(raw[:36]), raw[36:]
    if head != TOKENS_MAGIC + hashlib.sha256(body).digest():
        raise DataError(f"{path}: not an intact token rows file")
    stored, n_docs, n_tokens = _TOKENS_HEAD.unpack_from(body)
    if stored != key:
        raise DataError(f"{path}: written for other documents or another checkpoint")
    offsets = np.frombuffer(body, "<i8", n_docs + 1, _TOKENS_HEAD.size)
    flat = np.frombuffer(body, "<i4", n_tokens, _TOKENS_HEAD.size + offsets.nbytes)
    ids = json.loads(bytes(body[_TOKENS_HEAD.size + offsets.nbytes + flat.nbytes:]))
    return DocTokens(tuple(ids), offsets, flat)
