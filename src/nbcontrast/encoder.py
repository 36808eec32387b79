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

import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document
from .errors import DataError, ValidationError
from .graph_embed import EmbeddingTable
from .mining import TripleSet

UNK = "<unk>"
SEP = "<sep>"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


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
        if UNK not in self.vocab:
            raise ValidationError(f"vocab must reserve {UNK!r}")
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
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1: {self.epochs}")
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0: {self.learning_rate}")
        if self.effective_batch < 1:
            raise ValidationError(
                f"effective_batch must be >= 1: {self.effective_batch}"
            )
        if self.slack < 0:
            raise ValidationError(f"slack must be >= 0: {self.slack}")


def tokenize(d: Document) -> list[str]:
    """Lowercase word tokens of the title, a separator, then the abstract."""
    tokens = _TOKEN_RE.findall(d.title.lower())
    tokens.append(SEP)
    tokens.extend(_TOKEN_RE.findall(d.abstract.lower()))
    return tokens


def build_vocab(docs: Iterable[Document]) -> dict[str, int]:
    """Vocabulary over all document tokens, with reserved ids 0 and 1.

    Tokens are sorted so the mapping is independent of document order.
    """
    seen: set[str] = set()
    for doc in docs:
        seen.update(tokenize(doc))
    seen.discard(SEP)
    vocab = {UNK: 0, SEP: 1}
    for token in sorted(seen):
        vocab[token] = len(vocab)
    return vocab


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


def token_ids(tokens: Sequence[str], vocab: Mapping[str, int]) -> list[int]:
    unk = vocab[UNK]
    return [vocab.get(token, unk) for token in tokens]


def encode_tokens(tokens: Sequence[str], p: EncoderParams) -> np.ndarray:
    """Mean of token embedding rows, then the affine projection."""
    if not tokens:
        raise ValueError("cannot encode an empty token sequence")
    return _forward(p, token_ids(tokens, p.vocab))[1]


def encode(d: Document, p: EncoderParams) -> np.ndarray:
    """Encode one document into an out_dim vector."""
    return encode_tokens(tokenize(d), p)


def encode_corpus(
    docs: Sequence[Document], p: EncoderParams
) -> tuple[EmbeddingTable, dict[str, int]]:
    """Encode documents into a table plus an id-to-row mapping."""
    vectors = np.stack([encode(d, p) for d in docs])
    id_to_row = {d.id: i for i, d in enumerate(docs)}
    return EmbeddingTable(values=vectors, measure="dot"), id_to_row


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


def _forward(p: EncoderParams, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Pooled token rows of ``ids`` and their affine projection."""
    pooled = p.token_table[ids].mean(axis=0)
    return pooled, pooled @ p.projection + p.projection_bias


def _triple_loss_and_grads(
    p: EncoderParams,
    triple_ids: tuple[Sequence[int], Sequence[int], Sequence[int]],
    slack: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Loss of one triple and its gradient on the rows it touches.

    Takes the token ids of the query, positive and negative documents and
    returns ``(loss, rows, row_grads, d_projection, d_bias)``: ``rows`` are
    the distinct token rows, ``row_grads[i]`` the gradient of row
    ``rows[i]``, summed in query, positive, negative token order.
    Subgradient 0 at the hinge boundary and at zero-distance kinks.
    """
    forwards = [_forward(p, ids) for ids in triple_ids]
    (_, eq), (_, ep), (_, en) = forwards

    d_qp = eq - ep
    d_qn = eq - en
    norm_qp = float(np.linalg.norm(d_qp))
    norm_qn = float(np.linalg.norm(d_qn))
    loss = norm_qp - norm_qn + slack
    d_projection = np.zeros_like(p.projection)
    d_bias = np.zeros_like(p.projection_bias)
    if loss <= 0.0:
        no_rows = np.zeros(0, dtype=np.intp)
        return 0.0, no_rows, np.zeros((0, p.hidden_dim)), d_projection, d_bias

    u_qp = d_qp / norm_qp if norm_qp > 0.0 else np.zeros_like(d_qp)
    u_qn = d_qn / norm_qn if norm_qn > 0.0 else np.zeros_like(d_qn)
    d_encoded = [u_qp - u_qn, -u_qp, u_qn]

    contributions = []
    for (pool, _), ids, d_out in zip(forwards, triple_ids, d_encoded):
        d_bias += d_out
        d_projection += np.outer(pool, d_out)
        d_pool = p.projection @ d_out
        contributions.append(np.tile(d_pool / len(ids), len(ids)))
    rows, slots = np.unique(np.concatenate(triple_ids), return_inverse=True)
    row_grads = np.zeros((len(rows), p.hidden_dim))
    # flat cell indices take numpy's fast 1-D ufunc.at path; each cell still
    # sums its tokens in query, positive, negative order
    cells = slots[:, None] * p.hidden_dim + np.arange(p.hidden_dim)
    np.add.at(row_grads.reshape(-1), cells.reshape(-1), np.concatenate(contributions))
    return float(loss), rows, row_grads, d_projection, d_bias


def train(
    ts: TripleSet,
    docs: Mapping[str, Document],
    p0: EncoderParams,
    cfg: EncoderTrainConfig,
) -> tuple[EncoderParams, list[float]]:
    """Minibatch SGD over the triple set; returns params and a loss trace.

    Each document is tokenized once. Triples are reshuffled each epoch
    with a seed derived from ``(cfg.seed, epoch)``; every ``effective_batch``
    triples, and the remainder at the end of the epoch, make one step that
    applies their mean gradient. With ``bias_only`` the token table and
    projection stay untouched.
    """
    cfg.validate()
    ids: dict[str, list[int]] = {}
    for t in ts.triples:
        for pid in (t.query, t.positive, t.negative):
            if pid not in docs:
                raise DataError(f"triple references missing document {pid!r}")
            if pid not in ids:
                ids[pid] = token_ids(tokenize(docs[pid]), p0.vocab)

    params = p0.copy()
    trace: list[float] = []
    n_triples = len(ts.triples)
    if n_triples == 0:
        raise ValueError("cannot train on an empty triple set")

    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(n_triples)
        epoch_loss = 0.0
        for start in range(0, n_triples, cfg.effective_batch):
            batch = order[start:start + cfg.effective_batch]
            d_table = np.zeros_like(params.token_table)
            d_projection = np.zeros_like(params.projection)
            d_bias = np.zeros_like(params.projection_bias)
            for idx in batch:
                t = ts.triples[int(idx)]
                triple_ids = (ids[t.query], ids[t.positive], ids[t.negative])
                loss, rows, row_grads, g_projection, g_bias = _triple_loss_and_grads(
                    params, triple_ids, cfg.slack
                )
                epoch_loss += loss
                d_table[rows] += row_grads
                d_projection += g_projection
                d_bias += g_bias
            factor = cfg.learning_rate / len(batch)
            params.projection_bias -= d_bias * factor
            if not cfg.bias_only:
                params.token_table -= d_table * factor
                params.projection -= d_projection * factor
        trace.append(epoch_loss / n_triples)
    return params, trace


def grad_check(
    p: EncoderParams,
    docs: tuple[Document, Document, Document],
    slack: float,
    eps: float = 1e-5,
    bias_only: bool = False,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The fixture must sit away from kinks: loss strictly positive and both
    pair distances nonzero, otherwise the fixture is rejected.
    """
    triple_ids = tuple(token_ids(tokenize(d), p.vocab) for d in docs)

    def loss_at(params: EncoderParams) -> float:
        vecs = [_forward(params, ids)[1] for ids in triple_ids]
        return triplet_loss(vecs[0], vecs[1], vecs[2], slack)

    vecs = [_forward(p, ids)[1] for ids in triple_ids]
    if triplet_loss(vecs[0], vecs[1], vecs[2], slack) <= 0.0:
        raise ValueError("rejected fixture: loss not strictly positive")
    if (np.linalg.norm(vecs[0] - vecs[1]) == 0.0
            or np.linalg.norm(vecs[0] - vecs[2]) == 0.0):
        raise ValueError("rejected fixture: zero pair distance (norm kink)")

    _, rows, row_grads, d_projection, d_bias = _triple_loss_and_grads(
        p, triple_ids, slack
    )
    if bias_only:
        arrays = [("projection_bias", d_bias)]
    else:
        d_table = np.zeros_like(p.token_table)
        d_table[rows] = row_grads
        arrays = [
            ("token_table", d_table),
            ("projection", d_projection),
            ("projection_bias", d_bias),
        ]

    work = p.copy()
    max_err = 0.0
    for name, analytic in arrays:
        target = getattr(work, name)
        flat = target.reshape(-1)
        analytic_flat = np.asarray(analytic).reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            up = loss_at(work)
            flat[i] = original - eps
            down = loss_at(work)
            flat[i] = original
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


def save_encoder(p: EncoderParams, path: str | Path) -> None:
    """Binary checkpoint: NBC1 header, weights, then length-prefixed vocab."""
    tokens = sorted(p.vocab, key=p.vocab.get)
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIB", len(tokens), p.hidden_dim, 0))
        fh.write(np.ascontiguousarray(p.token_table, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", p.out_dim))
        fh.write(np.ascontiguousarray(p.projection, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(p.projection_bias, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", len(tokens)))
        for token in tokens:
            raw = token.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def load_encoder(path: str | Path) -> EncoderParams:
    """Read a checkpoint written by :func:`save_encoder`.

    A size in the header that runs past the end of the file, trailing
    bytes, a token that is not UTF-8 or an inconsistent vocabulary is a
    :class:`DataError`.
    """
    path = Path(path)
    raw = memoryview(path.read_bytes())
    pos = 0

    def read(size: int) -> memoryview:
        nonlocal pos
        if size > len(raw) - pos:
            raise DataError(f"{path}: truncated encoder checkpoint")
        pos += size
        return raw[pos - size:pos]

    def floats(count: int) -> np.ndarray:
        return np.frombuffer(read(count * 4), dtype="<f4").astype(np.float64)

    magic = bytes(read(4))
    if magic != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not an encoder checkpoint (magic {magic!r})")
    vocab_size, hidden, _ = struct.unpack("<IIB", read(9))
    token_table = floats(vocab_size * hidden).reshape(vocab_size, hidden)
    (out_dim,) = struct.unpack("<I", read(4))
    projection = floats(hidden * out_dim).reshape(hidden, out_dim)
    bias = floats(out_dim)
    (n_tokens,) = struct.unpack("<I", read(4))
    if n_tokens != vocab_size:
        raise DataError(f"{path}: vocab section length mismatch")
    vocab: dict[str, int] = {}
    try:
        for i in range(n_tokens):
            (length,) = struct.unpack("<I", read(4))
            vocab[str(read(length), "utf-8")] = i
        if pos != len(raw):
            raise DataError(f"{path}: trailing bytes after the vocab section")
        return EncoderParams(
            vocab=vocab,
            token_table=token_table,
            projection=projection,
            projection_bias=bias,
        )
    except (UnicodeDecodeError, ValidationError) as exc:
        raise DataError(f"{path}: bad vocab section: {exc}") from None
