"""Trainable mean-pool document encoder with a triplet margin loss.

A document is tokenized (lowercased title, a separator token, abstract),
its token embedding rows are mean-pooled, and an affine projection maps
the pooled vector to the output space. Training minimizes
``max(||q - p|| - ||q - n|| + slack, 0)`` over mined triples with
minibatch SGD and gradient accumulation.

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
    """Triplet training knobs; effective_batch controls accumulation."""

    epochs: int = 2
    learning_rate: float = 0.1
    batch_size: int = 8
    effective_batch: int = 32
    slack: float = 1.0
    bias_only: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1: {self.epochs}")
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0: {self.learning_rate}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1: {self.batch_size}")
        if self.slack < 0:
            raise ValidationError(f"slack must be >= 0: {self.slack}")
        if self.effective_batch % self.batch_size != 0:
            raise ValidationError(
                f"effective_batch ({self.effective_batch}) must be a multiple "
                f"of batch_size ({self.batch_size})"
            )


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
    ids = token_ids(tokens, p.vocab)
    pooled = p.token_table[ids].mean(axis=0)
    return pooled @ p.projection + p.projection_bias


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


@dataclass
class _Grads:
    token_table: np.ndarray
    projection: np.ndarray
    projection_bias: np.ndarray

    @classmethod
    def zeros_like(cls, p: EncoderParams) -> "_Grads":
        return cls(
            token_table=np.zeros_like(p.token_table),
            projection=np.zeros_like(p.projection),
            projection_bias=np.zeros_like(p.projection_bias),
        )

    def add(self, other: "_Grads") -> None:
        self.token_table += other.token_table
        self.projection += other.projection
        self.projection_bias += other.projection_bias

    def scale(self, factor: float) -> None:
        self.token_table *= factor
        self.projection *= factor
        self.projection_bias *= factor


def _pooled(tokens: Sequence[str], p: EncoderParams) -> tuple[np.ndarray, list[int]]:
    ids = token_ids(tokens, p.vocab)
    return p.token_table[ids].mean(axis=0), ids


def _triple_loss_and_grads(
    p: EncoderParams,
    docs: tuple[Document, Document, Document],
    slack: float,
) -> tuple[float, _Grads]:
    """Loss of one triple and its full parameter gradient.

    Subgradient 0 at the hinge boundary and at zero-distance kinks.
    """
    token_lists = [tokenize(d) for d in docs]
    pooled_ids = [_pooled(tokens, p) for tokens in token_lists]
    encoded = [pool @ p.projection + p.projection_bias for pool, _ in pooled_ids]
    eq, ep, en = encoded

    d_qp = eq - ep
    d_qn = eq - en
    norm_qp = float(np.linalg.norm(d_qp))
    norm_qn = float(np.linalg.norm(d_qn))
    loss = norm_qp - norm_qn + slack
    grads = _Grads.zeros_like(p)
    if loss <= 0.0:
        return 0.0, grads

    u_qp = d_qp / norm_qp if norm_qp > 0.0 else np.zeros_like(d_qp)
    u_qn = d_qn / norm_qn if norm_qn > 0.0 else np.zeros_like(d_qn)
    d_encoded = [u_qp - u_qn, -u_qp, u_qn]

    for (pool, ids), d_out in zip(pooled_ids, d_encoded):
        grads.projection_bias += d_out
        grads.projection += np.outer(pool, d_out)
        d_pool = p.projection @ d_out
        contribution = d_pool / len(ids)
        for row in ids:
            grads.token_table[row] += contribution
    return float(loss), grads


def train(
    ts: TripleSet,
    docs: Mapping[str, Document],
    p0: EncoderParams,
    cfg: EncoderTrainConfig,
) -> tuple[EncoderParams, list[float]]:
    """Minibatch SGD over the triple set; returns params and a loss trace.

    Triples are reshuffled each epoch with a seed derived from
    ``(cfg.seed, epoch)``. Gradients accumulate across batches until
    ``effective_batch`` triples are seen, then one step applies their mean.
    With ``bias_only`` the token table and projection stay untouched.
    """
    cfg.validate()
    for t in ts.triples:
        for pid in (t.query, t.positive, t.negative):
            if pid not in docs:
                raise DataError(f"triple references missing document {pid!r}")

    params = p0.copy()
    trace: list[float] = []
    n_triples = len(ts.triples)
    if n_triples == 0:
        raise ValueError("cannot train on an empty triple set")

    for epoch in range(cfg.epochs):
        rng = np.random.default_rng((cfg.seed, epoch))
        order = rng.permutation(n_triples)
        epoch_loss = 0.0
        accum = _Grads.zeros_like(params)
        accum_count = 0

        def apply_step():
            nonlocal accum, accum_count
            if accum_count == 0:
                return
            accum.scale(cfg.learning_rate / accum_count)
            params.projection_bias -= accum.projection_bias
            if not cfg.bias_only:
                params.token_table -= accum.token_table
                params.projection -= accum.projection
            accum = _Grads.zeros_like(params)
            accum_count = 0

        for start in range(0, n_triples, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            for idx in batch:
                t = ts.triples[int(idx)]
                triple_docs = (docs[t.query], docs[t.positive], docs[t.negative])
                loss, grads = _triple_loss_and_grads(params, triple_docs, cfg.slack)
                epoch_loss += loss
                accum.add(grads)
                accum_count += 1
            if accum_count >= cfg.effective_batch:
                apply_step()
        apply_step()
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
    token_lists = [tokenize(d) for d in docs]

    def loss_at(params: EncoderParams) -> float:
        vecs = [encode_tokens(tokens, params) for tokens in token_lists]
        return triplet_loss(vecs[0], vecs[1], vecs[2], slack)

    base_loss = loss_at(p)
    vecs = [encode_tokens(tokens, p) for tokens in token_lists]
    if base_loss <= 0.0:
        raise ValueError("rejected fixture: loss not strictly positive")
    if (np.linalg.norm(vecs[0] - vecs[1]) == 0.0
            or np.linalg.norm(vecs[0] - vecs[2]) == 0.0):
        raise ValueError("rejected fixture: zero pair distance (norm kink)")

    _, grads = _triple_loss_and_grads(p, docs, slack)
    if bias_only:
        arrays = [("projection_bias", grads.projection_bias)]
    else:
        arrays = [
            ("token_table", grads.token_table),
            ("projection", grads.projection),
            ("projection_bias", grads.projection_bias),
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


_CKPT_MAGIC = b"NBE1"


def save_encoder(p: EncoderParams, path: str | Path) -> None:
    """Binary checkpoint: NBE1 header, weights, then length-prefixed vocab."""
    tokens = sorted(p.vocab, key=p.vocab.get)
    with Path(path).open("wb") as fh:
        fh.write(_CKPT_MAGIC)
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

    if read(4) != _CKPT_MAGIC:
        raise DataError(f"{path}: not an encoder checkpoint")
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
