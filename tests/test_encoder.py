"""Document encoder: tokenization, triplet loss, training, gradients."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbcontrast import encoder, graph_embed
from nbcontrast.corpus import Document
from nbcontrast.encoder import (
    CHECKPOINT_MAGIC,
    SEP,
    UNK,
    EncoderParams,
    EncoderTrainConfig,
    build_vocab,
    encode_corpus,
    grad_check,
    index_corpus,
    init_encoder,
    load_doc_tokens,
    load_encoder,
    save_doc_tokens,
    save_encoder,
    tokenize,
    tokenize_corpus,
    train,
    triplet_loss,
)
from nbcontrast.errors import DataError, ValidationError
from nbcontrast.fixtures import FixtureConfig, two_topic_documents
from nbcontrast.graph_embed import EmbeddingTable
from nbcontrast.mining import SamplingConfig, TripleSet, triple_array
from nbcontrast.snapshot import read_snapshot, write_snapshot


def token_ids(tokens, vocab):
    """Test-local id lookup: a token outside the vocabulary is ``<unk>``."""
    return [vocab.get(token, vocab[UNK]) for token in tokens]


def encode_tokens(tokens, p):
    """Test-local encoder of one token sequence through the package's pooling."""
    ids = token_ids(tokens, p.vocab)
    return encoder._encode_rows(p, np.array([0, len(ids)]), np.array(ids))[0]


def corpus_rows(docs, p):
    """Token rows of a ``{id: Document}`` mapping under ``p``'s vocabulary."""
    return tokenize_corpus(docs.values(), p.vocab)


def reference_tokens(d):
    """Test-local tokenizer: the regex over each lowercased field on its own."""
    words = re.compile(r"[a-z0-9]+").findall
    return words(d.title.lower()) + [SEP] + words(d.abstract.lower())


# any text, plus characters that lowercase to ASCII (Kelvin sign, dotted
# capital I), separators (NUL, lone surrogates) and the marker letters
TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from("\u212a\u0130\x00\ud800\udfffSDsd 9")),
    max_size=30,
)


class TestTokenize:
    def test_title_sep_abstract(self):
        doc = Document(id="d", title="A B", abstract="c")
        assert tokenize(doc) == ["a", "b", SEP, "c"]

    def test_empty_abstract(self):
        doc = Document(id="d", title="Only Title", abstract="")
        assert tokenize(doc) == ["only", "title", SEP]

    def test_punctuation_stripped(self):
        doc = Document(id="d", title="Graph-based, search!", abstract="k=25; ok.")
        assert tokenize(doc) == ["graph", "based", "search", SEP, "k", "25", "ok"]

    def test_oov_maps_to_unk(self):
        vocab = {UNK: 0, SEP: 1, "known": 2}
        doc = Document(id="d", title="Known mystery", abstract="")
        rows = tokenize_corpus([doc], vocab)
        assert rows.offsets.tolist() == [0, 3] and rows.flat.tolist() == [2, 0, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(TEXT.filter(bool), TEXT), max_size=12), st.integers(1, 80))
    def test_blocks_match_per_document_regex(self, fields, cap):
        docs = [Document(id=str(i), title=title, abstract=abstract)
                for i, (title, abstract) in enumerate(fields)]
        expect = [reference_tokens(d) for d in docs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoder, "TEXT_CAP", cap)
            assert [tokenize(d) for d in docs] == expect
            vocab = build_vocab(docs)
            assert list(vocab) == [UNK, SEP, *sorted({t for ts in expect for t in ts} - {SEP})]
            # the corpus's own rows from the same split as its vocabulary
            own, doc_rows = index_corpus(docs)
            # half the documents' vocabulary, so the rest map to <unk>
            vocab = build_vocab(docs[::2])
            rows = tokenize_corpus(docs, vocab)
        assert rows.offsets.tolist() == np.cumsum([0, *map(len, expect)]).tolist()
        assert rows.flat.tolist() == token_ids([t for ts in expect for t in ts], vocab)
        assert doc_rows.ids == rows.ids == tuple(d.id for d in docs)
        assert doc_rows.offsets.tolist() == rows.offsets.tolist()
        assert doc_rows.flat.tolist() == token_ids([t for ts in expect for t in ts], own)
        assert rows.flat.dtype == doc_rows.flat.dtype == np.int32

    def test_blocks_hold_documents_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(encoder, "TEXT_CAP", 64)
        # 14 characters per short document: "ab cd ", " S ", "ef" and " D "
        short = [Document(id=f"s{i}", title="Ab cd ", abstract="ef") for i in range(9)]
        long = Document(id="long", title="word " * 30, abstract="")
        ids = []
        blocks = list(encoder._text_blocks(short[:5] + [long] + short[5:], ids))
        ends = [block.count(encoder._DOC_END) for block in blocks]
        # 64 characters hold 4 short documents; the long one is a block alone
        assert ends == [4, 1, 1, 4]
        assert blocks[2] == [b"word"] * 30 + [encoder._TITLE_END, encoder._DOC_END]
        assert ids == [d.id for d in short[:5] + [long] + short[5:]]


class TestEncode:
    def tiny_params(self):
        return EncoderParams(
            vocab={UNK: 0, SEP: 1, "a": 2, "b": 3},
            token_table=np.array(
                [[0.1, -0.2], [0.05, 0.3], [0.4, -0.1], [-0.3, 0.2]]
            ),
            projection=np.array([[1.0, 0.5], [-0.25, 0.75]]),
            projection_bias=np.array([0.01, -0.02]),
        )

    def test_single_token_is_projected_row(self):
        p = self.tiny_params()
        got = encode_tokens(["a"], p)
        expect = p.token_table[2] @ p.projection + p.projection_bias
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_hand_computed_two_token_fixture(self):
        p = self.tiny_params()
        # mean of rows for "a" and "b", then the affine map, by hand
        pooled = [(0.4 + -0.3) / 2, (-0.1 + 0.2) / 2]          # (0.05, 0.05)
        expect = [
            pooled[0] * 1.0 + pooled[1] * -0.25 + 0.01,         # 0.0475
            pooled[0] * 0.5 + pooled[1] * 0.75 + -0.02,         # 0.0425
        ]
        got = encode_tokens(["a", "b"], p)
        np.testing.assert_allclose(got, expect, atol=1e-15)
        assert abs(expect[0] - 0.0475) < 1e-12

    def test_token_multiset_permutation_invariance(self):
        p = self.tiny_params()
        d1 = Document(id="1", title="a b", abstract="a")
        d2 = Document(id="2", title="a a", abstract="b")
        table, _ = encode_corpus(tokenize_corpus([d1, d2], p.vocab), p)
        np.testing.assert_allclose(table.values[0], table.values[1], atol=1e-15)

    def test_vocab_must_reserve_unk(self):
        with pytest.raises(ValidationError):
            EncoderParams(
                vocab={"a": 0},
                token_table=np.zeros((1, 2)),
                projection=np.zeros((2, 2)),
                projection_bias=np.zeros(2),
            )


def counting(pool_chunks, sizes):
    """``pool_chunks`` that also appends each chunk's document count to ``sizes``."""
    def wrapped(*args):
        for chunk in pool_chunks(*args):
            sizes.append(len(chunk[1]))
            yield chunk
    return wrapped


def mean_pool_reference(docs, p):
    """Test-local encoder: one document at a time, mean of its rows."""
    return np.stack([
        p.token_table[token_ids(tokenize(d), p.vocab)].mean(axis=0) @ p.projection
        + p.projection_bias
        for d in docs
    ])


class TestEncodeCorpus:
    def corpus(self):
        """Documents of 2 to 24 tokens, ids out of sorted order, some OOV words."""
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(40)]
        vocab = build_vocab([Document(id="v", title=" ".join(words[:30]), abstract="")])
        docs = []
        for i in rng.permutation(25):
            picks = rng.choice(words, size=int(rng.integers(1, 24)))
            docs.append(Document(id=f"d{i}", title=" ".join(picks[:2]),
                                 abstract=" ".join(picks[2:])))
        return docs, init_encoder(vocab, hidden_dim=5, out_dim=3, seed=1).copy(np.float64)

    @pytest.mark.parametrize("cap, block", [
        (None, 25),       # the default cap holds the corpus in one block
        (32 * 7, 7),      # 7 docs by the vocab's 32 columns
        (32, 1),          # a block holds one document
        (1, 1),           # one document alone passes the cap
    ])
    def test_matches_per_document_reference(self, monkeypatch, cap, block):
        docs, p = self.corpus()
        if cap is not None:
            monkeypatch.setattr(graph_embed, "CELL_CAP", cap)
        sizes = []
        monkeypatch.setattr(encoder, "_pool_chunks",
                            counting(encoder._pool_chunks, sizes))
        table, id_to_row = encode_corpus(tokenize_corpus(docs, p.vocab), p)
        assert sizes == [block] * (25 // block) + [25 % block] * (25 % block > 0)
        # rows follow the input order, not the ids' sorted order
        assert id_to_row == {d.id: i for i, d in enumerate(docs)}
        np.testing.assert_allclose(
            table.values, mean_pool_reference(docs, p), rtol=0, atol=1e-12
        )
        for i in (0, 13, 24):
            alone, _ = encode_corpus(tokenize_corpus([docs[i]], p.vocab), p)
            np.testing.assert_allclose(alone.values[0], table.values[i],
                                       rtol=0, atol=1e-12)

    def test_holds_one_float64_table(self, monkeypatch):
        # 20k documents x 64: the float64 table is 10.2 MB, a float32 copy
        # of it 5.1 MB; a small cap keeps the chunks' temporaries small
        monkeypatch.setattr(graph_embed, "CELL_CAP", 1 << 12)
        n, vocab_size = 20_000, 5_000
        vocab = {UNK: 0, SEP: 1, **{f"w{i}": i for i in range(2, vocab_size)}}
        params = init_encoder(vocab, hidden_dim=16, out_dim=64, seed=0)
        rng = np.random.default_rng(0)
        offsets = np.concatenate([[0], np.cumsum(rng.integers(1, 12, size=n))])
        flat = rng.integers(0, vocab_size, size=offsets[-1]).astype(np.int32)
        docs = encoder.DocTokens(tuple(f"d{i}" for i in range(n)), offsets, flat)
        tracemalloc.start()
        try:
            table, id_to_row = encode_corpus(docs, params)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        projected = vocab_size * 64 * 4
        assert table.values.dtype == np.float64
        # beyond the table and id map it returns: the projected table plus
        # per-document index arrays, not a float32 copy of the table
        assert held >= table.values.nbytes
        assert peak < held + projected + table.values.nbytes // 4


class TestPoolChunks:
    @pytest.mark.parametrize("cap", [None, 3 * 50 * 3, 1])  # 9, 3 and 1 items a chunk
    def test_matches_a_sorting_reference(self, monkeypatch, cap):
        vocab = 50
        rng = np.random.default_rng(3)
        rows = [rng.integers(0, vocab, size=int(rng.integers(1, 12))) for _ in range(20)]
        rows[0] = np.array([vocab - 1, 0, 0, 7])  # the first and last vocab ids
        rows[1] = rng.permutation(vocab)          # every vocab id
        offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        flat = np.concatenate(rows).astype(np.int32)
        items = rng.integers(2, 20, size=(9, 3))
        items[0] = [4, 1, 0]  # the only item with row 1
        table = rng.normal(size=(vocab, 4))
        if cap is not None:
            monkeypatch.setattr(graph_embed, "CELL_CAP", cap)
        start, touched_all = 0, False
        for tokens, c, lengths, pooled in encoder._pool_chunks(table, offsets, flat, items):
            docs = items[start:start + len(c) // 3].T.reshape(-1)
            start += len(docs) // 3
            ids = [rows[d] for d in docs]
            expect_tokens, col = np.unique(np.concatenate(ids), return_inverse=True)
            row = np.repeat(np.arange(len(docs)), [len(r) for r in ids])
            expect_c = np.zeros((len(docs), len(expect_tokens)))
            np.add.at(expect_c, (row, col), 1.0)
            expect_lengths = np.array([len(r) for r in ids])[:, None]
            np.testing.assert_array_equal(tokens, expect_tokens)
            np.testing.assert_array_equal(c, expect_c)
            np.testing.assert_array_equal(lengths, expect_lengths)
            np.testing.assert_allclose(
                pooled, expect_c / expect_lengths @ table[expect_tokens], atol=1e-12
            )
            touched_all |= len(tokens) == vocab
        assert start == len(items) and touched_all


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        q = np.array([0.0, 0.0])
        p = q.copy()
        n = np.array([2.0, 0.0])
        assert triplet_loss(q, p, n, 1.0) == 0.0

    def test_identical_distances_leave_slack(self):
        q = np.array([1.0, 1.0])
        p = np.array([0.0, 0.0])
        assert triplet_loss(q, p, p, 1.0) == 1.0

    def test_hand_computed_value(self):
        q = np.array([0.0, 0.0])
        p = np.array([3.0, 4.0])
        n = np.array([1.0, 0.0])
        assert triplet_loss(q, p, n, 1.0) == 5.0

    def test_nonnegative_and_zero_beyond_slack(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q, p, n = rng.normal(size=(3, 4))
            slack = float(rng.uniform(0, 2))
            loss = triplet_loss(q, p, n, slack)
            assert loss >= 0.0
            if np.linalg.norm(q - n) >= np.linalg.norm(q - p) + slack:
                assert loss == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 1.0)


def reference_loss(params_arrays, vocab, docs, slack):
    """Test-local mean-pool encoder + triplet loss, no production code."""
    token_table, projection, bias = params_arrays

    def enc(doc):
        import re
        tokens = re.findall(r"[a-z0-9]+", doc.title.lower())
        tokens.append(SEP)
        tokens.extend(re.findall(r"[a-z0-9]+", doc.abstract.lower()))
        rows = [token_table[vocab.get(t, vocab[UNK])] for t in tokens]
        pooled = np.mean(rows, axis=0)
        return pooled @ projection + bias

    eq, ep, en = (enc(d) for d in docs)
    return max(
        float(np.linalg.norm(eq - ep)) - float(np.linalg.norm(eq - en)) + slack, 0.0
    )


def triple_set(rows):
    """A triple set of ``(query, positive, negative, kind, strategy)`` rows."""
    return TripleSet(triple_array(*zip(*rows)), SamplingConfig())


def dense_reference_train(ts, docs, p0, cfg):
    """Test-local trainer: a dense gradient table per triple, one step per
    ``effective_batch`` triples applying their mean."""
    table = p0.token_table.copy()
    projection = p0.projection.copy()
    bias = p0.projection_bias.copy()
    trace = []
    n_triples = len(ts.triples)
    for epoch in range(cfg.epochs):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(n_triples)
        epoch_loss = 0.0
        for start in range(0, n_triples, cfg.effective_batch):
            batch = order[start:start + cfg.effective_batch]
            accum = [np.zeros_like(table), np.zeros_like(projection),
                     np.zeros_like(bias)]
            for idx in batch:
                t = ts.triples[int(idx)]
                id_lists = [token_ids(tokenize(docs[d]), p0.vocab)
                            for d in (t.query, t.positive, t.negative)]
                pools = [table[ids].mean(axis=0) for ids in id_lists]
                eq, ep, en = (pool @ projection + bias for pool in pools)
                norm_qp = float(np.linalg.norm(eq - ep))
                norm_qn = float(np.linalg.norm(eq - en))
                loss = norm_qp - norm_qn + cfg.slack
                grads = [np.zeros_like(a) for a in accum]
                if loss > 0.0:
                    epoch_loss += loss
                    u_qp = (eq - ep) / norm_qp if norm_qp > 0.0 else np.zeros_like(eq)
                    u_qn = (eq - en) / norm_qn if norm_qn > 0.0 else np.zeros_like(eq)
                    for pool, ids, d_out in zip(pools, id_lists,
                                                [u_qp - u_qn, -u_qp, u_qn]):
                        grads[2] += d_out
                        grads[1] += np.outer(pool, d_out)
                        contribution = (projection @ d_out) / len(ids)
                        for row in ids:
                            grads[0][row] += contribution
                for a, g in zip(accum, grads):
                    a += g
            for a in accum:
                a *= cfg.learning_rate / len(batch)
            bias -= accum[2]
            if not cfg.bias_only:
                table -= accum[0]
                projection -= accum[1]
        trace.append(epoch_loss / n_triples)
    return table, projection, bias, trace


class TestTrain:
    def fixture(self):
        vocab = {UNK: 0, SEP: 1, "a": 2, "b": 3}
        params = EncoderParams(
            vocab=vocab,
            token_table=np.array(
                [[0.1, -0.2], [0.05, 0.3], [0.4, -0.1], [-0.3, 0.2]]
            ),
            projection=np.array([[1.0, 0.5], [-0.25, 0.75]]),
            projection_bias=np.array([0.01, -0.02]),
        )
        docs = {
            "q": Document(id="q", title="a", abstract=""),
            "p": Document(id="p", title="b", abstract=""),
            "n": Document(id="n", title="a b", abstract=""),
        }
        ts = triple_set([("q", "p", "n", "easy", "random")])
        return params, docs, ts

    def test_zero_learning_rate_freezes_everything(self):
        params, docs, ts = self.fixture()
        cfg = EncoderTrainConfig(epochs=3, learning_rate=0.0,
                                 effective_batch=1, seed=0)
        out = params.copy()
        trace = train(ts, corpus_rows(docs, params), out, cfg)
        np.testing.assert_array_equal(out.token_table, params.token_table)
        np.testing.assert_array_equal(out.projection, params.projection)
        np.testing.assert_array_equal(out.projection_bias, params.projection_bias)
        assert len(set(trace)) == 1  # flat loss trace

    def test_one_step_matches_finite_difference_oracle(self):
        params, docs, ts = self.fixture()
        lr = 0.05
        slack = 1.0
        cfg = EncoderTrainConfig(epochs=1, learning_rate=lr,
                                 effective_batch=1, slack=slack, seed=0)
        triple_docs = (docs["q"], docs["p"], docs["n"])

        base = reference_loss(
            (params.token_table, params.projection, params.projection_bias),
            params.vocab, triple_docs, slack,
        )
        assert base > 0.0  # hinge active so the step is nonzero

        # central differences of the test-local loss over every parameter
        eps = 1e-6
        arrays = [params.token_table.copy(), params.projection.copy(),
                  params.projection_bias.copy()]
        grads = [np.zeros_like(a) for a in arrays]
        for a_i, arr in enumerate(arrays):
            flat = arr.reshape(-1)
            grad_flat = grads[a_i].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = reference_loss(arrays, params.vocab, triple_docs, slack)
                flat[j] = orig - eps
                down = reference_loss(arrays, params.vocab, triple_docs, slack)
                flat[j] = orig
                grad_flat[j] = (up - down) / (2 * eps)

        out = params.copy()
        trace = train(ts, corpus_rows(docs, params), out, cfg)
        assert abs(trace[0] - base) < 1e-12
        np.testing.assert_allclose(
            out.token_table, params.token_table - lr * grads[0], atol=1e-8
        )
        np.testing.assert_allclose(
            out.projection, params.projection - lr * grads[1], atol=1e-8
        )
        np.testing.assert_allclose(
            out.projection_bias, params.projection_bias - lr * grads[2], atol=1e-8
        )

    def test_bias_only_freezes_tables(self):
        params, docs, ts = self.fixture()
        cfg = EncoderTrainConfig(epochs=2, learning_rate=0.1,
                                 effective_batch=1, bias_only=True, seed=0)
        out = params.copy()
        trace = train(ts, corpus_rows(docs, params), out, cfg)
        np.testing.assert_array_equal(out.token_table, params.token_table)
        np.testing.assert_array_equal(out.projection, params.projection)
        # the loss is translation invariant, so the bias gradient is zero
        # and the only trainable view (out_dim parameters) stays put
        np.testing.assert_allclose(
            out.projection_bias, params.projection_bias, atol=1e-15
        )
        assert out.projection_bias.size == out.out_dim
        assert len(set(trace)) == 1

    def test_hinge_boundary_takes_no_step(self):
        # q pools to (0, 0), p to (1, 0) and n to (0, 1), all exactly: with
        # no slack the hinge sits at 0, where the subgradient is 0, although
        # the gradient on either side of it is not
        params = EncoderParams(
            vocab={UNK: 0, SEP: 1, "a": 2, "b": 3, "c": 4},
            token_table=np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0],
                                  [0.0, 2.0], [0.0, 0.0]]),
            projection=np.eye(2),
            projection_bias=np.zeros(2),
        )
        docs = {pid: Document(id=pid, title=word, abstract="")
                for pid, word in (("q", "c"), ("p", "a"), ("n", "b"))}
        ts = triple_set([("q", "p", "n", "easy", "random")])
        cfg = EncoderTrainConfig(epochs=1, learning_rate=0.5, effective_batch=1,
                                 slack=0.0, seed=0)
        out = params.copy()
        trace = train(ts, corpus_rows(docs, params), out, cfg)
        assert trace == [0.0]
        np.testing.assert_array_equal(out.token_table, params.token_table)
        np.testing.assert_array_equal(out.projection, params.projection)
        np.testing.assert_array_equal(out.projection_bias, params.projection_bias)

    def test_missing_document_names_id(self):
        params, docs, ts = self.fixture()
        del docs["n"]
        cfg = EncoderTrainConfig(effective_batch=1)
        with pytest.raises(DataError, match="'n'"):
            train(ts, corpus_rows(docs, params), params, cfg)

    def reference_fixture(self):
        """Repeated words, an empty abstract and words outside the vocab."""
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(9)]
        # w6, w7 and w8 are not in the vocab
        vocab = build_vocab([Document(id="v", title=" ".join(words[:6]), abstract="")])
        docs = {"e": Document(id="e", title="w1 w1 w7", abstract="")}
        for i in range(10):
            picks = rng.choice(words, size=7)
            docs[f"d{i}"] = Document(id=f"d{i}", title=" ".join(picks[:3]),
                                     abstract=" ".join(picks[3:]))
        ids = sorted(docs)
        ts = triple_set([("e", "d0", "d1", "easy", "random")] + [
            (*(ids[j] for j in rng.choice(len(ids), size=3, replace=False)),
             "easy", "random")
            for _ in range(10)
        ])
        return ts, docs, init_encoder(vocab, hidden_dim=6, out_dim=3, seed=4).copy(np.float64)

    @pytest.mark.parametrize("overrides", [
        {},
        {"effective_batch": 1},
        {"effective_batch": 11},
        {"effective_batch": 64},
        {"bias_only": True},
        {"bias_only": True, "effective_batch": 1},
        {"bias_only": True, "slack": 0.0},
        {"slack": 0.0},
        {"learning_rate": 0.0},
    ])
    def test_matches_dense_reference(self, overrides):
        ts, docs, p0 = self.reference_fixture()
        # 11 triples in steps of 4 leave a remainder batch of 3
        cfg = EncoderTrainConfig(**{"epochs": 3, "learning_rate": 0.3,
                                    "effective_batch": 4, "slack": 1.0,
                                    "seed": 2, **overrides})
        out = p0.copy()
        trace = train(ts, corpus_rows(docs, p0), out, cfg)
        table, projection, bias, expect_trace = dense_reference_train(
            ts, docs, p0, cfg
        )
        # batched GEMMs sum in another order than the per-triple reference
        np.testing.assert_allclose(trace, expect_trace, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.token_table, table, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.projection, projection, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.projection_bias, bias, rtol=0, atol=1e-12)
        if not (cfg.bias_only or cfg.learning_rate == 0.0):
            assert not np.array_equal(out.token_table, p0.token_table)

    def test_float32_stays_near_float64(self):
        ts, docs, p64 = self.reference_fixture()
        p32 = p64.copy(np.float32)
        p64 = p32.copy(np.float64)  # the same init in both precisions
        cfg = EncoderTrainConfig(epochs=3, learning_rate=0.3, effective_batch=4, seed=2)
        trace32 = train(ts, corpus_rows(docs, p32), p32, cfg)
        trace64 = train(ts, corpus_rows(docs, p64), p64, cfg)
        assert p32.token_table.dtype == np.float32
        np.testing.assert_allclose(trace32, trace64, rtol=1e-5, atol=0)
        # all weights as one vector: the bias's exact gradient is 0, so it
        # only holds rounding noise and has no scale of its own
        got, expect = (np.concatenate([p.token_table.ravel(), p.projection.ravel(),
                                       p.projection_bias]) for p in (p32, p64))
        assert np.linalg.norm(got - expect) <= 1e-5 * np.linalg.norm(expect)

    def test_updates_the_params_it_is_given(self):
        ts, docs, p0 = self.reference_fixture()
        arrays = {name: getattr(p0, name)
                  for name in ("token_table", "projection", "projection_bias")}
        before = p0.copy()
        trace = train(ts, corpus_rows(docs, p0), p0,
                      EncoderTrainConfig(epochs=2, effective_batch=4, seed=2))
        assert len(trace) == 2
        for name, array in arrays.items():
            assert np.shares_memory(getattr(p0, name), array), name
        assert not np.array_equal(p0.token_table, before.token_table)
        assert not np.array_equal(p0.projection, before.projection)

    def test_tokenizes_each_document_once(self, monkeypatch):
        # encode-train's path: one split of the corpus, and training reads its rows
        ts, docs, _ = self.reference_fixture()
        calls = []
        text_blocks = encoder._text_blocks

        def counting_blocks(block_docs, ids):
            def counted():
                for doc in block_docs:
                    calls.append(doc.id)
                    yield doc
            return text_blocks(counted(), ids)

        monkeypatch.setattr(encoder, "_text_blocks", counting_blocks)
        vocab, doc_rows = index_corpus(docs.values())
        p0 = init_encoder(vocab, hidden_dim=6, out_dim=3, seed=4)
        train(ts, doc_rows, p0, EncoderTrainConfig(epochs=2, effective_batch=4))
        assert sorted(calls) == sorted(docs)

    @pytest.mark.parametrize("effective_batch", [0, -8])
    def test_effective_batch_below_one_rejected(self, effective_batch):
        with pytest.raises(ValidationError, match="effective_batch"):
            EncoderTrainConfig(effective_batch=effective_batch).validate()

    @pytest.mark.parametrize("field", ["learning_rate", "slack"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            EncoderTrainConfig(**{field: value}).validate()

    def batch_inputs(self):
        """CSR token rows of the reference fixture and its triples as rows."""
        ts, docs, p0 = self.reference_fixture()
        ids = sorted(docs)
        doc_rows = tokenize_corpus([docs[d] for d in ids], p0.vocab)
        offsets, flat = doc_rows.offsets, doc_rows.flat
        triples = np.array([[ids.index(d) for d in (t.query, t.positive, t.negative)]
                            for t in ts.triples])
        return p0, offsets, flat, triples

    def test_bias_only_gradient_touches_no_rows(self):
        p0, offsets, flat, triples = self.batch_inputs()
        full = encoder._batch_loss_and_grads(p0, offsets, flat, triples, 1.0)
        bias = encoder._batch_loss_and_grads(p0, offsets, flat, triples, 1.0,
                                             bias_only=True)
        assert full[0] > 0.0 and full[1] and full[2].any()
        assert bias[0] == full[0]
        assert bias[1] == [] and not bias[2].any()
        np.testing.assert_array_equal(bias[3], full[3])

    def test_batch_over_the_cap_is_chunked_into_one_step(self, monkeypatch):
        p0, offsets, flat, triples = self.batch_inputs()
        whole = encoder._batch_loss_and_grads(p0, offsets, flat, triples, 1.0)
        pools = []
        monkeypatch.setattr(encoder, "_pool_chunks",
                            counting(encoder._pool_chunks, pools))
        # 2 triples per chunk: 6 rows by at most the vocab's 8 columns
        monkeypatch.setattr(graph_embed, "CELL_CAP", 6 * 8)
        chunked = encoder._batch_loss_and_grads(p0, offsets, flat, triples, 1.0)
        assert pools == [6] * 5 + [3]
        assert len(whole[1]) == 1 and len(chunked[1]) == 6
        assert chunked[0] == pytest.approx(whole[0], rel=1e-12, abs=0)

        def summed(row_grads):
            d_table = np.zeros_like(p0.token_table)
            for rows, grads in row_grads:
                d_table[rows] += grads
            return d_table

        np.testing.assert_allclose(summed(chunked[1]), summed(whole[1]),
                                   rtol=0, atol=1e-12)
        for got, expect in zip(chunked[2:], whole[2:]):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

        ts, docs, _ = self.reference_fixture()
        cfg = EncoderTrainConfig(epochs=1, learning_rate=0.3,
                                 effective_batch=len(ts.triples), seed=2)
        pools.clear()
        out = p0.copy()
        trace = train(ts, corpus_rows(docs, p0), out, cfg)
        assert pools == [6] * 5 + [3]
        table, projection, bias, expect_trace = dense_reference_train(
            ts, docs, p0, cfg
        )
        np.testing.assert_allclose(trace, expect_trace, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.token_table, table, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.projection, projection, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.projection_bias, bias, rtol=0, atol=1e-12)

    def test_float32_table_computes_in_float32(self, monkeypatch):
        # a silent upcast would keep the results right but not the time and memory
        p0, offsets, flat, triples = self.batch_inputs()
        p32 = p0.copy(np.float32)
        for chunk in encoder._pool_chunks(p32.token_table, offsets, flat, triples):
            assert [a.dtype for a in chunk[1:]] == [np.float32] * 3
        assert encoder._encode_rows(p32, offsets, flat).dtype == np.float32

        grads = []
        batch_loss_and_grads = encoder._batch_loss_and_grads

        def recording(*args):
            out = batch_loss_and_grads(*args)
            grads.extend([*(g for _, g in out[1]), *out[2:]])
            return out

        monkeypatch.setattr(encoder, "_batch_loss_and_grads", recording)
        ts, docs, _ = self.reference_fixture()
        train(ts, corpus_rows(docs, p32), p32,
              EncoderTrainConfig(epochs=1, effective_batch=len(ts.triples)))
        assert len(grads) == 3 and all(g.dtype == np.float32 for g in grads)
        for name in ("token_table", "projection", "projection_bias"):
            assert getattr(p32, name).dtype == np.float32, name

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        docs = {
            f"d{i}": Document(id=f"d{i}", title=f"w{int(rng.integers(0, 9))} x",
                              abstract="y z")
            for i in range(12)
        }
        ids = sorted(docs)
        ts = triple_set(
            (ids[i], ids[(i + 1) % 12], ids[(i + 5) % 12], "easy", "random")
            for i in range(12)
        )
        vocab = build_vocab(docs.values())
        p0 = init_encoder(vocab, hidden_dim=8, out_dim=4, seed=3)
        cfg = EncoderTrainConfig(epochs=2, learning_rate=0.1,
                                 effective_batch=8, seed=3)
        a, b = p0.copy(), p0.copy()
        trace_a = train(ts, corpus_rows(docs, p0), a, cfg)
        trace_b = train(ts, corpus_rows(docs, p0), b, cfg)
        assert trace_a == trace_b
        np.testing.assert_array_equal(a.token_table, b.token_table)
        np.testing.assert_array_equal(a.projection, b.projection)
        np.testing.assert_array_equal(a.projection_bias, b.projection_bias)


class TestGradCheck:
    def random_fixture(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(6)]
        vocab = {UNK: 0, SEP: 1}
        for w in words:
            vocab[w] = len(vocab)
        params = EncoderParams(
            vocab=vocab,
            token_table=rng.normal(scale=0.5, size=(8, 3)),
            projection=rng.normal(scale=0.5, size=(3, 2)),
            projection_bias=rng.normal(scale=0.1, size=2),
        )

        def random_doc(i):
            picks = rng.choice(words, size=3)
            return Document(id=f"d{i}", title=" ".join(picks[:2]), abstract=picks[2])

        docs = tuple(random_doc(i) for i in range(3))
        return params, docs

    def test_error_below_threshold_on_20_fixtures(self):
        found = 0
        seed = 0
        while found < 20:
            params, docs = self.random_fixture(seed)
            seed += 1
            try:
                err = grad_check(params, docs, slack=1.0, eps=1e-5)
            except ValueError:
                continue  # kink fixture, resample
            assert err < 1e-4
            found += 1

    def test_bias_only_view_same_bound(self):
        found = 0
        seed = 100
        while found < 5:
            params, docs = self.random_fixture(seed)
            seed += 1
            try:
                err = grad_check(params, docs, slack=1.0, eps=1e-5, bias_only=True)
            except ValueError:
                continue
            assert err < 1e-4
            found += 1

    def test_halving_epsilon_stays_within_noise(self):
        params, docs = self.random_fixture(7)
        err = grad_check(params, docs, slack=1.0, eps=1e-4)
        err_half = grad_check(params, docs, slack=1.0, eps=5e-5)
        assert err_half <= max(err * 1.5, 1e-8)

    def test_kink_fixture_rejected(self):
        vocab = {UNK: 0, SEP: 1, "a": 2}
        params = EncoderParams(
            vocab=vocab,
            token_table=np.zeros((3, 2)),
            projection=np.zeros((2, 2)),
            projection_bias=np.zeros(2),
        )
        doc = Document(id="d", title="a", abstract="")
        with pytest.raises(ValueError, match="fixture"):
            grad_check(params, (doc, doc, doc), slack=0.0)


def label_triples(labels, per_query, seed):
    """Test-local triples from class labels: each paper is a query with
    same-label positives and other-label negatives, drawn without replacement."""
    rng = np.random.default_rng(seed)
    triples = []
    for pid, label in labels.items():
        same = [p for p, other in labels.items() if other == label and p != pid]
        rest = [p for p, other in labels.items() if other != label]
        positives = rng.choice(same, per_query, replace=False)
        negatives = rng.choice(rest, per_query, replace=False)
        triples += [(pid, str(pos), str(neg), "easy", "labels")
                    for pos, neg in zip(positives, negatives)]
    return triple_set(triples)


class TestTopicSeparation:
    def test_two_topic_corpus_separates_after_training(self):
        fc = FixtureConfig(nodes=200, blocks=2, seed=5)
        block_of = [i * 2 // 200 for i in range(200)]
        docs_list, labels = two_topic_documents(block_of, fc)
        docs = {d.id: d for d in docs_list}

        ts = label_triples(labels, per_query=5, seed=5)
        vocab = build_vocab(docs.values())
        params = init_encoder(vocab, hidden_dim=64, out_dim=32, seed=5)
        tcfg = EncoderTrainConfig(epochs=2, learning_rate=0.1,
                                  effective_batch=32, seed=5)
        trace = train(ts, corpus_rows(docs, params), params, tcfg)
        assert trace[-1] < trace[0]

        vectors, id_to_row = encode_corpus(tokenize_corpus(docs_list, params.vocab), params)
        points = vectors.values
        same, diff = [], []
        ids = [d.id for d in docs_list]
        for i in range(0, len(ids), 4):          # subsample pairs for speed
            for j in range(i + 1, len(ids), 4):
                dist = float(np.linalg.norm(points[i] - points[j]))
                (same if labels[ids[i]] == labels[ids[j]] else diff).append(dist)
        assert np.mean(same) < np.mean(diff)


class TestDocTokens:
    def saved(self, tmp_path):
        docs = [Document(id=pid, title="Alpha beta", abstract=text)
                for pid, text in (("a\ud800", "gamma"), ("\u00e9", ""), ("c", "beta x"))]
        _, doc_rows = index_corpus(docs)
        path = tmp_path / "doc_tokens.bin"
        save_doc_tokens(doc_rows, bytes(range(64)), path)
        return doc_rows, path

    def test_roundtrip(self, tmp_path):
        doc_rows, path = self.saved(tmp_path)
        loaded = load_doc_tokens(path, bytes(range(64)))
        assert loaded.ids == doc_rows.ids == ("a\ud800", "\u00e9", "c")
        np.testing.assert_array_equal(loaded.offsets, doc_rows.offsets)
        np.testing.assert_array_equal(loaded.flat, doc_rows.flat)
        assert loaded.flat.dtype == np.int32

    def test_other_key_is_a_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        with pytest.raises(DataError, match="other documents"):
            load_doc_tokens(path, bytes(64))

    def test_every_truncation_and_flipped_byte_is_a_data_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.bin"
        for size in range(len(raw)):
            bad.write_bytes(raw[:size])
            with pytest.raises(DataError):
                load_doc_tokens(bad, bytes(range(64)))
        for i in range(len(raw)):
            bad.write_bytes(raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:])
            with pytest.raises(DataError):
                load_doc_tokens(bad, bytes(range(64)))

    # a well-formed body: three documents of 1, 2 and 0 tokens
    GOOD = dict(counts=(3, 3), offsets=[0, 1, 3, 3], flat=[2, 3, 4], ids=b'["a", "b", "c"]')

    @staticmethod
    def crafted(tmp_path, counts, offsets, flat, ids, size=None):
        """A token rows file of these pieces, its body cut to ``size`` bytes,
        under a checksum that holds and the right key."""
        body = (encoder._TOKENS_HEAD.pack(bytes(range(64)), *counts)
                + np.array(offsets, "<i8").tobytes() + np.array(flat, "<i4").tobytes() + ids)
        body = body[:size]
        path = tmp_path / "doc_tokens.bin"
        path.write_bytes(encoder.TOKENS_MAGIC + hashlib.sha256(body).digest() + body)
        return path

    def test_crafted_file_loads(self, tmp_path):
        loaded = load_doc_tokens(self.crafted(tmp_path, **self.GOOD), bytes(range(64)))
        assert loaded.ids == ("a", "b", "c")
        assert loaded.offsets.tolist() == [0, 1, 3, 3] and loaded.flat.tolist() == [2, 3, 4]

    @pytest.mark.parametrize("edit, message", [
        ({"size": 79}, "truncated token rows header"),
        ({"size": 0}, "truncated token rows header"),
        ({"counts": (40, 3)}, "more than the file holds"),
        ({"counts": (3, 2**40)}, "more than the file holds"),
        ({"counts": (2**64 - 1, 3)}, "more than the file holds"),
        ({"offsets": [1, 1, 3, 3]}, "offsets must rise from 0 to 3"),
        ({"offsets": [0, 2, 1, 3]}, "offsets must rise from 0 to 3"),
        ({"offsets": [0, 1, 3, 4]}, "offsets must rise from 0 to 3"),
        ({"offsets": [0, 1, 9, 3]}, "offsets must rise from 0 to 3"),
        ({"ids": b'["a", "b", "c"'}, "bad id list: Expecting"),
        ({"ids": b'["\xff", "b", "c"]'}, "bad id list: 'utf-8' codec"),
        ({"ids": b'{"a": 1}'}, "bad id list: not 3 distinct strings"),
        ({"ids": b'"abc"'}, "bad id list: not 3 distinct strings"),
        ({"ids": b'["a", "b", "c", "d"]'}, "bad id list: not 3 distinct strings"),
        ({"ids": b'["a", "b"]'}, "bad id list: not 3 distinct strings"),
        ({"ids": b'["a", 5, "c"]'}, "bad id list: not 3 distinct strings"),
        ({"ids": b'["a", "b", "a"]'}, "bad id list: not 3 distinct strings"),
    ])
    def test_checksummed_malformed_file_is_a_data_error(self, tmp_path, edit, message):
        path = self.crafted(tmp_path, **{**self.GOOD, **edit})
        with pytest.raises(DataError, match=re.escape(message)):
            load_doc_tokens(path, bytes(range(64)))


class TestInit:
    def test_float32_arrays(self):
        vocab = build_vocab([Document(id="d", title="alpha beta", abstract="gamma")])
        params = init_encoder(vocab, hidden_dim=5, out_dim=3, seed=2)
        for name in ("token_table", "projection", "projection_bias"):
            assert getattr(params, name).dtype == np.float32, name

    @pytest.mark.parametrize("cap", [None, 7, 1])
    def test_rounded_float64_draws(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(graph_embed, "CELL_CAP", cap)
        vocab = {UNK: 0, SEP: 1, **{f"w{i}": i for i in range(2, 30)}}
        params = init_encoder(vocab, hidden_dim=6, out_dim=4, seed=9)
        rng = np.random.default_rng(9)
        scale = 1.0 / np.sqrt(6)
        np.testing.assert_array_equal(
            params.token_table, rng.normal(0.0, scale, size=(30, 6)).astype(np.float32))
        np.testing.assert_array_equal(
            params.projection, rng.normal(0.0, scale, size=(6, 4)).astype(np.float32))
        np.testing.assert_array_equal(params.projection_bias, np.zeros(4))

    def test_float64_arrays_stay_float64(self):
        params = TestEncode().tiny_params()
        assert params.token_table.dtype == np.float64
        assert params.copy().projection.dtype == np.float64
        assert params.copy(np.float32).projection_bias.dtype == np.float32


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        vocab = build_vocab([Document(id="d", title="alpha beta", abstract="gamma")])
        params = init_encoder(vocab, hidden_dim=5, out_dim=3, seed=2)
        params.projection_bias += np.float32(0.25)
        path = tmp_path / "enc.bin"
        save_encoder(params, path)
        loaded = load_encoder(path)
        assert loaded.vocab == params.vocab
        for name in ("token_table", "projection", "projection_bias"):
            got, expect = getattr(loaded, name), getattr(params, name)
            assert got.dtype == np.float32, name
            np.testing.assert_array_equal(got, expect)

    def test_deterministic_bytes(self, tmp_path):
        vocab = build_vocab([Document(id="d", title="x y z", abstract="")])
        params = init_encoder(vocab, hidden_dim=4, out_dim=2, seed=0)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_encoder(params, a)
        save_encoder(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_every_truncation_is_a_data_error(self, tmp_path):
        vocab = build_vocab([Document(id="d", title="alpha beta", abstract="gamma")])
        params = init_encoder(vocab, hidden_dim=3, out_dim=2, seed=1)
        full = tmp_path / "enc.bin"
        save_encoder(params, full)
        raw = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(DataError):
                load_encoder(cut)

    def test_header_sizes_past_the_end_rejected(self, tmp_path):
        import struct
        path = tmp_path / "enc.bin"
        path.write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 0)
        )
        with pytest.raises(DataError, match="truncated"):
            load_encoder(path)

    def test_projection_sizes_past_the_end_rejected(self, tmp_path):
        import struct
        vocab = build_vocab([Document(id="d", title="x y", abstract="")])
        path = tmp_path / "enc.bin"
        save_encoder(init_encoder(vocab, hidden_dim=2, out_dim=2, seed=0), path)
        raw = path.read_bytes()
        at = len(CHECKPOINT_MAGIC) + 9 + len(vocab) * 2 * 4  # out_dim
        assert raw[at:at + 4] == struct.pack("<I", 2)
        path.write_bytes(raw[:at] + struct.pack("<I", 2**32 - 1) + raw[at + 4:])
        with pytest.raises(DataError, match="truncated"):
            load_encoder(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        vocab = build_vocab([Document(id="d", title="x y", abstract="")])
        path = tmp_path / "enc.bin"
        save_encoder(init_encoder(vocab, hidden_dim=2, out_dim=2, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_encoder(path)

    def test_vocab_without_unk_is_a_data_error(self, tmp_path):
        vocab = build_vocab([Document(id="d", title="x y", abstract="")])
        path = tmp_path / "enc.bin"
        save_encoder(init_encoder(vocab, hidden_dim=2, out_dim=2, seed=0), path)
        raw = path.read_bytes()
        assert raw.count(UNK.encode()) == 1
        path.write_bytes(raw.replace(UNK.encode(), b"[unk]"))
        with pytest.raises(DataError, match="unk"):
            load_encoder(path)

    @staticmethod
    def hand_built(vocab):
        rng = np.random.default_rng(5)
        return EncoderParams(
            vocab=vocab,
            token_table=rng.normal(size=(len(vocab), 3)).astype(np.float32),
            projection=rng.normal(size=(3, 2)).astype(np.float32),
            projection_bias=np.zeros(2, dtype=np.float32),
        )

    def test_vocab_roundtrip_keeps_any_token(self, tmp_path):
        # the tokenizer only makes [a-z0-9] words, but the vocab section
        # stores any string: JSON escapes make it ASCII, a lone surrogate too
        tokens = [UNK, SEP, "caf\u00e9", "\u8bba\u6587", "\ud800", "\U0001f600", '"\\']
        params = self.hand_built({token: i for i, token in enumerate(tokens)})
        path = tmp_path / "enc.bin"
        save_encoder(params, path)
        assert path.read_bytes().endswith(
            json.dumps(tokens, separators=(",", ":")).encode("ascii"))
        assert load_encoder(path).vocab == params.vocab

    @pytest.mark.parametrize("vocab, message", [
        (b'["<unk>","<sep>","a"', "bad vocab section"),
        (b'{"<unk>":0,"<sep>":1,"a":2}', "not a JSON array of strings"),
        (b'"<unk><sep>a"', "not a JSON array of strings"),
        (b'["<unk>","<sep>",3]', "not a JSON array of strings"),
        (b'["<unk>","<sep>"]', "not 3 distinct strings"),
        (b'["<unk>","<sep>","a","b"]', "not 3 distinct strings"),
        (b'["<unk>","<sep>","<sep>"]', "not 3 distinct strings"),
        (b'["<unk>","<sep>","\xff"]', "bad vocab section"),
        (b'["<unk>","<sep>","a"] ["b"]', "trailing bytes"),
    ])
    def test_bad_vocab_section_names_file(self, tmp_path, vocab, message):
        params = self.hand_built({UNK: 0, SEP: 1, "a": 2})
        path = tmp_path / "enc.bin"
        save_encoder(params, path)
        raw = path.read_bytes()
        stored = b'["<unk>","<sep>","a"]'
        assert raw.endswith(stored)
        path.write_bytes(raw[:-len(stored)] + vocab)
        with pytest.raises(DataError) as err:
            load_encoder(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    def test_older_checkpoint_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(self.hand_built({UNK: 0, SEP: 1}), path)
        path.write_bytes(b"NBC1" + path.read_bytes()[4:])
        with pytest.raises(DataError, match="not an encoder checkpoint"):
            load_encoder(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            load_encoder(path)

    def test_embedding_snapshot_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "graph_embeddings.nbe"
        write_snapshot(EmbeddingTable(values=np.ones((4, 3))), path)
        with pytest.raises(DataError, match="not an encoder checkpoint"):
            load_encoder(path)

    def test_checkpoint_is_not_an_embedding_snapshot(self, tmp_path):
        vocab = build_vocab([Document(id="d", title="x y", abstract="")])
        path = tmp_path / "encoder.bin"
        save_encoder(init_encoder(vocab, hidden_dim=2, out_dim=2, seed=0), path)
        with pytest.raises(DataError, match="magic"):
            read_snapshot(path)
