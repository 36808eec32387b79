"""Citation corpus ingestion: documents, edges, ID mappings, edge splits.

External IDs are opaque strings; all downstream math runs on dense 0-based
indices assigned at ingest time in first-appearance order.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    """Title and abstract of one paper, keyed by its external ID; it
    unpacks as the ``(id, title, abstract)`` record :func:`read_documents`
    yields."""

    id: str
    title: str
    abstract: str = ""

    def __post_init__(self):
        if not self.title:
            raise DataError(f"document {self.id!r}: title must be nonempty")

    def __iter__(self) -> Iterator[str]:
        return iter((self.id, self.title, self.abstract))


@dataclass
class CitationGraph:
    """Directed edge set over dense node indices with an external-ID mapping.

    Instances are treated as immutable: every operation returns a new graph.
    ``edges`` is an ``(E, 2)`` int64 array of ``(src, dst)`` rows with no
    self-loops and no exact duplicates.
    """

    ids: tuple[str, ...]
    edges: np.ndarray
    directed: bool = True
    stats: Mapping[str, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)

    @property
    def node_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])


def _dedup_edges(edges: np.ndarray, n: int) -> tuple[np.ndarray, int, int]:
    """Drop self-loops and exact duplicates, preserving first-seen order.

    Rows index ``n`` nodes, so ``src * n + dst`` keys each edge uniquely.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    edges = edges[~loops]
    _, first = np.unique(edges[:, 0] * n + edges[:, 1], return_index=True)
    kept = edges[np.sort(first)]
    return kept, len(edges) - len(kept), int(loops.sum())


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading; a byte that does not decode is a
    :class:`DataError` naming the file."""
    with Path(path).open("r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None


def ingest_edges(path: str | Path) -> CitationGraph:
    """Read a ``src<TAB>dst`` edge file into a graph with dense indices.

    Indices are assigned in first-appearance order. Duplicate edges and
    self-loops are dropped and counted; counts land in ``graph.stats``.
    """
    path = Path(path)
    index: dict[str, int] = {}
    flat: list[int] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(
                    f"{path}: line {lineno}: expected 'src<TAB>dst', got {line!r}"
                )
            flat.append(index.setdefault(parts[0], len(index)))
            flat.append(index.setdefault(parts[1], len(index)))

    if not index:
        raise DataError(f"{path}: empty edge file")

    edges, duplicates, self_loops = _dedup_edges(np.array(flat), len(index))
    if duplicates or self_loops:
        logger.warning(
            "%s: dropped %d duplicate edges and %d self-loops",
            path, duplicates, self_loops,
        )
    stats = {"duplicate_edges_dropped": duplicates, "self_loops_dropped": self_loops}
    return CitationGraph(ids=tuple(index), edges=edges, directed=True, stats=stats)


def filter_nodes(g: CitationGraph, exclude: set[str]) -> CitationGraph:
    """Remove the given external IDs and all incident edges, re-densifying.

    Surviving nodes keep their external IDs and their relative order.
    Unknown excluded IDs are ignored and counted; the counts join
    ``g.stats``.
    """
    unknown = len(exclude - set(g.ids))
    if unknown:
        logger.warning("filter_nodes: %d excluded ids not in graph", unknown)

    keep = np.array([ext not in exclude for ext in g.ids], dtype=bool)
    remap = np.cumsum(keep, dtype=np.int64) - 1
    edges = remap[g.edges[keep[g.edges].all(axis=1)]]
    keep_ids = tuple(ext for ext, kept in zip(g.ids, keep) if kept)
    stats = {
        **(g.stats or {}),
        "nodes_removed": g.node_count - len(keep_ids),
        "edges_removed": g.edge_count - edges.shape[0],
        "unknown_excluded_ids": unknown,
    }
    return CitationGraph(ids=keep_ids, edges=edges, directed=g.directed, stats=stats)


def to_undirected(g: CitationGraph) -> CitationGraph:
    """Symmetrize the edge set: every (a, b) also yields (b, a).

    Idempotent; the reversed copies are deduplicated against existing edges,
    and ``g.stats`` is kept.
    """
    both = np.concatenate([g.edges, g.edges[:, ::-1]])
    edges, _, _ = _dedup_edges(both, g.node_count)
    return CitationGraph(ids=g.ids, edges=edges, directed=False, stats=g.stats)


def split_edges(
    g: CitationGraph, holdout_fraction: float, seed: int
) -> tuple[CitationGraph, np.ndarray]:
    """Partition edges into a training graph and a held-out edge array.

    The holdout is a seeded uniform sample without replacement of
    ``floor(holdout_fraction * |edges|)`` edges. Nodes and the ID mapping
    are unchanged.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in [0, 1): {holdout_fraction}")
    n_edges = g.edge_count
    # floor of the exact product; the epsilon guards against binary
    # representation error in fraction * n_edges
    n_holdout = int(np.floor(holdout_fraction * n_edges + 1e-9))
    if holdout_fraction > 0.0 and n_holdout < 1:
        raise ValueError(
            f"holdout_fraction {holdout_fraction} selects no edges out of {n_edges}"
        )

    rng = np.random.default_rng(seed)
    holdout_pos = np.sort(rng.choice(n_edges, size=n_holdout, replace=False))
    mask = np.ones(n_edges, dtype=bool)
    mask[holdout_pos] = False

    train = CitationGraph(ids=g.ids, edges=g.edges[mask], directed=g.directed)
    holdout = g.edges[holdout_pos].copy()
    return train, holdout


# json.loads less its whitespace scans: lines are stripped, and a line it
# leaves unparsed is handed to json.loads
_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path, fields: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` for each non-blank line of a JSON-lines file.

    Every record must be a JSON object holding every key in ``fields``.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):  # json.loads words the error, a BOM's too
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise DataError(
                    f"{path}: line {lineno}: expected a JSON object, "
                    f"got {type(record).__name__}"
                )
            for key in fields:
                if key not in record:
                    raise DataError(f"{path}: line {lineno}: missing field {key!r}")
            yield lineno, record


def require_str(value: object, name: str) -> str:
    """``value`` if it is a string, else a :class:`DataError` naming ``name``."""
    if not isinstance(value, str):
        raise DataError(f"{name} must be a string, got {type(value).__name__}")
    return value


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one key-sorted JSON object per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_documents(path: str | Path) -> Iterator[tuple[str, str, str]]:
    """Yield ``(id, title, abstract)`` for each record of a JSON-lines
    document file, in file order.

    The id, title and abstract must be strings; a missing or null abstract
    is empty. An id on two lines is a :class:`DataError` naming both, and
    so is a file that holds no record, once it is read to the end.
    Records are checked inline; only a failing one goes through
    :func:`require_str` and :class:`Document`, which word the error.
    """
    path = Path(path)
    line_of: dict[str, int] = {}
    for lineno, record in read_jsonl(path, ("id", "title")):
        pid, title, abstract = record["id"], record["title"], record.get("abstract")
        if abstract is None:
            abstract = ""
        if not (type(pid) is type(title) is type(abstract) is str and title) or pid in line_of:
            fields = zip((pid, title, abstract), ("id", "title", "abstract"))
            try:
                Document(*(require_str(value, key) for value, key in fields))
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            raise DataError(
                f"{path}: line {lineno}: document id {pid!r} already on line {line_of[pid]}"
            )
        line_of[pid] = lineno
        yield pid, title, abstract
    if not line_of:
        raise DataError(f"{path}: empty document file")


def load_documents(path: str | Path) -> dict[str, Document]:
    """The records of :func:`read_documents` as documents keyed by id."""
    return {record[0]: Document(*record) for record in read_documents(path)}


def save_documents(docs: Sequence[Document], path: str | Path) -> None:
    """Write documents as JSON-lines, one object per line."""
    write_jsonl(path, (
        {"id": doc.id, "title": doc.title, "abstract": doc.abstract} for doc in docs
    ))


def save_graph(g: CitationGraph, path: str | Path) -> None:
    """Serialize a graph as JSON: ids, direction flag, counters and the
    edges as one flat list ``[s0, d0, s1, d1, ...]``."""
    payload = {
        "ids": list(g.ids),
        "edges": g.edges.reshape(-1).tolist(),
        "directed": g.directed,
        "stats": dict(g.stats) if g.stats else {},
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")), encoding="utf-8"
    )


def load_graph(path: str | Path) -> CitationGraph:
    """Load a graph serialized by :func:`save_graph`.

    Edges that are not a flat list of an even number of integers, each in
    ``[0, len(ids))``, are a :class:`DataError` naming the file."""
    try:
        with open_text(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a graph snapshot: {exc}") from None
    keys = {"ids", "edges", "directed"}
    if not isinstance(payload, dict) or not keys <= payload.keys():
        raise DataError(f"{path}: not a graph snapshot: needs keys {sorted(keys)}")
    flat = payload["edges"]
    if not (isinstance(flat, list) and len(flat) % 2 == 0 and set(map(type, flat)) <= {int}):
        raise DataError(f"{path}: edges must be a flat list of integer indices")
    ids = payload["ids"]
    if not (isinstance(ids, list) and set(map(type, ids)) <= {str}):
        raise DataError(f"{path}: ids must be a list of strings")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: ids must be distinct")
    n = len(ids)
    try:
        edges = np.array(flat, dtype=np.int64)
    except OverflowError:
        edges = None
    if edges is None or edges.size and (edges.min() < 0 or edges.max() >= n):
        raise DataError(f"{path}: edge ids must lie in [0, {n})")
    return CitationGraph(
        ids=tuple(ids),
        edges=edges,
        directed=bool(payload["directed"]),
        stats=payload.get("stats") or None,
    )
