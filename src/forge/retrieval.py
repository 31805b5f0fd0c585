"""Agentic literature retrieval over a citation-linked document corpus.

The walk alternates breadth-first layers (top-k corpus documents by cosine
against the live query) with depth-first layers (citation targets of the
previous layer), evolving the query after every layer as a convex blend of
its old vector and the layer's mean document embedding. Three conditions
end the walk, checked in this order after each layer: query stagnation
(term overlap with the previous query above a threshold, first checked at
the end of layer 2), a relevance floor (best layer score below a minimum),
and a hard layer cap.

Corpus layout on disk: one ``<id>.txt`` body per document, a
``citations.tsv`` edge list (from-id TAB to-id), and an optional
``embeddings.npz`` index that a run reads in place of them: the unicode
``ids``; their ``texts`` as UTF-8 bytes end to end, cut at int64
``offsets``; each text's hex ``sha256``; a float64 ``vectors`` row per id;
the ``citations`` between them as int32 row pairs; and the sorted bytes
``terms`` of the texts with the int32 ``counts`` of documents having each.
An edited corpus needs ``forge corpus index`` again, which embeds only texts
whose sha256 changed. An old ``embeddings.tsv``, or an old index without
texts, is refused.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import zipfile
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import EmptyQueryError, LoadError, ValidationError
from .protocol import read_text, replacing
from .providers import Embedder, unit_vector

log = logging.getLogger(__name__)

MAX_KEY_TERMS = 32
TERM_MATCH_THRESHOLD = 0.9

BFS = "bfs"
DFS = "dfs"

# Small english stopword list; enough to keep key-term extraction from
# surfacing connective tissue. Domain terms are never in here.
STOPWORDS = frozenset(
    """
    a about above after again all also an and any are as at be because been
    before being below between both but by can did do does doing down during
    each few for from further had has have having he her here hers him his
    how i if in into is it its itself just me more most my no nor not of off
    on once only or other our ours out over own same she should so some such
    than that the their theirs them then there these they this those through
    to too under until up very was we were what when where which while who
    whom why will with you your yours
    """.split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


def _is_term(tok: str) -> bool:
    return not (tok in STOPWORDS or len(tok) < 2 or tok.isdigit())


def _tokens(text: str) -> List[str]:
    return [tok for tok in _TOKEN_RE.findall(text.lower()) if _is_term(tok)]


class CorpusStats:
    """Document frequencies used to damp ubiquitous terms: ``terms``, every
    term of the corpus as a sorted ``S`` array, and ``counts``, the number of
    documents having each among their tokens (int32)."""

    def __init__(self, doc_count: int, terms: np.ndarray, counts: np.ndarray):
        self.doc_count, self.terms, self.counts = doc_count, terms, counts

    @classmethod
    def of(cls, texts: Sequence[str]) -> "CorpusStats":
        """The table of ``texts``: the one place it is counted."""
        df: Counter = Counter()
        for text in texts:
            df.update(set(_tokens(text)))
        terms = sorted(df)
        return cls(len(texts), np.array(terms, dtype=bytes),
                   np.array([df[t] for t in terms], dtype=np.int32))

    def icf(self, term: str) -> float:
        # Smoothed inverse corpus frequency; strictly positive.
        key = term.encode("utf-8")
        i = int(np.searchsorted(self.terms, key))
        count = int(self.counts[i]) if i < len(self.terms) and self.terms[i] == key else 0
        return math.log((1 + self.doc_count) / (1 + count)) + 1.0


def extract_key_terms(text: str, stats: Optional[CorpusStats] = None) -> List[str]:
    """Top ``MAX_KEY_TERMS`` terms of a text by frequency (times inverse
    corpus frequency).

    Lowercased, stopword-filtered, ranked by score descending with ties
    broken lexicographically. Raises when nothing survives filtering.
    """
    if not text or not text.strip():
        raise EmptyQueryError("cannot extract terms from empty text")
    counts = Counter(_tokens(text))
    if not counts:
        raise EmptyQueryError("text reduces to zero key terms")
    scored = []
    for term, freq in counts.items():
        weight = float(freq)
        if stats is not None:
            weight *= stats.icf(term)
        scored.append((term, weight))
    scored.sort(key=lambda tw: (-tw[1], tw[0]))
    return [term for term, _ in scored[:MAX_KEY_TERMS]]


@dataclass(slots=True)
class Document:
    """One corpus entry: body text, unit embedding, outgoing citations."""

    id: str
    text: str
    embedding: np.ndarray
    citations: Tuple[str, ...] = ()

    def __post_init__(self):
        self.embedding = unit_vector(self.embedding, f"embedding of document {self.id!r}")
        self.citations = tuple(self.citations)

    @classmethod
    def of_unit_row(cls, doc_id: str, text: str, row: np.ndarray,
                    citations: Tuple[str, ...]) -> "Document":
        """A document whose ``row`` its caller already checked and divided by
        its norm, as ``unit_vector`` does, so the per-row check is skipped."""
        doc = cls.__new__(cls)
        doc.id, doc.text, doc.embedding, doc.citations = doc_id, text, row, citations
        return doc


class Corpus:
    """Immutable, id-ordered collection of documents with citation edges."""

    def __init__(self, documents: Sequence[Document], stats: Optional[CorpusStats] = None):
        """``stats``, the documents' table when an index holds it, is otherwise counted here."""
        self._docs: Dict[str, Document] = {}
        for doc in documents:
            if doc.id in self._docs:
                raise ValidationError(f"duplicate document id {doc.id!r}")
            self._docs[doc.id] = doc
        # Drop citation edges pointing outside the corpus.
        dangling = set().union(*(doc.citations for doc in self._docs.values())) - self._docs.keys()
        for doc in self._docs.values() if dangling else ():
            if not dangling.isdisjoint(doc.citations):
                dropped = [c for c in doc.citations if c in dangling]
                log.warning("document %s: dropping dangling citations %s", doc.id, dropped)
                doc.citations = tuple(c for c in doc.citations if c not in dangling)
        self._docs = {doc_id: self._docs[doc_id] for doc_id in sorted(self._docs)}
        if stats is None:
            stats = CorpusStats.of([doc.text for doc in self._docs.values()])
        self.stats = stats

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def get(self, doc_id: str) -> Document:
        return self._docs[doc_id]

    def documents(self) -> List[Document]:
        """The documents in id order, as a new list."""
        return list(self._docs.values())


INDEX = "embeddings.npz"


def _document_names(directory: str) -> List[str]:
    """The sorted ``.txt`` names of a corpus directory."""
    if not os.path.isdir(directory):
        raise LoadError(f"corpus directory not found: {directory}")
    try:
        return sorted(n for n in os.listdir(directory) if n.endswith(".txt"))
    except OSError as exc:
        raise LoadError(f"cannot list corpus directory {directory}: {exc}") from exc


def _read_citations(directory: str) -> Dict[str, List[str]]:
    """Each document's cited ids, in ``citations.tsv`` order."""
    citations: Dict[str, List[str]] = {}
    cit_path = os.path.join(directory, "citations.tsv")
    if os.path.exists(cit_path):
        for line in read_text(cit_path).split("\n"):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise LoadError(f"bad citations line: {line!r}")
            citations.setdefault(parts[0], []).append(parts[1])
    return citations


def _read_documents(directory: str, names: List[str], embedder: Embedder,
                    known: Dict[bytes, np.ndarray]) -> Corpus:
    """The corpus of the directory's files; a text whose sha256 ``known``
    maps to a vector takes it, and the embedder embeds the others."""
    text_index = os.path.join(directory, "embeddings.tsv")
    if names and os.path.exists(text_index) and not os.path.exists(os.path.join(directory, INDEX)):
        # Re-embedding every document instead would bill an HTTP embedder.
        raise LoadError(f"{text_index} is a text index, which forge no longer reads: "
                        f"delete it and run `forge corpus index {directory}` again")
    citations = _read_citations(directory)
    docs = []
    for name in names:
        doc_id = name[:-4]
        text = read_text(os.path.join(directory, name))
        if not text.strip():
            raise LoadError(f"document {doc_id!r} is empty")
        row = known.get(hashlib.sha256(text.encode("utf-8")).hexdigest().encode()) if known else None
        embedding = embedder.embed_one(text) if row is None else row
        docs.append(Document(doc_id, text, embedding, tuple(citations.get(doc_id, ()))))
    return Corpus(docs)


# Each index member in the order read: its dtype (a kind letter: any width),
# what it must be, and its check given the members before it.
_MEMBERS = (
    ("ids", "U", "a 1-D unicode array of distinct ids",
     lambda a, m: a.ndim == 1 and len(set(a.tolist())) == a.size),
    ("texts", "uint8", "a 1-D uint8 array of UTF-8 bytes", lambda a, m: a.ndim == 1),
    ("offsets", "int64", "int64 offsets, one more than 'ids', rising from 0 to the end of 'texts'",
     lambda a, m: a.shape == (m["ids"].size + 1,) and a[0] == 0 and a[-1] == m["texts"].size
     and np.all(a[1:] >= a[:-1])),
    ("sha256", "S64", "one 64-byte hex digest per id", lambda a, m: a.shape == m["ids"].shape),
    ("vectors", "float64", "a 2-D float64 array with one row per id",
     lambda a, m: a.ndim == 2 and len(a) == m["ids"].size),
    ("citations", "int32", "a 2-D int32 array of (citing, cited) rows of 'ids'",
     lambda a, m: a.ndim == 2 and a.shape[1] == 2 and np.all((0 <= a) & (a < m["ids"].size))),
    ("terms", "S", "a 1-D bytes array of sorted terms",
     lambda a, m: a.ndim == 1 and np.all(a[1:] > a[:-1])),
    ("counts", "int32", "one count per term, each in [1, the number of ids]",
     lambda a, m: a.shape == m["terms"].shape and np.all((1 <= a) & (a <= m["ids"].size))),
)


def _read_index(path: str, directory: str) -> Dict[str, Any]:
    """The members of the index at ``path``, each checked, ``ids`` and ``texts``
    as lists. A malformed index is a LoadError naming it."""
    try:
        if not zipfile.is_zipfile(path):
            raise ValueError("not a zip archive")
        with np.load(path, allow_pickle=False) as archive:
            if "texts" not in archive.files:
                raise LoadError(f"{path} is an index without texts, which forge no longer reads: "
                                f"delete it and run `forge corpus index {directory}` again")
            got: Dict[str, Any] = {}
            for name, dtype, must, ok in _MEMBERS:
                a = got[name] = archive[name]  # bytes when the member is no .npy file
                typed = isinstance(a, np.ndarray) and (a.dtype.kind if len(dtype) == 1 else a.dtype)
                if typed != dtype or not ok(a, got):
                    raise ValueError(f"{name!r} must be {must}")
                if name == "offsets":  # decoded now, so the bytes go before the vectors come
                    ends = a.tolist()
                    got["texts"] = [str(got["texts"][i:j], "utf-8") for i, j in zip(ends, ends[1:])]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    got["ids"] = got["ids"].tolist()
    return got


def load_corpus(directory: str, embedder: Embedder) -> Corpus:
    """Read a corpus directory: from its index when it has one, else from its
    documents, each embedded. A directory or file that cannot be read, or an
    index of other documents than the directory holds, is a :class:`LoadError`."""
    names = _document_names(directory)
    index = os.path.join(directory, INDEX)
    if not names or not os.path.exists(index):
        return _read_documents(directory, names, embedder, {})
    got = _read_index(index, directory)
    ids = got["ids"]
    if set(ids) != {n[:-4] for n in names}:
        raise LoadError(f"{index} is out of date, as documents were added or removed since it was"
                        f" written: run `forge corpus index {directory}` again")
    vectors = got["vectors"]
    norms = np.sqrt([row.dot(row) for row in vectors])  # as np.linalg.norm sums each row
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        raise ValidationError(f"embedding of document {ids[bad[0]]!r} has a zero or non-finite norm")
    vectors /= norms[:, None]
    citing, cited = got["citations"][np.argsort(got["citations"][:, 0], kind="stable")].T
    targets = [ids[j] for j in cited.tolist()]  # each document's in citations.tsv order
    ends = np.searchsorted(citing, np.arange(len(ids) + 1)).tolist()
    docs = [Document.of_unit_row(doc_id, text, row, tuple(targets[i:j])) for doc_id, text, row, i, j
            in zip(ids, got["texts"], vectors, ends, ends[1:])]
    return Corpus(docs, CorpusStats(len(ids), got["terms"], got["counts"]))


def write_embeddings(corpus: Corpus, directory: str) -> str:
    """Write ``corpus``, with the edges of the directory's citations.tsv, as
    its index (see the module docstring), replacing an earlier one whole or not at all."""
    docs = corpus.documents()
    if len({doc.embedding.size for doc in docs}) > 1:
        raise ValidationError("cannot index embeddings of differing dimensions")
    row = {doc.id: i for i, doc in enumerate(docs)}
    edges = [(row[a], row[b]) for a, cited in _read_citations(directory).items() if a in row
             for b in cited if b in row]
    texts = [doc.text.encode("utf-8") for doc in docs]
    path = os.path.join(directory, INDEX)
    with replacing(path) as fh:
        np.savez(fh, ids=np.array(list(row), dtype=str),
                 texts=np.frombuffer(b"".join(texts), dtype=np.uint8),
                 offsets=np.cumsum([0] + [len(t) for t in texts], dtype=np.int64),
                 sha256=np.array([hashlib.sha256(t).hexdigest() for t in texts], dtype="S64"),
                 vectors=np.stack([doc.embedding for doc in docs]) if docs else np.zeros((0, 0)),
                 citations=np.array(edges, dtype=np.int32).reshape(-1, 2),
                 terms=corpus.stats.terms, counts=corpus.stats.counts)
    return path


def index_corpus(directory: str, embedder: Embedder) -> Tuple[int, str]:
    """Write the index of the directory's documents and citations.tsv, read
    afresh; returns the document count and the index path. Only texts whose
    sha256 the earlier index lacks are embedded, so an HTTP embedder bills
    for edits alone."""
    names = _document_names(directory)
    index = os.path.join(directory, INDEX)
    got = _read_index(index, directory) if names and os.path.exists(index) else {}
    known = dict(zip(got["sha256"].tolist(), got["vectors"])) if got else {}
    corpus = _read_documents(directory, names, embedder, known)
    return len(corpus), write_embeddings(corpus, directory)


@dataclass
class QueryState:
    """Evolving retrieval query: unit vector and ordered terms."""

    vector: np.ndarray
    terms: Tuple[str, ...]

    def __post_init__(self):
        self.vector = unit_vector(self.vector, "query vector")
        self.terms = tuple(self.terms)


@dataclass(frozen=True)
class RetrievalParams:
    """Walk hyperparameters. Defaults: cap 10, overlap 0.8, floor 0.5,
    persistence 0.7, five documents per breadth layer."""

    l_max: int = 10
    overlap_tau: float = 0.8
    relevance_eps: float = 0.5
    alpha: float = 0.7
    k_per_layer: int = 5
    term_window: int = MAX_KEY_TERMS

    def __post_init__(self):
        if self.l_max < 1:
            raise ValidationError("l_max must be positive")
        if not (0.0 <= self.overlap_tau <= 1.0):
            raise ValidationError("overlap_tau out of [0, 1]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError("alpha out of [0, 1]")
        if self.k_per_layer < 1:
            raise ValidationError("k_per_layer must be positive")
        if self.term_window < 1:
            raise ValidationError("term_window must be positive")


def construct_initial_query(
    task_text: str,
    dataset_meta: str,
    embedder: Embedder,
    stats: Optional[CorpusStats] = None,
) -> QueryState:
    """Union of key terms from the task and the dataset description,
    embedded as one space-joined string."""
    terms: List[str] = []
    for source in (task_text, dataset_meta):
        try:
            extracted = extract_key_terms(source, stats)
        except EmptyQueryError:
            continue
        for term in extracted:
            if term not in terms:
                terms.append(term)
    if not terms:
        raise EmptyQueryError("neither task text nor dataset meta yields terms")
    vector = embedder.embed_one(" ".join(terms))
    return QueryState(vector=vector, terms=tuple(terms))


def _checked_embedding(query: QueryState, doc: Document) -> np.ndarray:
    if query.vector.shape != doc.embedding.shape:
        raise ValidationError(
            f"dimension mismatch: query {query.vector.shape} vs doc {doc.embedding.shape}"
        )
    return doc.embedding


def score(query: QueryState, doc: Document) -> float:
    """Cosine similarity between query vector and document embedding."""
    embedding = _checked_embedding(query, doc)
    denom = float(np.linalg.norm(query.vector) * np.linalg.norm(embedding))
    return float(np.dot(query.vector, embedding) / denom)


def update_query(
    query: QueryState,
    layer_docs: Sequence[Document],
    alpha: float,
    term_window: int = MAX_KEY_TERMS,
) -> QueryState:
    """Blend the query toward the layer's mean embedding and extend terms.

    vector' = normalize(alpha * v + (1 - alpha) * mean(doc embeddings));
    an empty layer leaves the vector untouched. New top terms of the layer
    text are appended and the term list keeps only the most recent
    ``term_window`` entries, so a drifting walk sheds stale vocabulary.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError("alpha out of [0, 1]")
    if layer_docs:
        mean = np.mean([d.embedding for d in layer_docs], axis=0)
        blended = alpha * query.vector + (1.0 - alpha) * mean
        norm = float(np.linalg.norm(blended))
        vector = query.vector if norm == 0.0 else blended / norm
    else:
        vector = query.vector

    terms = list(query.terms)
    if layer_docs:
        joined = "\n\n".join(d.text for d in layer_docs)
        try:
            fresh = extract_key_terms(joined)
        except EmptyQueryError:
            fresh = []
        for term in fresh:
            if term not in terms:
                terms.append(term)
    if len(terms) > term_window:
        terms = terms[-term_window:]
    return QueryState(vector=vector, terms=tuple(terms))


def overlap(a: QueryState, b: QueryState, embedder: Embedder) -> float:
    """Fraction of the smaller term set matched one-to-one into the other.

    Term s matches term t when cosine(embed(s), embed(t)) is at least
    ``TERM_MATCH_THRESHOLD``; pairs are claimed greedily in descending
    similarity.
    """
    if not a.terms or not b.terms:
        raise ValidationError("overlap requires non-empty term sets")
    unique = sorted(set(a.terms) | set(b.terms))
    vectors = dict(zip(unique, embedder.embed(unique)))
    pairs = []
    for s in a.terms:
        for t in b.terms:
            sim = float(np.dot(vectors[s], vectors[t]))
            if sim >= TERM_MATCH_THRESHOLD:
                pairs.append((sim, s, t))
    # Descending similarity; term texts break exact ties deterministically.
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    used_a: Set[str] = set()
    used_b: Set[str] = set()
    matched = 0
    for _, s, t in pairs:
        if s in used_a or t in used_b:
            continue
        used_a.add(s)
        used_b.add(t)
        matched += 1
    return matched / min(len(a.terms), len(b.terms))


def follow_citations(
    docs: Sequence[Document],
    corpus: Corpus,
    query: QueryState,
    exclude: Iterable[str] = (),
) -> List[Document]:
    """Deduplicated citation targets of ``docs``, already-seen ids skipped,
    ordered by score against the query (descending) then id."""
    excluded = set(exclude)
    seen: Set[str] = set()
    targets: List[Document] = []
    for doc in docs:
        for cid in doc.citations:
            if cid in excluded or cid in seen or cid not in corpus:
                continue
            seen.add(cid)
            targets.append(corpus.get(cid))
    targets.sort(key=lambda d: (-score(query, d), d.id))
    return targets


# Document and QueryState hold unit vectors, so a row's product with the query
# equals its ``score`` up to rounding (BLAS may sum in another order than np.dot;
# ``score`` divides by norms within an ulp of 1): ~1e-14 apart at d = 64. Every
# top-k document by ``score`` thus has a product within this margin of the k-th.
RANK_MARGIN = 1e-9


def _top_unseen(
    docs: Sequence[Document], matrix: np.ndarray, query: QueryState, exclude: Set[str], k: int
) -> List[Document]:
    """The first ``k`` documents by (-score, id) not in ``exclude``: one product
    with ``matrix`` (embeddings as rows) ranks all, ``score`` orders the cut."""
    seen = np.fromiter((d.id in exclude for d in docs), bool, len(docs))
    products = matrix @ query.vector
    products[seen] = -np.inf
    k = min(k, len(docs) - int(seen.sum()))
    kth = np.partition(products, -k)[-k] if k else np.inf  # no k: nothing is kept
    near = [docs[i] for i in np.flatnonzero(products >= kth - RANK_MARGIN)]
    near.sort(key=lambda d: (-score(query, d), d.id))
    return near[:k]


@dataclass
class LayerTrace:
    layer: int
    mode: str
    doc_ids: List[str]
    scores: List[float]
    max_score: Optional[float]
    overlap_with_previous: Optional[float]
    collected: List[str]


@dataclass
class RetrievalTrace:
    layers: List[LayerTrace] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def stop_layer(self) -> int:
        """The layer the walk stopped after: every reason stops after a whole layer."""
        return len(self.layers)

    def to_json(self) -> Dict[str, object]:
        return {**asdict(self), "stop_layer": self.stop_layer}


@dataclass
class RetrievalResult:
    documents: List[Document]
    trace: RetrievalTrace

    @property
    def document_ids(self) -> List[str]:
        return [d.id for d in self.documents]


def retrieve(
    q0: QueryState,
    corpus: Corpus,
    params: RetrievalParams,
    embedder: Embedder,
) -> RetrievalResult:
    """Alternating breadth/depth walk with three-way termination.

    Odd layers rank the whole corpus with one matrix-vector product for the
    top-k unseen documents, and exact cosine (``score``) orders those near
    the cut, so traces match a full sort by score; even layers follow
    citations of the previous layer. Documents scoring at or above the
    relevance floor join the result set. After each layer the query is
    updated; the walk stops on query stagnation (overlap with the previous
    query above tau, first checked after layer 2), then on a sub-floor best
    score, then on the layer cap. Only the first triggered reason is recorded.
    """
    if len(corpus) == 0:
        return RetrievalResult(documents=[], trace=RetrievalTrace(stop_reason="no-documents"))

    trace = RetrievalTrace()
    docs = corpus.documents()
    matrix = np.stack([_checked_embedding(q0, d) for d in docs])
    collected: List[Document] = []
    collected_ids: Set[str] = set()
    query = q0
    prev_layer_docs: List[Document] = []

    for t in range(1, params.l_max + 1):
        if t % 2 == 1:
            layer_docs = _top_unseen(docs, matrix, query, collected_ids, params.k_per_layer)
            mode = BFS
        else:
            layer_docs = follow_citations(
                prev_layer_docs, corpus, query, exclude=collected_ids
            )
            mode = DFS

        scores = [score(query, d) for d in layer_docs]
        max_score = max(scores) if scores else None
        newly = []
        for doc, s in zip(layer_docs, scores):
            if s >= params.relevance_eps and doc.id not in collected_ids:
                collected.append(doc)
                collected_ids.add(doc.id)
                newly.append(doc.id)

        updated = update_query(query, layer_docs, params.alpha, params.term_window)
        overlap_val: Optional[float] = None
        if t >= 2:
            overlap_val = overlap(updated, query, embedder)

        trace.layers.append(
            LayerTrace(
                layer=t,
                mode=mode,
                doc_ids=[d.id for d in layer_docs],
                scores=scores,
                max_score=max_score,
                overlap_with_previous=overlap_val,
                collected=newly,
            )
        )

        if overlap_val is not None and overlap_val > params.overlap_tau:
            trace.stop_reason = "overlap"
            break
        if max_score is None or max_score < params.relevance_eps:
            trace.stop_reason = "relevance-floor"
            break
        if t == params.l_max:
            trace.stop_reason = "layer-cap"
            break
        query = updated
        prev_layer_docs = layer_docs

    return RetrievalResult(documents=collected, trace=trace)
