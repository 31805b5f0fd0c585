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
``embeddings.npz`` index (unicode ``ids``, a float64 ``vectors`` row per id)
that spares the embedder at load time; an old ``embeddings.tsv`` is refused.
"""

from __future__ import annotations

import logging
import math
import os
import re
import zipfile
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


def _token_pattern(term: str) -> re.Pattern:
    # Matches exactly where ``_TOKEN_RE.findall`` returns ``term`` whole.
    # The literal leads so that ``re`` can search for it as a prefix.
    e = re.escape(term)
    return re.compile(rf"{e}(?<![a-z0-9]{e})(?<![a-z0-9][-']{e})(?![a-z0-9]|[-'][a-z0-9])")


class CorpusStats:
    """Document frequencies used to damp ubiquitous terms, each counted
    over the corpus texts the first time it is asked for."""

    def __init__(self, texts: Sequence[str]):
        self._texts = texts  # the documents' own strings, not a copy
        self.doc_count = len(texts)
        self._doc_freq: Dict[str, int] = {}

    def count(self, terms: Iterable[str]) -> None:
        """Count the terms not counted yet, in one pass over the texts: a
        document counts when the term is one of its tokens. Stopwords,
        digits and strings that are no token count 0."""
        todo = {t: _token_pattern(t) for t in terms if t not in self._doc_freq
                and _is_term(t) and _TOKEN_RE.fullmatch(t)}
        if not todo:
            return
        self._doc_freq.update(dict.fromkeys(todo, 0))
        for text in self._texts:
            lowered = text.lower()
            for term, pattern in todo.items():
                if term in lowered and pattern.search(lowered):
                    self._doc_freq[term] += 1

    def icf(self, term: str) -> float:
        # Smoothed inverse corpus frequency; strictly positive.
        self.count((term,))
        return math.log((1 + self.doc_count) / (1 + self._doc_freq.get(term, 0))) + 1.0


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
    if stats is not None:
        stats.count(counts)
    scored = []
    for term, freq in counts.items():
        weight = float(freq)
        if stats is not None:
            weight *= stats.icf(term)
        scored.append((term, weight))
    scored.sort(key=lambda tw: (-tw[1], tw[0]))
    return [term for term, _ in scored[:MAX_KEY_TERMS]]


@dataclass
class Document:
    """One corpus entry: body text, unit embedding, outgoing citations."""

    id: str
    text: str
    embedding: np.ndarray
    citations: Tuple[str, ...] = ()

    def __post_init__(self):
        self.embedding = unit_vector(self.embedding, f"embedding of document {self.id!r}")
        self.citations = tuple(self.citations)


class Corpus:
    """Immutable, id-ordered collection of documents with citation edges."""

    def __init__(self, documents: Sequence[Document]):
        self._docs: Dict[str, Document] = {}
        for doc in documents:
            if doc.id in self._docs:
                raise ValidationError(f"duplicate document id {doc.id!r}")
            self._docs[doc.id] = doc
        # Drop citation edges pointing outside the corpus.
        for doc in self._docs.values():
            kept = tuple(c for c in doc.citations if c in self._docs)
            if len(kept) != len(doc.citations):
                dropped = [c for c in doc.citations if c not in self._docs]
                log.warning("document %s: dropping dangling citations %s", doc.id, dropped)
                doc.citations = kept
        self._docs = dict(sorted(self._docs.items()))  # ``documents()`` order
        self.stats = CorpusStats([doc.text for doc in self._docs.values()])

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def get(self, doc_id: str) -> Document:
        return self._docs[doc_id]

    def documents(self) -> List[Document]:
        """The documents in id order, as a new list."""
        return list(self._docs.values())


def _read_index(path: str) -> Dict[str, np.ndarray]:
    """Each id's row of the index at ``path``; a malformed index is a LoadError naming it."""
    try:
        if not zipfile.is_zipfile(path):
            raise ValueError("not a zip archive")
        with np.load(path, allow_pickle=False) as archive:
            ids, vectors = archive["ids"], archive["vectors"]
        if ids.ndim != 1 or ids.dtype.kind != "U" or len(set(ids.tolist())) != len(ids):
            raise ValueError("'ids' must be a 1-D unicode array of distinct ids")
        if vectors.ndim != 2 or vectors.dtype != np.float64 or len(vectors) != len(ids):
            raise ValueError("'vectors' must be a 2-D float64 array with one row per id")
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    return dict(zip(ids.tolist(), vectors))


def load_corpus(directory: str, embedder: Embedder) -> Corpus:
    """Read a corpus directory; embeds bodies lacking a precomputed row.
    A directory or file that cannot be read is a :class:`LoadError`."""
    if not os.path.isdir(directory):
        raise LoadError(f"corpus directory not found: {directory}")
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".txt"))
    except OSError as exc:
        raise LoadError(f"cannot list corpus directory {directory}: {exc}") from exc
    if not names:
        return Corpus([])

    index = os.path.join(directory, "embeddings.npz")
    text_index = os.path.join(directory, "embeddings.tsv")
    if os.path.exists(text_index) and not os.path.exists(index):
        # Re-embedding every document instead would bill an HTTP embedder.
        raise LoadError(f"{text_index} is a text index, which forge no longer reads: "
                        f"delete it and run `forge corpus index {directory}` again")
    precomputed = _read_index(index) if os.path.exists(index) else {}

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

    docs = []
    for name in names:
        doc_id = name[:-4]
        text = read_text(os.path.join(directory, name))
        if not text.strip():
            raise LoadError(f"document {doc_id!r} is empty")
        if doc_id in precomputed:
            embedding = precomputed[doc_id]
        else:
            embedding = embedder.embed_one(text)
        docs.append(
            Document(id=doc_id, text=text, embedding=embedding,
                     citations=tuple(citations.get(doc_id, ())))
        )
    return Corpus(docs)


def write_embeddings(corpus: Corpus, directory: str) -> str:
    """Persist every document embedding as embeddings.npz for fast reload,
    replacing an earlier index whole or not at all."""
    docs = corpus.documents()
    if len({doc.embedding.size for doc in docs}) > 1:
        raise ValidationError("cannot index embeddings of differing dimensions")
    path = os.path.join(directory, "embeddings.npz")
    with replacing(path) as fh:
        np.savez(fh, ids=np.array([doc.id for doc in docs], dtype=str),
                 vectors=np.stack([doc.embedding for doc in docs]) if docs else np.zeros((0, 0)))
    return path


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
