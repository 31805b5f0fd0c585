"""Key-term extraction, query evolution, and the citation-walk stop triad."""

import hashlib
import math
import zipfile

import numpy as np
import pytest

from conftest import write_corpus
from forge.errors import EmptyQueryError, LoadError, ValidationError
from forge.providers import ScriptedEmbedder, unit_vector
from forge.retrieval import (
    MAX_KEY_TERMS,
    Corpus,
    CorpusStats,
    Document,
    QueryState,
    RetrievalParams,
    _tokens,
    _top_unseen,
    construct_initial_query,
    extract_key_terms,
    follow_citations,
    index_corpus,
    load_corpus,
    overlap,
    retrieve,
    score,
    update_query,
    write_embeddings,
)


def _unit(*coords, dim=8):
    v = np.zeros(dim)
    for i, c in coords:
        v[i] = c
    return v / np.linalg.norm(v)


def _basis(i, dim=8):
    return _unit((i, 1.0), dim=dim)


# ---------------------------------------------------------------------------
# term extraction


def test_extract_key_terms_filters_and_ranks():
    text = "The deep deep network predicts perturbation response in 2024"
    # "deep" has frequency 2; singles tie and sort lexicographically
    terms = extract_key_terms(text)
    assert terms[0] == "deep"
    assert terms[1:] == ["network", "perturbation", "predicts", "response"]
    assert "the" not in terms and "in" not in terms and "2024" not in terms


def test_extract_key_terms_respects_limit_and_raises_when_empty():
    words = [f"term{n:02d}" for n in range(MAX_KEY_TERMS + 8)]
    # all frequencies tie, so the cap keeps the lexicographically first
    assert extract_key_terms(" ".join(reversed(words))) == words[:MAX_KEY_TERMS]
    with pytest.raises(EmptyQueryError):
        extract_key_terms("   ")
    with pytest.raises(EmptyQueryError):
        extract_key_terms("42 a the 7")


def test_corpus_stats_damp_ubiquitous_terms():
    stats = CorpusStats.of(["common", "Common ground", "the common case"])
    assert stats.icf("common") == pytest.approx(1.0)
    assert stats.icf("rare") == pytest.approx(math.log(4.0) + 1.0)
    # frequency 2 of "common" loses to frequency 1 of "rare" once damped
    assert extract_key_terms("common common rare") == ["common", "rare"]
    assert extract_key_terms("common common rare", stats) == ["rare", "common"]


def test_hyphenated_tokens_survive():
    assert extract_key_terms("single-cell rna") == ["rna", "single-cell"]


# ---------------------------------------------------------------------------
# documents and corpus loading


def _per_token_frequencies(docs):
    """Document frequencies as first defined: each document's filtered
    tokens, deduplicated, counted one term at a time."""
    df = {}
    for doc in docs:
        for term in set(_tokens(doc.text)):
            df[term] = df.get(term, 0) + 1
    return df


def _table(stats):
    return dict(zip(stats.terms.astype(str).tolist(), stats.counts.tolist()))


def test_document_frequencies_match_the_per_token_definition():
    # Hyphens, apostrophes, digits, and characters whose lowercase differs in
    # length or letter (ß stays, İ gains a combining dot, Kelvin becomes k).
    texts = [
        "The T-cell's knock-out of KO-2 genes; Don't re-use 42 or 7b.",
        "co-culture CO-CULTURE co-culture's naïve Ärger café ß x 3 12 a1",
        "THE and OF to -- ' 2024-01 rock'n'roll well-known Well-Known",
        "Zürich ZÜRICH zürich's 9-9 q-b b-q BRCA1 brca1 İi \u212aelvin kelvin's",
    ]
    docs = [Document(id=f"d{i}", text=t, embedding=[1.0, 0.0]) for i, t in enumerate(texts)]
    stats = Corpus(docs).stats
    assert stats.terms.dtype.kind == "S" and stats.counts.dtype == np.int32
    assert _table(stats) == _per_token_frequencies(docs)
    got = _table(stats)
    assert got["co-culture"] == 1 and got["well-known"] == 1 and got["brca1"] == 1
    assert got["kelvin"] == got["kelvin's"] == 1
    assert "i" not in got and "ii" not in got  # "İi" lowers to "i", a combining dot, "i"
    # stopwords, digits, one-letter tokens and strings that are no token count 0
    for term in ("the", "42", "x", "ko-", "KO", "co culture", "absent", ""):
        assert term not in got
        assert stats.icf(term) == pytest.approx(math.log(5.0) + 1.0)
    assert stats.icf("brca1") == pytest.approx(math.log(5 / 2) + 1.0)
    # random strings over token characters, separators and the same letters
    rng = np.random.default_rng(7)
    alphabet = list("ab0-' x\n") + ["--", "'", "ß", "İ", "\u212a", "A", "B", "K"]
    texts = ["".join(rng.choice(alphabet, size=rng.integers(0, 14))) for _ in range(10000)]
    docs = [Document(id=f"r{i:05d}", text=t, embedding=[1.0]) for i, t in enumerate(texts)]
    assert _table(CorpusStats.of(texts)) == _per_token_frequencies(docs)


def test_document_frequencies_of_a_benchmark_sized_corpus():
    # 5,000 documents of 80 words from a 30,000-word syllable vocabulary, as
    # the deliberation benchmark's corpus is built.
    rng = np.random.default_rng(3)
    syllables = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
    vocab = sorted({"".join(syllables[i] for i in row)
                    for row in rng.integers(0, len(syllables), size=(40000, 3))})[:30000]
    texts = [" ".join(vocab[j] for j in rng.integers(0, len(vocab), size=80)) + "\n"
             for _ in range(5000)]
    docs = [Document(id=f"d{i:05d}", text=t, embedding=[1.0]) for i, t in enumerate(texts)]
    stats = Corpus(docs).stats
    want = _per_token_frequencies(docs)
    assert len(want) > 25000 and _table(stats) == want
    for term in list(want)[:50]:
        assert stats.icf(term) == math.log(5001 / (1 + want[term])) + 1.0


def test_document_normalizes_embedding():
    doc = Document(id="d", text="body", embedding=[3.0, 4.0])
    assert doc.embedding == pytest.approx([0.6, 0.8])
    with pytest.raises(ValidationError):
        Document(id="d", text="body", embedding=[0.0, 0.0])


def test_corpus_rejects_duplicates_and_drops_dangling_citations():
    docs = [
        Document(id="a", text="alpha", embedding=[1.0, 0.0], citations=("b", "ghost")),
        Document(id="b", text="beta", embedding=[0.0, 1.0]),
    ]
    corpus = Corpus(docs)
    assert corpus.get("a").citations == ("b",)
    assert [d.id for d in corpus.documents()] == ["a", "b"]
    corpus.documents().clear()  # each call hands out its own list
    assert [d.id for d in corpus.documents()] == ["a", "b"]
    assert corpus.stats.doc_count == 2
    with pytest.raises(ValidationError):
        Corpus([docs[1], Document(id="b", text="again", embedding=[1.0, 1.0])])


def test_load_corpus_round_trip(tmp_path):
    directory = write_corpus(
        tmp_path / "corpus",
        {"d1": "gene expression atlas", "d2": "perturbation screens"},
        citations=[("d1", "d2")],
    )
    corpus = load_corpus(str(directory), ScriptedEmbedder(dim=16))
    assert len(corpus) == 2
    assert corpus.get("d1").citations == ("d2",)
    assert np.linalg.norm(corpus.get("d2").embedding) == pytest.approx(1.0)

    write_embeddings(corpus, str(directory))
    with np.load(directory / "embeddings.npz", allow_pickle=False) as index:
        assert index["ids"].tolist() == ["d1", "d2"]
        assert np.array_equal(index["vectors"], [d.embedding for d in corpus.documents()])
        assert index["texts"].tobytes() == b"gene expression atlasperturbation screens"
        assert index["offsets"].tolist() == [0, 21, 41]
        assert index["sha256"].tolist() == [
            hashlib.sha256(t).hexdigest().encode() for t in (b"gene expression atlas",
                                                             b"perturbation screens")]
        assert index["citations"].tolist() == [[0, 1]]
        assert index["terms"].tolist() == [b"atlas", b"expression", b"gene", b"perturbation",
                                           b"screens"]
        assert index["counts"].tolist() == [1] * 5

    class ForbiddenEmbedder(ScriptedEmbedder):
        def embed(self, texts):
            raise AssertionError("embedder must not run with embeddings.npz present")

    reloaded = load_corpus(str(directory), ForbiddenEmbedder(dim=16))
    for doc_id in ("d1", "d2"):
        # each stored row is divided by its norm as unit_vector divides it, bit for bit
        assert np.array_equal(reloaded.get(doc_id).embedding,
                              unit_vector(corpus.get(doc_id).embedding, doc_id))
        assert reloaded.get(doc_id).text == corpus.get(doc_id).text
    assert reloaded.get("d1").citations == ("d2",)
    assert _table(reloaded.stats) == _table(corpus.stats)


class CountingEmbedder(ScriptedEmbedder):
    def __init__(self):
        super().__init__(dim=16)
        self.texts = []

    def embed(self, texts):
        self.texts.extend(texts)
        return super().embed(texts)


def test_reindex_embeds_only_edited_texts(tmp_path):
    texts = {"d1": "gene expression atlas", "d2": "perturbation screens", "d3": "control means"}
    directory = write_corpus(tmp_path / "corpus", texts)
    embedder = CountingEmbedder()
    assert index_corpus(str(directory), embedder) == (3, str(directory / "embeddings.npz"))
    assert embedder.texts == list(texts.values())
    (directory / "d2.txt").write_text("perturbation screens, edited")
    embedder.texts.clear()
    index_corpus(str(directory), embedder)
    assert embedder.texts == ["perturbation screens, edited"]
    # the edited document loads with its new text and that text's embedding
    embedder.texts.clear()
    reloaded = load_corpus(str(directory), embedder)
    assert embedder.texts == []
    assert reloaded.get("d2").text == "perturbation screens, edited"
    edited = write_corpus(tmp_path / "edited", {**texts, "d2": "perturbation screens, edited"})
    fresh = load_corpus(str(edited), embedder)  # no index: every text embedded
    for doc_id in texts:
        assert np.allclose(reloaded.get(doc_id).embedding, fresh.get(doc_id).embedding, atol=1e-15)


def test_indexed_rows_match_unit_vector_bit_for_bit(tmp_path):
    # The load divides the stored rows by their norms as one matrix; the
    # per-row unit_vector it replaces is the reference.
    rng = np.random.default_rng(5)
    texts = {f"d{i:03d}": f"document number {i}" for i in range(300)}
    directory = write_corpus(tmp_path / "corpus", texts)
    corpus = Corpus([Document(id=i, text=t, embedding=[1.0]) for i, t in texts.items()])
    raw = rng.standard_normal((300, 64)) * rng.uniform(1e-3, 1e3, (300, 1))
    for doc, row in zip(corpus.documents(), raw):
        doc.embedding = row
    write_embeddings(corpus, str(directory))
    loaded = load_corpus(str(directory), ScriptedEmbedder())
    for doc, row in zip(loaded.documents(), raw):
        assert np.array_equal(doc.embedding, unit_vector(row, doc.id))
    corpus.get("d007").embedding = np.zeros(64)
    write_embeddings(corpus, str(directory))
    with pytest.raises(ValidationError, match="embedding of document 'd007' has a zero or non-finite"):
        load_corpus(str(directory), ScriptedEmbedder())


def test_load_corpus_error_paths(tmp_path):
    with pytest.raises(LoadError):
        load_corpus(str(tmp_path / "missing"), ScriptedEmbedder())
    directory = write_corpus(tmp_path / "corpus", {"d1": "text"})
    (directory / "citations.tsv").write_text("only-one-column\n")
    with pytest.raises(LoadError):
        load_corpus(str(directory), ScriptedEmbedder())
    (directory / "citations.tsv").unlink()
    (directory / "embeddings.npz").write_text("d1 0.5 0.5\n")
    with pytest.raises(LoadError, match="embeddings.npz: not a zip archive"):
        load_corpus(str(directory), ScriptedEmbedder())
    write_embeddings(Corpus([Document(id="d1", text="text", embedding=[1.0, 0.0])]), str(directory))
    with zipfile.ZipFile(directory / "embeddings.npz") as archive:
        members = {info: archive.read(info) for info in archive.infolist()}
    with zipfile.ZipFile(directory / "embeddings.npz", "w") as archive:
        for info, data in members.items():  # a member that is not in .npy format
            archive.writestr(info, b"not an array" if info.filename == "terms.npy" else data)
    with pytest.raises(LoadError, match="embeddings.npz: 'terms' must be a 1-D bytes array"):
        load_corpus(str(directory), ScriptedEmbedder())
    (directory / "embeddings.npz").rename(directory / "embeddings.tsv")
    with pytest.raises(LoadError, match="embeddings.tsv is a text index"):
        load_corpus(str(directory), ScriptedEmbedder())
    (directory / "embeddings.tsv").unlink()
    (directory / "empty.txt").write_text("   ")
    with pytest.raises(LoadError):
        load_corpus(str(directory), ScriptedEmbedder())


def test_load_corpus_empty_directory(tmp_path):
    tmp_path.joinpath("corpus").mkdir()
    corpus = load_corpus(str(tmp_path / "corpus"), ScriptedEmbedder())
    assert len(corpus) == 0


# ---------------------------------------------------------------------------
# query construction and evolution


def test_construct_initial_query_unions_terms():
    embedder = ScriptedEmbedder(dim=16)
    q = construct_initial_query(
        "predict perturbation response", "single-cell rna dataset", embedder
    )
    assert q.terms == (
        "perturbation",
        "predict",
        "response",
        "dataset",
        "rna",
        "single-cell",
    )
    expected = embedder.embed_one(" ".join(q.terms))
    assert q.vector == pytest.approx(expected)


def test_construct_initial_query_tolerates_one_empty_source():
    embedder = ScriptedEmbedder(dim=8)
    q = construct_initial_query("useful terms here", "1 2 3", embedder)
    assert q.terms == ("terms", "useful")
    with pytest.raises(EmptyQueryError):
        construct_initial_query("1 2", "the a", embedder)


def test_score_is_cosine():
    q = QueryState(vector=[1.0, 0.0], terms=("t",))
    assert score(q, Document(id="d", text="x", embedding=[1.0, 1.0])) == pytest.approx(
        1.0 / math.sqrt(2.0)
    )
    with pytest.raises(ValidationError):
        score(q, Document(id="d", text="x", embedding=[1.0, 0.0, 0.0]))


def test_retrieve_rejects_mismatched_dimensions():
    q0 = QueryState(vector=[1.0, 0.0], terms=("t",))
    mixed = Corpus([Document(id="a", text="x", embedding=[1.0, 0.0]),
                    Document(id="b", text="y", embedding=[1.0, 0.0, 0.0])])
    wider = Corpus([Document(id="a", text="x", embedding=[1.0, 0.0, 0.0]),
                    Document(id="b", text="y", embedding=[0.0, 1.0, 0.0])])
    for corpus in (mixed, wider):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            retrieve(q0, corpus, RetrievalParams(), ScriptedEmbedder(dim=2))


# ---------------------------------------------------------------------------
# the breadth layer: one product, exact order at the cut


def _full_sort_layer(docs, query, exclude, k):
    """A breadth layer as first defined: every unseen document sorted by
    (-score, id)."""
    candidates = [d for d in docs if d.id not in exclude]
    candidates.sort(key=lambda d: (-score(query, d), d.id))
    return candidates[:k]


def _assert_layer_matches_full_sort(docs, query, exclude, k):
    matrix = np.stack([d.embedding for d in docs])
    got = _top_unseen(docs, matrix, query, exclude, k)
    want = _full_sort_layer(docs, query, exclude, k)
    assert [d.id for d in got] == [d.id for d in want]
    assert [score(query, d) for d in got] == [score(query, d) for d in want]
    assert not {d.id for d in got} & set(exclude)
    return got


def _shuffled_docs(rng, vectors):
    ids = [f"doc{i:04d}" for i in rng.permutation(len(vectors))]
    docs = [Document(id=i, text="x", embedding=v) for i, v in zip(ids, vectors)]
    return Corpus(docs).documents()


@pytest.mark.parametrize("seed", range(6))
def test_top_unseen_matches_full_sort_on_random_corpora(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 8, 64]))
    vectors = rng.standard_normal((400, dim))
    # exact duplicates: their ties are broken by id
    vectors[rng.choice(400, 60)] = vectors[rng.choice(400, 60)]
    docs = _shuffled_docs(rng, vectors)
    for _ in range(5):
        query = QueryState(vector=rng.standard_normal(dim), terms=("t",))
        exclude = {d.id for d in docs if rng.random() < 0.3}
        for k in (1, 5, 17):
            _assert_layer_matches_full_sort(docs, query, exclude, k)


def test_top_unseen_breaks_duplicate_ties_by_id():
    rng = np.random.default_rng(7)
    shared = rng.standard_normal(64)
    docs = _shuffled_docs(rng, [shared] * 12 + list(rng.standard_normal((30, 64))))
    query = QueryState(vector=shared, terms=("t",))
    got = _assert_layer_matches_full_sort(docs, query, set(), 5)
    assert [d.id for d in got] == sorted(d.id for d in got)


def test_top_unseen_orders_near_ties_by_exact_score():
    # Scores apart by about 1e-15: the product may order them otherwise,
    # and only ``score`` may decide.
    rng = np.random.default_rng(11)
    base = rng.standard_normal(64)
    base /= np.linalg.norm(base)
    vectors = [base + 1e-15 * rng.standard_normal(64) for _ in range(40)]
    docs = _shuffled_docs(rng, vectors + list(rng.standard_normal((200, 64))))
    query = QueryState(vector=base, terms=("t",))
    scores = sorted(score(query, d) for d in docs)[-40:]
    assert scores[-1] - scores[0] < 1e-14 and len(set(scores)) > 1
    for k in (1, 5, 39):
        _assert_layer_matches_full_sort(docs, query, set(), k)


def test_top_unseen_with_few_or_no_unseen_documents():
    rng = np.random.default_rng(3)
    docs = _shuffled_docs(rng, rng.standard_normal((20, 8)))
    query = QueryState(vector=rng.standard_normal(8), terms=("t",))
    best = _full_sort_layer(docs, query, set(), 20)
    # the best documents are collected: masked, they never come back
    exclude = {d.id for d in best[:18]}
    got = _assert_layer_matches_full_sort(docs, query, exclude, 5)
    assert [d.id for d in got] == [d.id for d in best[18:]]
    everything = {d.id for d in docs}
    assert _assert_layer_matches_full_sort(docs, query, everything, 5) == []


def test_update_query_blends_and_windows():
    q = QueryState(vector=[1.0, 0.0], terms=("seed",))
    doc = Document(id="d", text="fresh words", embedding=[0.0, 1.0])
    updated = update_query(q, [doc], alpha=0.7)
    expected = np.array([0.7, 0.3]) / math.sqrt(0.58)
    assert updated.vector == pytest.approx(expected)
    assert updated.terms == ("seed", "fresh", "words")

    # empty layer: vector and terms untouched
    idle = update_query(q, [], alpha=0.7)
    assert idle.vector == pytest.approx(q.vector)
    assert idle.terms == q.terms

    # the window keeps only the most recent terms
    trimmed = update_query(q, [doc], alpha=0.7, term_window=2)
    assert trimmed.terms == ("fresh", "words")

    # an exactly-cancelling blend falls back to the old vector
    opposite = Document(id="o", text="noise", embedding=[-1.0, 0.0])
    kept = update_query(q, [opposite], alpha=0.5)
    assert kept.vector == pytest.approx(q.vector)

    with pytest.raises(ValidationError):
        update_query(q, [doc], alpha=1.5)


def test_overlap_greedy_one_to_one_matching():
    e = ScriptedEmbedder(
        dim=4,
        overrides={
            "s1": [1.0, 0.0, 0.0, 0.0],
            "s2": [0.0, 1.0, 0.0, 0.0],
            "t1": [1.0, 0.0, 0.0, 0.0],
            "t2": [1.0, 0.1, 0.0, 0.0],
        },
    )
    a = QueryState(vector=[1.0, 0.0], terms=("s1", "s2"))
    b = QueryState(vector=[1.0, 0.0], terms=("t1", "t2"))
    # s1 matches both t1 and t2 but may claim only one; s2 matches nothing
    assert overlap(a, b, e) == pytest.approx(0.5)
    assert overlap(a, a, e) == pytest.approx(1.0)
    disjoint = QueryState(vector=[1.0, 0.0], terms=("s2",))
    only_t1 = QueryState(vector=[1.0, 0.0], terms=("t1",))
    assert overlap(disjoint, only_t1, e) == 0.0
    with pytest.raises(ValidationError):
        overlap(a, QueryState(vector=[1.0, 0.0], terms=()), e)


def test_follow_citations_orders_and_excludes():
    docs = [
        Document(id="a", text="x", embedding=_basis(0), citations=("c", "b", "c")),
        Document(id="b", text="x", embedding=_basis(1), citations=("d",)),
    ]
    corpus = Corpus(
        docs
        + [
            Document(id="c", text="x", embedding=_basis(2)),
            Document(id="d", text="x", embedding=_basis(3)),
        ]
    )
    # every target scores 0 against "a"'s direction: ties fall back to id
    tied = QueryState(vector=_basis(0), terms=("t",))
    plain = follow_citations([corpus.get("a"), corpus.get("b")], corpus, tied)
    assert [d.id for d in plain] == ["b", "c", "d"]
    # the score orders first: make "d" most similar
    q = QueryState(vector=_basis(3), terms=("t",))
    ranked = follow_citations([corpus.get("a"), corpus.get("b")], corpus, q)
    assert [d.id for d in ranked] == ["d", "b", "c"]
    excluded = follow_citations([corpus.get("a")], corpus, q, exclude={"c"})
    assert [d.id for d in excluded] == ["b"]


def test_retrieval_params_validation():
    with pytest.raises(ValidationError):
        RetrievalParams(l_max=0)
    with pytest.raises(ValidationError):
        RetrievalParams(overlap_tau=1.5)
    with pytest.raises(ValidationError):
        RetrievalParams(alpha=-0.1)
    with pytest.raises(ValidationError):
        RetrievalParams(k_per_layer=0)
    with pytest.raises(ValidationError):
        RetrievalParams(term_window=0)


# ---------------------------------------------------------------------------
# the walk and its three stop reasons


def test_retrieve_relevance_floor_at_layer_one():
    # documents orthogonal to the query never clear the floor
    corpus = Corpus(
        [
            Document(id="far1", text="unrelated words", embedding=_basis(1)),
            Document(id="far2", text="other topics", embedding=_basis(2)),
        ]
    )
    q0 = QueryState(vector=_basis(0), terms=("query",))
    result = retrieve(q0, corpus, RetrievalParams(), ScriptedEmbedder(dim=8))
    assert result.documents == []
    trace = result.trace
    assert trace.stop_reason == "relevance-floor"
    assert trace.stop_layer == len(trace.layers) == 1
    first = trace.layers[0]
    assert first.mode == "bfs"
    assert first.doc_ids == ["far1", "far2"]
    assert first.scores == pytest.approx([0.0, 0.0])
    assert first.overlap_with_previous is None
    assert first.collected == []


def test_retrieve_overlap_stop_after_layer_two():
    shared = _basis(0)
    term_overrides = {t: list(shared) for t in ("alpha", "beta", "gamma")}
    embedder = ScriptedEmbedder(dim=8, overrides=term_overrides)
    corpus = Corpus(
        [
            Document(id="a", text="alpha beta", embedding=shared, citations=("b",)),
            Document(id="b", text="alpha gamma", embedding=shared),
        ]
    )
    q0 = QueryState(vector=shared, terms=("alpha",))
    params = RetrievalParams(alpha=1.0, k_per_layer=1)
    result = retrieve(q0, corpus, params, embedder)
    trace = result.trace
    assert trace.stop_reason == "overlap"
    assert trace.stop_layer == len(trace.layers) == 2
    assert result.document_ids == ["a", "b"]
    assert [l.mode for l in trace.layers] == ["bfs", "dfs"]
    assert trace.layers[0].doc_ids == ["a"]
    assert trace.layers[1].doc_ids == ["b"]
    assert trace.layers[0].overlap_with_previous is None
    assert trace.layers[1].overlap_with_previous == pytest.approx(1.0)
    assert trace.layers[1].max_score == pytest.approx(1.0)


def _layer_cap_fixture(dim=64):
    shared = np.zeros(dim)
    shared[0] = 1.0
    overrides = {}
    docs = []
    for n in range(1, 11):
        text = f"aterm{n:02d} bterm{n:02d}"
        overrides[f"aterm{n:02d}"] = list(np.eye(dim)[2 * n])
        overrides[f"bterm{n:02d}"] = list(np.eye(dim)[2 * n + 1])
        cites = (f"c{n + 1:02d}",) if n % 2 == 1 else ()
        docs.append(Document(id=f"c{n:02d}", text=text, embedding=shared, citations=cites))
    overrides["seed01"] = list(np.eye(dim)[62])
    overrides["seed02"] = list(np.eye(dim)[63])
    corpus = Corpus(docs)
    q0 = QueryState(vector=shared, terms=("seed01", "seed02"))
    embedder = ScriptedEmbedder(dim=dim, overrides=overrides)
    return corpus, q0, embedder


def test_retrieve_layer_cap_at_ten():
    corpus, q0, embedder = _layer_cap_fixture()
    params = RetrievalParams(l_max=10, k_per_layer=1, term_window=2)
    result = retrieve(q0, corpus, params, embedder)
    trace = result.trace
    assert trace.stop_reason == "layer-cap"
    assert trace.stop_layer == len(trace.layers) == 10
    assert result.document_ids == [f"c{n:02d}" for n in range(1, 11)]
    assert [l.mode for l in trace.layers] == ["bfs", "dfs"] * 5
    for layer in trace.layers:
        assert layer.scores == pytest.approx([1.0])
        if layer.layer >= 2:
            # fresh orthogonal terms every layer: zero stagnation
            assert layer.overlap_with_previous == pytest.approx(0.0)


def test_retrieve_empty_corpus():
    q0 = QueryState(vector=[1.0, 0.0], terms=("t",))
    result = retrieve(q0, Corpus([]), RetrievalParams(), ScriptedEmbedder(dim=2))
    assert result.documents == []
    assert result.trace.stop_reason == "no-documents"
    assert result.trace.stop_layer == len(result.trace.layers) == 0
    assert result.trace.to_json() == {"layers": [], "stop_reason": "no-documents", "stop_layer": 0}


def test_retrieve_is_deterministic():
    corpus, q0, embedder = _layer_cap_fixture()
    params = RetrievalParams(l_max=6, k_per_layer=1, term_window=2)
    first = retrieve(q0, corpus, params, embedder)
    second = retrieve(q0, corpus, params, embedder)
    assert first.trace.to_json() == second.trace.to_json()
    assert first.document_ids == second.document_ids
