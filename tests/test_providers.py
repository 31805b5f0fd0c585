"""Provider boundary: scripted replay, HTTP clients, usage, and scoring."""

import json
import math

import numpy as np
import pytest

from forge.errors import FixtureUnderflowError, LoadError, ProviderError, ValidationError
from forge.providers import (
    ChatProvider,
    ChatTurn,
    GenerationParams,
    HttpChatProvider,
    HttpEmbedder,
    PricingTable,
    ReplyError,
    ScriptedChatProvider,
    ScriptedEmbedder,
    Usage,
    ask,
    cost_of,
    extract_score,
    load_fixture,
    synthesize_usage,
    unit_vector,
)
from forge.pipeline import ENV_EMB_URL, ENV_LLM_URL, build_providers, load_config
from forge.retrieval import Document, QueryState

PARAMS = GenerationParams()


class FakeResponse:
    def __init__(self, status_code, doc=None):
        self.status_code = status_code
        self._doc = doc

    def json(self):
        if self._doc is None:
            raise ValueError("no body")
        return self._doc


class FakeSession:
    """Queue of canned responses (or exceptions to raise) for post()."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        outcome = self._outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


# ---------------------------------------------------------------------------
# turns, params, usage


def test_chat_turn_validation():
    ChatTurn("user", "hello")
    with pytest.raises(ValidationError):
        ChatTurn("system", "hello")
    with pytest.raises(ValidationError):
        ChatTurn("user", "")


def test_generation_params_validation():
    with pytest.raises(ValidationError):
        GenerationParams(temperature=-0.1)
    with pytest.raises(ValidationError):
        GenerationParams(top_p=0.0)
    with pytest.raises(ValidationError):
        GenerationParams(top_p=1.2)


def test_usage_rejects_negative_counts():
    with pytest.raises(ValidationError):
        Usage(-1, 0)


def test_synthesize_usage_rounds_up():
    turns = [ChatTurn("user", "abcde"), ChatTurn("assistant", "xyz"), ChatTurn("user", "qq")]
    usage = synthesize_usage(turns, "12345")
    # 10 prompt chars -> ceil(10/4) = 3; 5 reply chars -> ceil(5/4) = 2
    assert (usage.prompt_tokens, usage.completion_tokens) == (3, 2)
    assert synthesize_usage([ChatTurn("user", "a")], "").completion_tokens == 0


# ---------------------------------------------------------------------------
# pricing


def test_default_pricing_costs():
    table = PricingTable.default()
    usage = Usage(60000, 300000)
    expected = {
        "claude-3.7-sonnet": 4.68,
        "openai-o1": 18.90,
        "deepseek-r1": 0.67,
        "qwen-plus": 0.38,
        "llama-3.1-405b": 1.26,
    }
    for model, dollars in expected.items():
        assert table.get(model).prompt_price > 0
        assert cost_of(usage, model, table) == pytest.approx(dollars, abs=0.005)


def test_pricing_table_edges():
    table = PricingTable()
    with pytest.raises(KeyError):
        table.get("unknown")
    with pytest.raises(ValidationError):
        table.add("m", -1.0, 0.0)
    loaded = PricingTable.from_json(
        {"m": {"prompt_price": 1.0, "completion_price": 2.0}}
    )
    assert cost_of(Usage(1_000_000, 500_000), "m", loaded) == pytest.approx(2.0)


@pytest.mark.parametrize("doc, named", [
    ([1, 2], "pricing table must be a JSON object"),
    ({"m": {"prompt_price": 1.0}}, "pricing table key m.completion_price is missing"),
    ({"m": {"prompt_price": "1", "completion_price": 2.0}},
     "pricing table key m.prompt_price must be a number: got '1'"),
    ({"m": {"prompt_price": -1.0, "completion_price": 2.0}},
     "bad pricing table section 'm': prices must be non-negative"),
], ids=["list", "missing-price", "string-price", "negative-price"])
def test_bad_pricing_row_is_a_load_error_naming_it(doc, named):
    with pytest.raises(LoadError) as info:
        PricingTable.from_json(doc)
    assert str(info.value) == named


# ---------------------------------------------------------------------------
# scripted chat


def test_scripted_chat_replays_in_order():
    provider = ScriptedChatProvider(["first", "second"])
    turns = [ChatTurn("user", "go")]
    reply, usage = provider.complete(turns)
    assert reply == "first"
    assert usage == synthesize_usage(turns, "first")
    assert provider.complete(turns)[0] == "second"
    assert (len(provider.calls), provider.remaining) == (2, 0)
    assert len(provider.calls) == 2 and provider.calls[0][0].text == "go"


def test_scripted_chat_underflow():
    provider = ScriptedChatProvider([])
    with pytest.raises(FixtureUnderflowError):
        provider.complete([ChatTurn("user", "go")])


def test_turn_sequence_checks():
    provider = ScriptedChatProvider(["x"])
    with pytest.raises(ValidationError):
        provider.complete([])
    with pytest.raises(ValidationError):
        provider.complete([ChatTurn("user", "q"), ChatTurn("assistant", "a")])


# ---------------------------------------------------------------------------
# ask: one exchange with one corrective turn


class ListRecorder(ChatProvider):
    """Keeps the very turn lists it is handed, so a later mutation shows."""

    def __init__(self, replies):
        self.inner = ScriptedChatProvider(replies)
        self.turn_lists = []

    def complete(self, turns):
        self.turn_lists.append(turns)
        return self.inner.complete(turns)


def _digits(reply):
    if not reply.isdigit():
        raise ReplyError(f"{reply!r} is not a number")
    return int(reply)


def _retry(reason):
    return f"fix it: {reason}"


def test_ask_accepts_first_reply_in_one_call():
    provider = ScriptedChatProvider(["42"])
    answer = ask(provider, "a number?", _digits, _retry)
    assert answer == (42, 1)
    assert len(provider.calls) == 1


def test_ask_retries_once_with_the_reason():
    provider = ListRecorder(["many", "7"])
    answer = ask(provider, "a number?", _digits, _retry)
    assert answer == (7, 2)
    first, second = provider.turn_lists
    assert [t.text for t in first] == ["a number?"]  # the first list is not extended
    assert [(t.role, t.text) for t in second] == [
        ("user", "a number?"),
        ("assistant", "many"),
        ("user", "fix it: 'many' is not a number"),
    ]


def test_ask_reprompts_an_empty_reply_without_its_turn():
    provider = ListRecorder(["", "7"])
    answer = ask(provider, "a number?", _digits, _retry)
    assert answer == (7, 2)
    assert [(t.role, t.text) for t in provider.turn_lists[1]] == [
        ("user", "a number?"),
        ("user", "fix it: '' is not a number"),
    ]
    provider = ScriptedChatProvider(["", ""])
    with pytest.raises(ReplyError) as excinfo:
        ask(provider, "a number?", _digits, _retry)
    assert excinfo.value.reply == "" and len(provider.calls) == 2


def test_ask_raises_the_second_rejection_with_its_reply():
    provider = ScriptedChatProvider(["many", "more"])
    with pytest.raises(ReplyError, match="'more' is not a number") as excinfo:
        ask(provider, "a number?", _digits, _retry)
    assert excinfo.value.reply == "more"
    assert len(provider.calls) == 2


# ---------------------------------------------------------------------------
# HTTP chat


def test_http_chat_success_and_request_shape():
    session = FakeSession(
        [FakeResponse(200, {"text": "hi", "usage": {"prompt_tokens": 7, "completion_tokens": 2}})]
    )
    provider = HttpChatProvider("https://api.test/v1", GenerationParams(model="m", max_tokens=64),
                                api_key="k", session=session, sleep=lambda s: None)
    reply, usage = provider.complete([ChatTurn("user", "hello")])
    assert (reply, usage) == ("hi", Usage(7, 2))
    sent = session.requests[0]
    assert sent["json"] == {
        "model": "m",
        "messages": [{"role": "user", "content": "hello"}],
        "temperature": 0.7,
        "top_p": 0.95,
        "max_tokens": 64,
    }
    assert sent["headers"]["Authorization"] == "Bearer k"


def test_http_chat_omits_optional_fields():
    session = FakeSession([FakeResponse(200, {"text": "ok"})])
    provider = HttpChatProvider("https://api.test/v1", PARAMS, session=session, sleep=lambda s: None)
    reply, usage = provider.complete([ChatTurn("user", "q")])
    assert (reply, usage) == ("ok", Usage(0, 0))
    sent = session.requests[0]
    assert "max_tokens" not in sent["json"]
    assert "Authorization" not in sent["headers"]


def test_http_chat_retries_server_errors():
    session = FakeSession([FakeResponse(503), FakeResponse(200, {"text": "ok"})])
    sleeps = []
    provider = HttpChatProvider(
        "https://api.test/v1", PARAMS, retries=3, backoff=1.0, session=session, sleep=sleeps.append
    )
    assert provider.complete([ChatTurn("user", "q")])[0] == "ok"
    assert sleeps == [1.0]


def test_http_chat_client_error_fails_fast():
    session = FakeSession([FakeResponse(401)])
    provider = HttpChatProvider("https://api.test/v1", PARAMS, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderError):
        provider.complete([ChatTurn("user", "q")])
    assert len(session.requests) == 1


def test_http_chat_exhausts_retries_with_backoff():
    session = FakeSession([ConnectionError("down")] * 3)
    sleeps = []
    provider = HttpChatProvider(
        "https://api.test/v1", PARAMS, retries=3, backoff=0.5, session=session, sleep=sleeps.append
    )
    with pytest.raises(ProviderError, match="after 3 attempts"):
        provider.complete([ChatTurn("user", "q")])
    assert sleeps == [0.5, 1.0, 2.0]


def test_http_chat_bad_bodies():
    provider = HttpChatProvider(
        "https://api.test/v1", PARAMS, session=FakeSession([FakeResponse(200)]), sleep=lambda s: None
    )
    with pytest.raises(ProviderError, match="non-JSON"):
        provider.complete([ChatTurn("user", "q")])
    provider = HttpChatProvider(
        "https://api.test/v1",
        PARAMS,
        session=FakeSession([FakeResponse(200, {"usage": {}})]),
        sleep=lambda s: None,
    )
    with pytest.raises(ProviderError, match="missing 'text'"):
        provider.complete([ChatTurn("user", "q")])
    provider = HttpChatProvider(
        "https://api.test/v1",
        PARAMS,
        session=FakeSession([FakeResponse(200, ["text"])]),
        sleep=lambda s: None,
    )
    with pytest.raises(ProviderError, match="not a JSON object"):
        provider.complete([ChatTurn("user", "q")])


def test_build_providers_sends_the_generation_section(monkeypatch):
    import requests

    session = FakeSession([FakeResponse(200, {"text": "ok"})])
    monkeypatch.setattr(requests, "Session", lambda: session)
    monkeypatch.setenv(ENV_LLM_URL, "https://api.test/v1")
    monkeypatch.setenv(ENV_EMB_URL, "https://api.test/emb")
    config = load_config(overrides={
        "provider": {"type": "http"},
        "generation": {"model": "m-live", "temperature": 0.2, "top_p": 0.5, "max_tokens": 32},
    })
    chat, _ = build_providers(config)
    chat.complete([ChatTurn("user", "q")])
    assert session.requests[0]["json"] == {
        "model": "m-live", "messages": [{"role": "user", "content": "q"}],
        "temperature": 0.2, "top_p": 0.5, "max_tokens": 32,
    }


@pytest.mark.parametrize(
    "usage,field",
    [
        ([1, 2], "'usage'"),
        (None, "'usage'"),
        ({"prompt_tokens": "many"}, "usage.prompt_tokens"),
        ({"prompt_tokens": None}, "usage.prompt_tokens"),
        ({"prompt_tokens": -3}, "usage.prompt_tokens"),
        ({"completion_tokens": 2.0}, "usage.completion_tokens"),
        ({"completion_tokens": True}, "usage.completion_tokens"),
    ],
)
def test_http_chat_rejects_malformed_usage(usage, field):
    session = FakeSession([FakeResponse(200, {"text": "ok", "usage": usage})])
    provider = HttpChatProvider("https://api.test/v1", PARAMS, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderError, match=field):
        provider.complete([ChatTurn("user", "q")])


@pytest.mark.parametrize("text", [None, ["a"], {"x": 1}])
def test_http_chat_rejects_a_text_that_is_not_a_string(text):
    session = FakeSession([FakeResponse(200, {"text": text})])
    provider = HttpChatProvider("https://api.test/v1", PARAMS, session=session, sleep=lambda s: None)
    with pytest.raises(ProviderError, match="'text'"):
        provider.complete([ChatTurn("user", "q")])


# ---------------------------------------------------------------------------
# embedders


def test_scripted_embedder_is_deterministic_and_unit_norm():
    emb = ScriptedEmbedder(dim=16, seed=3)
    a1, a2, b = emb.embed(["alpha", "alpha", "beta"])
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert np.linalg.norm(a1) == pytest.approx(1.0, abs=1e-12)
    assert a1.shape == (16,)
    # a different seed relocates the vectors
    assert not np.array_equal(ScriptedEmbedder(dim=16, seed=4).embed_one("alpha"), a1)


def test_scripted_embedder_overrides():
    emb = ScriptedEmbedder(dim=3, overrides={"pinned": [3.0, 0.0, 4.0]})
    vec = emb.embed_one("pinned")
    assert vec == pytest.approx([0.6, 0.0, 0.8])
    wrong = ScriptedEmbedder(dim=4, overrides={"pinned": [1.0, 0.0]})
    with pytest.raises(ValidationError):
        wrong.embed_one("pinned")


def test_scripted_embedder_rejects_bad_input():
    with pytest.raises(ValidationError):
        ScriptedEmbedder(dim=1)
    emb = ScriptedEmbedder(dim=8)
    with pytest.raises(ValidationError):
        emb.embed([""])
    with pytest.raises(ValidationError):
        ScriptedEmbedder(dim=2, overrides={"z": [0.0, 0.0]})


def test_http_embedder_round_trip_and_errors():
    rows = [[1.0, 0.0], [3.0, 4.0]]
    session = FakeSession([FakeResponse(200, {"embeddings": rows})])
    emb = HttpEmbedder("https://api.test/emb", dim=2, session=session, sleep=lambda s: None)
    vecs = emb.embed(["a", "b"])
    assert vecs[0] == pytest.approx([1.0, 0.0])
    assert vecs[1] == pytest.approx([0.6, 0.8])
    assert session.requests[0]["json"] == {"model": "default", "input": ["a", "b"]}

    bad = HttpEmbedder(
        "https://api.test/emb",
        session=FakeSession([FakeResponse(200, {"embeddings": [[1.0, 0.0]]})]),
        sleep=lambda s: None,
    )
    with pytest.raises(ProviderError, match="shape mismatch"):
        bad.embed(["a", "b"])

    mismatched = HttpEmbedder(
        "https://api.test/emb",
        dim=3,
        session=FakeSession([FakeResponse(200, {"embeddings": [[1.0, 0.0]]})]),
        sleep=lambda s: None,
    )
    with pytest.raises(ProviderError, match="dim mismatch"):
        mismatched.embed(["a"])

    not_json = HttpEmbedder(
        "https://api.test/emb", session=FakeSession([FakeResponse(200)]), sleep=lambda s: None
    )
    with pytest.raises(ProviderError, match="non-JSON"):
        not_json.embed(["a"])


@pytest.mark.parametrize(
    "rows,field",
    [
        ([["a", "b"]], r"embeddings\[0\]"),
        ([[0.0, 0.0]], r"embeddings\[0\]"),
        ([[1.0, float("nan")]], r"embeddings\[0\]"),
        ([[1.0, 0.0], [True, 1.0]], r"embeddings\[1\]"),
        ([[1.0, 0.0], []], r"embeddings\[1\]"),
        ([[1.0, 0.0], "1 0"], r"embeddings\[1\]"),
        ([[1.0, 0.0], [10**400, 1.0]], r"embeddings\[1\]"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], "dim mismatch"),
    ],
)
def test_http_embedder_rejects_malformed_rows(rows, field):
    session = FakeSession([FakeResponse(200, {"embeddings": rows})])
    emb = HttpEmbedder("https://api.test/emb", session=session, sleep=lambda s: None)
    with pytest.raises(ProviderError, match=field):
        emb.embed(["t"] * len(rows))


def test_unit_vector_divides_by_the_norm():
    for row in ([3, 4], (3.0, 4.0), np.array([3, 4]), np.array([3.0, 4.0])):
        vec = unit_vector(row, "v")
        assert vec.dtype == np.float64
        assert vec.tolist() == [0.6, 0.8]
    row = [0.1, -2.5, 7e-3]
    plain = np.asarray(row, dtype=np.float64)
    assert np.array_equal(unit_vector(row, "v"), plain / float(np.linalg.norm(plain)))


@pytest.mark.parametrize(
    "values",
    [np.array(5.0), np.zeros((1, 2)), np.array([True, False]), np.array(["a"]),
     np.array([1 + 1j]), [10**400, 1.0], [None, 1.0], "12"],
)
def test_unit_vector_rejects_what_is_not_a_vector_of_numbers(values):
    with pytest.raises(ValidationError, match="label-x"):
        unit_vector(values, "label-x")


def _http_reply(row):
    session = FakeSession([FakeResponse(200, {"embeddings": [row]})])
    HttpEmbedder("https://api.test/emb", session=session, sleep=lambda s: None).embed(["t"])


# Every way a vector enters forge: (feed, error, what the message names).
VECTOR_ENTRY_POINTS = {
    "http-reply": (_http_reply, ProviderError, r"embeddings\[0\]"),
    "fixture-override": (lambda row: ScriptedEmbedder(dim=2, overrides={"pinned": row}),
                         ValidationError, "override for 'pinned'"),
    "document": (lambda row: Document(id="d1", text="body", embedding=row),
                 ValidationError, "document 'd1'"),
    "query-state": (lambda row: QueryState(vector=row, terms=("t",)),
                    ValidationError, "query vector"),
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
@pytest.mark.parametrize(
    "row",
    [[True, False], [1.0, True], ["a", "b"], [[1.0, 2.0]], [], [0.0, 0.0],
     [math.inf, 1.0], [math.nan, 1.0], 5.0],
    ids=["bools", "a-bool", "strings", "nested", "empty", "zero", "inf", "nan", "0-d"],
)
def test_every_vector_entry_point_runs_the_one_check(entry, row):
    feed, error, label = VECTOR_ENTRY_POINTS[entry]
    with pytest.raises(error, match=label):
        feed(row)


# ---------------------------------------------------------------------------
# fixtures


def test_load_fixture(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(
        json.dumps(
            {
                "completions": ["one", "two"],
                "embeddings": {"query text": [1.0, 0.0]},
            }
        )
    )
    chat, embedder = load_fixture(str(path), dim=2)
    assert chat.complete([ChatTurn("user", "q")])[0] == "one"
    assert embedder.embed_one("query text") == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        json.dumps({"completions": "nope"}),
        json.dumps({"completions": [1, 2]}),
        json.dumps({"completions": [], "embeddings": [1]}),
        json.dumps(["a completion"]),
    ],
)
def test_load_fixture_rejects_bad_documents(tmp_path, doc):
    path = tmp_path / "fixture.json"
    path.write_text(doc)
    with pytest.raises(LoadError):
        load_fixture(str(path))


def test_load_fixture_missing_file(tmp_path):
    with pytest.raises(LoadError):
        load_fixture(str(tmp_path / "absent.json"))


# ---------------------------------------------------------------------------
# score extraction


@pytest.mark.parametrize(
    "text,expected",
    [
        ("SCORE: 0.9", 0.9),
        ("reasoning first\n\nSCORE: 0.75", 0.75),
        ("SCORE:0.5", 0.5),
        ("SCORE: 1", 1.0),
        ("SCORE: 0", 0.0),
        ("SCORE: 0.42\n\n", 0.42),  # trailing blank lines ignored
        ("score: 0.9", None),  # case-sensitive
        ("SCORE: 1.5", None),
        ("SCORE: -0.1", None),
        ("SCORE: nan", None),
        ("SCORE: great", None),
        ("SCORE: 0.9\nbut then more prose", None),  # must be the final line
        ("", None),
    ],
)
def test_extract_score(text, expected):
    assert extract_score(text) == expected
