"""Chat and embedding provider boundary.

Everything stochastic or network-bound sits behind two tiny interfaces:
:class:`ChatProvider` (turns in, text out) and :class:`Embedder` (texts in,
unit vectors out). Each has a scripted implementation that replays canned
fixtures with synthesized token usage, which is what the tests and the
deterministic pipeline run on, and an HTTP implementation for live use.

Usage and cost
--------------
Scripted providers synthesize usage as ``ceil(chars / 4)`` tokens on each
side of the exchange. Dollar cost is
``prompt_tokens / 1e6 * prompt_price + completion_tokens / 1e6 *
completion_price`` with per-million prices from a pricing table; the table
bundled under ``data/pricing.json`` lists the five reference models.

Score convention
----------------
Reviewer agents must end their reply with a line ``SCORE: <decimal in
[0,1]>``. :func:`extract_score` parses exactly that final line and returns
``None`` on any deviation, which callers treat as "re-prompt once, then fall
back to the neutral 0.5".
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from importlib import resources
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import FixtureUnderflowError, LoadError, ProviderError, ValidationError
from .matrixio import read_json
from .protocol import build_record, parse_json

CHAT_ROLES = ("user", "assistant")

DEFAULT_TEMPERATURE = 0.7
DEFAULT_TOP_P = 0.95


@dataclass(frozen=True)
class ChatTurn:
    """One turn of a conversation. Only user/assistant roles exist here;
    instructions travel in the first user turn."""

    role: str
    text: str

    def __post_init__(self):
        if self.role not in CHAT_ROLES:
            raise ValidationError(f"unknown chat role: {self.role!r}")
        if not self.text:
            raise ValidationError("chat turn text must be non-empty")


@dataclass(frozen=True)
class GenerationParams:
    """Sampling knobs passed through to the provider."""

    model: str = "scripted"
    temperature: float = DEFAULT_TEMPERATURE
    top_p: float = DEFAULT_TOP_P
    max_tokens: Optional[int] = None

    def __post_init__(self):
        if self.temperature < 0.0:
            raise ValidationError("temperature must be non-negative")
        if not (0.0 < self.top_p <= 1.0):
            raise ValidationError("top_p out of range (0, 1]")


@dataclass(frozen=True)
class ProviderParams:
    """The ``provider`` config section: the chat and embedding backends.

    Each type takes the key it does not read only at its default: a
    scripted provider replays ``fixture`` and keeps ``embed_model``
    "default"; an http provider embeds with ``embed_model`` and keeps
    ``fixture`` null.
    """

    type: str = "scripted"
    fixture: Optional[str] = None
    embed_dim: int = 64
    embed_model: str = "default"

    def __post_init__(self):
        if self.type not in ("scripted", "http"):
            raise ValidationError(f"provider type must be scripted or http: {self.type!r}")
        if self.type == "http" and self.fixture is not None:
            raise ValidationError("provider.fixture must be null for type http")
        if self.type == "scripted" and self.embed_model != "default":
            raise ValidationError('provider.embed_model must be "default" for type scripted')


@dataclass(frozen=True)
class Usage:
    """Token counts for one exchange."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValidationError("token counts must be non-negative")


def synthesize_usage(turns: Sequence[ChatTurn], reply: str) -> Usage:
    """Deterministic stand-in token counts: ceil(chars / 4) per side."""
    prompt_chars = sum(len(t.text) for t in turns)
    return Usage(
        prompt_tokens=math.ceil(prompt_chars / 4),
        completion_tokens=math.ceil(len(reply) / 4),
    )


@dataclass(frozen=True)
class ModelPricing:
    """Per-million-token prices in dollars."""

    prompt_price: float
    completion_price: float

    def __post_init__(self):
        if self.prompt_price < 0 or self.completion_price < 0:
            raise ValidationError("prices must be non-negative")


class PricingTable:
    """Model name -> :class:`ModelPricing` registry."""

    def __init__(self, prices: Optional[Dict[str, ModelPricing]] = None):
        self._prices: Dict[str, ModelPricing] = dict(prices or {})

    def add(self, model: str, prompt_price: float, completion_price: float) -> None:
        self._prices[model] = ModelPricing(prompt_price, completion_price)

    def get(self, model: str) -> ModelPricing:
        if model not in self._prices:
            raise KeyError(f"no pricing for model {model!r}")
        return self._prices[model]

    @classmethod
    def from_json(cls, doc: Any) -> "PricingTable":
        """A table from ``{model: {prompt_price, completion_price}}``; a
        malformed row is a :class:`LoadError` naming its key."""
        return cls(build_record("pricing table", Dict[str, ModelPricing], doc))

    @classmethod
    def default(cls) -> "PricingTable":
        text = resources.files("forge.data").joinpath("pricing.json").read_text("utf-8")
        return cls.from_json(parse_json(text, "pricing.json"))


def cost_of(usage: Usage, model: str, table: PricingTable) -> float:
    """Dollar cost of an exchange under per-million-token pricing."""
    pricing = table.get(model)
    return (
        usage.prompt_tokens / 1e6 * pricing.prompt_price
        + usage.completion_tokens / 1e6 * pricing.completion_price
    )


def _check_turns(turns: Sequence[ChatTurn]) -> None:
    if not turns:
        raise ValidationError("at least one chat turn is required")
    if turns[-1].role != "user":
        raise ValidationError("the final chat turn must come from the user")


class ChatProvider:
    """Interface: a list of turns in, (reply text, usage) out."""

    def complete(self, turns: Sequence[ChatTurn]) -> Tuple[str, Usage]:
        raise NotImplementedError


class ReplyError(ValueError):
    """A reply the asker cannot use; the message says why. :func:`ask`
    attaches the rejected text as ``reply`` when it gives up."""

    def __init__(self, reason: str, reply: str = ""):
        super().__init__(reason)
        self.reply = reply


class Answer(NamedTuple):
    """What :func:`ask` got: the parsed value and how many exchanges it took."""

    value: Any
    calls: int


def ask(
    provider: ChatProvider,
    prompt: str,
    parse: Callable[[str], Any],
    retry: Callable[[str], str],
) -> Answer:
    """One exchange whose reply must pass ``parse``, with one corrective turn.

    When ``parse`` raises :class:`ReplyError`, the rejected reply and the
    user turn ``retry(reason)`` extend the conversation once (an empty
    reply adds no turn); a second rejection is raised again with that reply
    attached.
    """
    turns = [ChatTurn("user", prompt)]
    reply, _ = provider.complete(turns)
    try:
        return Answer(parse(reply), 1)
    except ReplyError as first:
        said = [ChatTurn("assistant", reply)] if reply else []
        turns = turns + said + [ChatTurn("user", retry(str(first)))]
    reply, _ = provider.complete(turns)
    try:
        return Answer(parse(reply), 2)
    except ReplyError as second:
        second.reply = reply
        raise


class ScriptedChatProvider(ChatProvider):
    """Replays a fixed list of replies in order.

    The fixture is consumed strictly sequentially; running past the end
    raises :class:`FixtureUnderflowError` so a test immediately sees that
    the code under test made more calls than the fixture anticipated.
    """

    def __init__(self, replies: Sequence[str]):
        self._replies = list(replies)
        self.calls: List[Tuple[ChatTurn, ...]] = []

    @property
    def remaining(self) -> int:
        return len(self._replies) - len(self.calls)

    def complete(self, turns: Sequence[ChatTurn]) -> Tuple[str, Usage]:
        _check_turns(turns)
        if not self.remaining:
            raise FixtureUnderflowError(
                f"scripted fixture exhausted after {len(self._replies)} replies"
            )
        reply = self._replies[len(self.calls)]
        self.calls.append(tuple(turns))
        return reply, synthesize_usage(turns, reply)


class _HttpClient:
    """JSON-over-HTTP POST with retries, shared by the HTTP providers.

    Retries 5xx responses and connection errors with exponential backoff;
    4xx responses and bodies that are not a JSON object fail immediately.
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        retries: int = 3,
        backoff: float = 1.0,
        session=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not base_url:
            raise ValidationError("base_url must be non-empty")
        self.base_url = base_url
        self.api_key = api_key
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _post(self, body: Dict[str, object]) -> Dict[str, object]:
        last_error: Optional[Exception] = None
        for attempt in range(self.retries):
            try:
                resp = self._session.post(
                    self.base_url, json=body, headers=self._headers(), timeout=120
                )
            except Exception as exc:  # connection errors are retryable
                last_error = exc
                self._sleep(self.backoff * 2**attempt)
                continue
            if resp.status_code >= 500:
                last_error = ProviderError(f"server error {resp.status_code}")
                self._sleep(self.backoff * 2**attempt)
                continue
            if resp.status_code >= 400:
                raise ProviderError(f"provider rejected request: {resp.status_code}")
            try:
                doc = resp.json()
            except ValueError as exc:
                raise ProviderError(f"provider returned non-JSON body: {exc}") from exc
            if not isinstance(doc, dict):
                raise ProviderError("provider reply is not a JSON object")
            return doc
        raise ProviderError(f"provider unreachable after {self.retries} attempts: {last_error}")


class HttpChatProvider(_HttpClient, ChatProvider):
    """Minimal JSON-over-HTTP chat client, the one reader of the sampling
    params: it sends them with every request.

    POSTs ``{"model", "messages", "temperature", "top_p"}`` to ``base_url``
    and expects ``{"text": <string>, "usage": {"prompt_tokens", ...}}`` back.
    ``usage`` may be absent; each count it holds must be a non-negative
    integer, and a missing count is 0.
    """

    def __init__(self, base_url: str, params: GenerationParams, **client: Any):
        super().__init__(base_url, **client)
        self.params = params

    def complete(self, turns: Sequence[ChatTurn]) -> Tuple[str, Usage]:
        _check_turns(turns)
        body = {
            "model": self.params.model,
            "messages": [{"role": t.role, "content": t.text} for t in turns],
            "temperature": self.params.temperature,
            "top_p": self.params.top_p,
        }
        if self.params.max_tokens is not None:
            body["max_tokens"] = self.params.max_tokens
        doc = self._post(body)
        if not isinstance(doc.get("text"), str):
            raise ProviderError(f"provider reply missing 'text' string, got {doc.get('text')!r}")
        usage_doc = doc.get("usage", {})
        if not isinstance(usage_doc, dict):
            raise ProviderError(f"provider reply 'usage' must be an object: {usage_doc!r}")
        counts = {}
        for key in ("prompt_tokens", "completion_tokens"):
            value = usage_doc.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ProviderError(
                    f"provider reply usage.{key} must be a non-negative integer: {value!r}")
            counts[key] = value
        return doc["text"], Usage(**counts)


def unit_vector(values: Any, label: str) -> np.ndarray:
    """``values`` over its L2 norm, as float64. ``values`` must be a non-empty
    1-D array or list of real numbers (no bools, strings or nesting) with a
    finite, non-zero norm; anything else is a :class:`ValidationError`
    naming ``label``."""
    if isinstance(values, np.ndarray):
        numeric = values.ndim == 1 and values.dtype.kind in "iuf"
    else:
        numeric = isinstance(values, (list, tuple)) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
    if not numeric or not len(values):
        raise ValidationError(f"{label} must be a non-empty list of numbers")
    try:
        vec = np.asarray(values, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
    except OverflowError:
        norm = math.inf
    if norm == 0.0 or not math.isfinite(norm):
        raise ValidationError(f"{label} has a zero or non-finite norm")
    return vec / norm


class Embedder:
    """Interface: texts in, equal-length unit vectors out."""

    dim: int = 0

    def embed(self, texts: Sequence[str]) -> List[np.ndarray]:
        raise NotImplementedError

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed([text])[0]


class ScriptedEmbedder(Embedder):
    """Deterministic pseudo-embeddings.

    Each text is hashed together with the seed, the digest seeds a fresh
    numpy generator, and a standard-normal draw is L2-normalized. Identical
    text always maps to the identical vector on every platform, and
    distinct texts land nearly orthogonal in 64 dimensions. ``overrides``
    pins exact vectors for chosen texts, which retrieval fixtures use to
    stage collisions and orthogonality on purpose.
    """

    def __init__(
        self,
        dim: int = 64,
        seed: int = 0,
        overrides: Optional[Dict[str, Sequence[float]]] = None,
    ):
        if dim < 2:
            raise ValidationError("embedding dim must be at least 2")
        self.dim = dim
        self.seed = seed
        self._overrides: Dict[str, np.ndarray] = {}
        for text, vec in (overrides or {}).items():
            self._overrides[text] = unit_vector(vec, f"embedding override for {text!r}")

    def embed(self, texts: Sequence[str]) -> List[np.ndarray]:
        out = []
        for text in texts:
            if not text:
                raise ValidationError("cannot embed an empty text")
            if text in self._overrides:
                vec = self._overrides[text]
                if vec.shape[0] != self.dim:
                    raise ValidationError(
                        f"override for {text!r} has dim {vec.shape[0]}, expected {self.dim}"
                    )
                out.append(vec.copy())
                continue
            digest = hashlib.sha256(f"{self.seed}\x1f{text}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            out.append(unit_vector(rng.standard_normal(self.dim), f"embedding of {text!r}"))
        return out


class HttpEmbedder(_HttpClient, Embedder):
    """JSON-over-HTTP embedding client mirroring :class:`HttpChatProvider`.

    POSTs ``{"model", "input"}`` and expects ``{"embeddings": [...]}`` back;
    each row must pass :func:`unit_vector`.
    """

    def __init__(self, base_url: str, model: str = "default", dim: int = 0, **client: Any):
        super().__init__(base_url, **client)
        self.model = model
        self.dim = dim

    def embed(self, texts: Sequence[str]) -> List[np.ndarray]:
        if any(not t for t in texts):
            raise ValidationError("cannot embed an empty text")
        if not texts:
            return []
        rows = self._post({"model": self.model, "input": list(texts)}).get("embeddings")
        if not isinstance(rows, list) or len(rows) != len(texts):
            raise ProviderError("embedding reply shape mismatch")
        try:
            vecs = [unit_vector(row, f"provider reply embeddings[{i}]")
                    for i, row in enumerate(rows)]
        except ValidationError as exc:
            raise ProviderError(str(exc)) from None
        dims = {v.shape[0] for v in vecs}
        if len(dims) > 1 or (self.dim and dims != {self.dim}):
            raise ProviderError(f"embedding dim mismatch: got {sorted(dims)}")
        return vecs


def load_fixture(
    path: str, dim: int = 64, seed: int = 0
) -> Tuple[ScriptedChatProvider, ScriptedEmbedder]:
    """Read a scripted-run fixture file.

    The file is one JSON document with an ordered ``completions`` array and
    an optional ``embeddings`` object mapping exact texts to vectors that
    override the hash-derived embeddings.
    """
    doc = read_json(path)
    completions = doc.get("completions") if isinstance(doc, dict) else None
    if not isinstance(completions, list) or not all(isinstance(c, str) for c in completions):
        raise LoadError(f"fixture {path} needs a 'completions' array of strings")
    overrides = doc.get("embeddings") or {}
    if not isinstance(overrides, dict):
        raise LoadError(f"fixture {path} 'embeddings' must map text to vectors")
    try:
        embedder = ScriptedEmbedder(dim=dim, seed=seed, overrides=overrides)
    except ValidationError as exc:
        raise LoadError(f"fixture {path}: {exc}") from None
    return ScriptedChatProvider(completions), embedder


def extract_score(text: str) -> Optional[float]:
    """Parse the trailing ``SCORE: <decimal>`` line of a reviewer reply.

    Returns None when the final non-empty line is not exactly that shape
    or the value falls outside [0, 1].
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    last = lines[-1]
    if not last.startswith("SCORE:"):
        return None
    raw = last[len("SCORE:"):].strip()
    try:
        value = float(raw)
    except ValueError:
        return None
    if not math.isfinite(value) or not (0.0 <= value <= 1.0):
        return None
    return value
