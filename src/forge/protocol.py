"""Message envelopes, the append-only event stream, and the memory store.

All inter-agent traffic in a run is expressed as JSON-RPC 2.0 envelopes
appended to a single event stream, and everything an agent wants to remember
is written to a memory store as an immutable, provenance-stamped knowledge
entity. Each record is kept only as the line it is persisted as, so a record
that does not encode is refused before anything changes, and every read
decodes a fresh object. Both structures are fully deterministic: stream
timestamps are sequence numbers (never wall-clock), entity ids come from
per-kind counters, and persisted files round-trip byte for byte.

Wire form
---------
A request is ``{"jsonrpc":"2.0","id":1,"method":"ping","params":{}}``. A
response carries ``result`` instead of ``method``/``params``; a notification
is a request without an id; an event is a notification with an added
``"kind":"event"`` member. Optional routing members (``sender``,
``receiver``, ``ts``) are appended only when set, so minimal envelopes
encode to the minimal byte string above.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import (
    Any, BinaryIO, Dict, Iterator, List, Optional, Tuple, Union, get_args, get_origin,
    get_type_hints,
)

from .errors import (
    ConflictError,
    CorrelationError,
    LoadError,
    ProtocolError,
    ValidationError,
)

REQUEST = "request"
RESPONSE = "response"
NOTIFICATION = "notification"
EVENT = "event"

_KINDS = (REQUEST, RESPONSE, NOTIFICATION, EVENT)

ENTITY_KINDS = (
    "dataset",
    "document",
    "report",
    "proposal",
    "plan",
    "artifact",
    "result",
)


@dataclass
class Envelope:
    """One message on the stream.

    ``payload`` is ``params`` for requests/notifications/events and
    ``result`` for responses. ``timestamp`` is assigned by the stream on
    append (a sequence number, not a clock reading).
    """

    kind: str
    method: Optional[str] = None
    payload: Any = None
    id: Optional[int | str] = None
    sender: Optional[str] = None
    receiver: Optional[str] = None
    timestamp: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ProtocolError(f"unknown envelope kind: {self.kind!r}")
        if self.kind == REQUEST:
            if self.id is None:
                raise ProtocolError("request requires an id")
            if not self.method:
                raise ProtocolError("request requires a method")
        elif self.kind == RESPONSE:
            if self.id is None:
                raise ProtocolError("response requires an id")
        else:
            if self.id is not None:
                raise ProtocolError(f"{self.kind} must not carry an id")
            if not self.method:
                raise ProtocolError(f"{self.kind} requires a method")
        if self.method is not None and not isinstance(self.method, str):
            raise ProtocolError("method must be a string")
        # The exact type: a bool is an int, and True would match request id 1.
        if self.id is not None and type(self.id) not in (int, str):
            raise ProtocolError("id must be an integer or string")
        if self.timestamp is not None:
            if type(self.timestamp) is not int or self.timestamp < 1:
                raise ProtocolError("timestamp must be a positive integer")


def encode_message(env: Envelope) -> bytes:
    """Serialize an envelope to its canonical UTF-8 JSON byte string; a NaN
    or infinite number, which :func:`decode_message` rejects, or a value
    JSON has no form for, is a :class:`ProtocolError`."""
    env.validate()
    doc: Dict[str, Any] = {"jsonrpc": "2.0"}
    if env.id is not None:
        doc["id"] = env.id
    if env.method is not None:
        doc["method"] = env.method
    if env.kind == RESPONSE:
        doc["result"] = env.payload
    else:
        doc["params"] = env.payload if env.payload is not None else {}
    if env.kind == EVENT:
        doc["kind"] = "event"
    if env.sender is not None:
        doc["sender"] = env.sender
    if env.receiver is not None:
        doc["receiver"] = env.receiver
    if env.timestamp is not None:
        doc["ts"] = env.timestamp
    try:
        text = json.dumps(doc, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
        return text.encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"envelope not encodable: {exc}") from exc


def decode_message(raw: bytes | str) -> Envelope:
    """Parse wire bytes back into a validated :class:`Envelope`."""
    try:
        doc = decode_json(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed envelope: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("envelope must be a JSON object")
    if doc.get("jsonrpc") != "2.0":
        raise ProtocolError(f"unsupported protocol version: {doc.get('jsonrpc')!r}")

    if doc.get("kind") == "event":
        kind = EVENT
    elif "result" in doc:
        kind = RESPONSE
    elif doc.get("id") is not None:
        kind = REQUEST
    else:
        kind = NOTIFICATION

    env = Envelope(
        kind=kind,
        method=doc.get("method"),
        payload=doc.get("result" if kind == RESPONSE else "params"),
        id=doc.get("id"),
        sender=doc.get("sender"),
        receiver=doc.get("receiver"),
        timestamp=doc.get("ts"),
    )
    env.validate()
    return env


class EventStream:
    """Append-only, sequence-stamped log of envelopes, kept as their lines.

    Responses are checked against the set of still-pending request ids;
    orphan or duplicate responses are rejected.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._lines: List[bytes] = []  # each envelope's line, without the newline
        self._pending: Dict[int | str, int] = {}
        self._request_ids: set = set()
        if path is not None and os.path.exists(path):
            self._replay_file(path)

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def events(self) -> Tuple[Envelope, ...]:
        """Every envelope in stream order, decoded afresh from its line."""
        return tuple(decode_message(line) for line in self._lines)

    def append(self, env: Envelope) -> int:
        """Stamp a copy of the envelope with the next sequence number, write
        its line through to a file-backed stream's file, then keep it: a
        refused or unwritten envelope leaves the stream and the file as they
        were. Returns the assigned sequence number.
        """
        stamped = replace(env, timestamp=len(self._lines) + 1)
        line = encode_message(stamped)
        self._correlate(stamped)
        if self.path is not None:
            with writing(self.path), open(self.path, "ab", buffering=0) as fh:
                end, rest = fh.tell(), line + b"\n"
                try:
                    while rest:
                        rest = rest[fh.write(rest):]
                except OSError:
                    fh.truncate(end)  # a torn last line would stop the file replaying
                    raise
        self._admit(stamped, line)
        return stamped.timestamp

    def pending_requests(self) -> Tuple[int | str, ...]:
        """Ids of requests that have not yet been answered, oldest first."""
        return tuple(sorted(self._pending, key=self._pending.__getitem__))

    def _correlate(self, env: Envelope, where: str = "") -> None:
        """Refuse a reused request id or an orphan response; ``where`` prefixes the error."""
        if env.kind == REQUEST and env.id in self._request_ids:
            raise CorrelationError(f"{where}request id {env.id!r} already used")
        if env.kind == RESPONSE and env.id not in self._pending:
            raise CorrelationError(
                f"{where}response id {env.id!r} does not match a pending request")

    def _admit(self, env: Envelope, line: bytes) -> None:
        if env.kind == REQUEST:
            self._request_ids.add(env.id)
            self._pending[env.id] = env.timestamp
        elif env.kind == RESPONSE:
            del self._pending[env.id]
        self._lines.append(line)

    def _replay_file(self, path: str) -> None:
        with open(path, "rb") as fh:
            for n, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                env = decode_message(line)
                if env.timestamp != len(self._lines) + 1:
                    raise ProtocolError(f"line {n}: expected ts {len(self._lines) + 1}, "
                                        f"got {env.timestamp}")
                self._correlate(env, f"line {n}: ")
                self._admit(env, line)


def read_events(
    stream: EventStream,
    after: int = 0,
    method: Optional[str] = None,
    sender: Optional[str] = None,
) -> List[Envelope]:
    """Filtered, order-preserving view of a stream. Pure."""
    return [env for env in stream.events
            if env.timestamp > after
            and (method is None or env.method == method)
            and (sender is None or env.sender == sender)]


@dataclass
class KnowledgeEntity:
    """Immutable fact with provenance.

    ``provenance`` is a record with the producing agent plus optional
    ``confidence`` (fraction in [0, 1]), ``reasoning`` text, and
    ``citations`` list. ``round`` ties an entity to the discussion round
    that produced it; 0 means "outside any round".
    """

    id: str
    kind: str
    body: Any
    provenance: Dict[str, Any] = field(default_factory=dict)
    round: int = 0

    def validate(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ValidationError("entity id must be a non-empty string")
        if self.kind not in ENTITY_KINDS:
            raise ValidationError(f"unknown entity kind: {self.kind!r}")
        if not isinstance(self.provenance, dict):
            raise ValidationError("provenance must be a mapping")
        conf = self.provenance.get("confidence")
        if conf is not None:
            if not isinstance(conf, (int, float)) or not (0.0 <= float(conf) <= 1.0):
                raise ValidationError("provenance confidence must lie in [0, 1]")
        citations = self.provenance.get("citations")
        if citations is not None and not isinstance(citations, list):
            raise ValidationError("provenance citations must be a list")
        if not isinstance(self.round, int) or self.round < 0:
            raise ValidationError("round must be a non-negative integer")


class MemoryStore:
    """Insertion-ordered store of immutable entities.

    Entities are kept as the lines :func:`save_store` writes, so a stored
    entity can never be mutated by reference, and an entity whose body or
    provenance does not encode (NaN, a non-JSON type) is refused. :meth:`record`
    allocates ids from per-kind counters; a fresh counter-styled id stored
    through :meth:`put_entity` moves its kind's counter past it.
    """

    def __init__(self):
        self._entities: Dict[str, bytes] = {}
        self._counters: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entities)

    def record(self, kind: str, body: Any, agent: str, reasoning: str, round: int = 0,
               **provenance: Any) -> str:
        """Store ``body`` as a new ``kind`` entity under the next counter id,
        stamped with ``agent``, ``reasoning`` and any further provenance keys.
        The id is taken only when the entity is stored."""
        return self.put_entity(KnowledgeEntity(
            id=f"{kind}-{self._counters.get(kind, 0) + 1:04d}", kind=kind, body=body, round=round,
            provenance={"agent": agent, "reasoning": reasoning, **provenance},
        ))

    def put_entity(self, entity: KnowledgeEntity) -> str:
        entity.validate()
        if entity.id in self._entities:
            raise ConflictError(f"entity id {entity.id!r} already stored")
        try:
            self._entities[entity.id] = json_line({"seq": len(self._entities) + 1, **vars(entity)})
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"entity {entity.id!r} not encodable: {exc}") from exc
        kind, _, tail = entity.id.rpartition("-")
        if kind == entity.kind and tail.isdigit():
            self._counters[kind] = max(self._counters.get(kind, 0), int(tail))
        return entity.id

    def get_entity(self, entity_id: str) -> KnowledgeEntity:
        return _entity(decode_json(self._entities[entity_id]))

    def query_entities(self, kind: Optional[str] = None) -> List[KnowledgeEntity]:
        """Entities in insertion order, only those of ``kind`` when given."""
        entities = (_entity(decode_json(line)) for line in self._entities.values())
        return [ent for ent in entities if kind is None or ent.kind == kind]


@dataclass
class _StoredEntity(KnowledgeEntity):
    """An entity as :func:`save_store` writes it, with its place in the store."""

    seq: int = 0


def _entity(doc: Dict[str, Any]) -> KnowledgeEntity:
    """The entity a stored document describes."""
    return KnowledgeEntity(id=doc["id"], kind=doc["kind"], body=doc["body"],
                           provenance=doc.get("provenance", {}), round=int(doc.get("round", 0)))


def canonical_json(doc: Any) -> str:
    """Stable JSON text: sorted keys, compact separators, no NaN."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)


def json_line(doc: Any) -> bytes:
    """``doc``'s :func:`canonical_json` as one UTF-8 line: how forge stores a JSON record."""
    return (canonical_json(doc) + "\n").encode("utf-8")


def cannot(verb: str, path: str, exc: Exception) -> LoadError:
    """``cannot <verb> <path>: <reason>``; an ``OSError``'s reason is its
    ``strerror``, as its full text names the path again."""
    return LoadError(f"cannot {verb} {path}: {getattr(exc, 'strerror', None) or exc}")


@contextmanager
def writing(path: str) -> Iterator[None]:
    """An ``OSError`` from writing ``path`` as a :class:`LoadError` naming it."""
    try:
        yield
    except OSError as exc:
        raise cannot("write", path, exc) from exc


@contextmanager
def replacing(path: str) -> Iterator[BinaryIO]:
    """A binary file open for writing that, after its directory is made,
    replaces ``path`` whole when the block ends: forge's one writer of a file
    from memory. It is a temporary file renamed over ``path``, so a failure
    leaves the previous file and no temporary one behind; a failed write is
    a :class:`LoadError` naming the directory or ``path``."""
    parent = os.path.dirname(path) or "."
    with writing(parent):
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with writing(path):
        try:
            with open(tmp, "wb") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
            raise


def save_store(store: MemoryStore, directory: str) -> None:
    """Persist a store as ``entities/<id>.json``, writing the lines it holds
    through :func:`replacing`; an empty store writes nothing."""
    for eid, line in store._entities.items():
        with replacing(os.path.join(directory, "entities", f"{eid}.json")) as fh:
            fh.write(line)


def read_text(path: str) -> str:
    """The file's text; an unreadable or non-UTF-8 file is a :class:`LoadError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise cannot("read", path, exc) from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise json.JSONDecodeError(f"number {text} is out of range", text, 0)
    return value


def decode_json(text: str | bytes) -> Any:
    """``text`` parsed as JSON. Malformed or too deeply nested text, and a
    NaN or infinite number, which no forge file or reply may hold, are a
    :class:`json.JSONDecodeError`."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None


def parse_json(text: str, source: str) -> Any:
    """``text`` parsed by :func:`decode_json`; a decode error is a :class:`LoadError`."""
    try:
        return decode_json(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{source} is not valid JSON: {exc}") from exc


# What each type hint accepts from JSON, and its name in error messages.
_JSON_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    tuple: ((list, tuple), "a JSON list"),
    dict: (dict, "a JSON object"),
}


def build_record(what: str, cls: Any, doc: Any, name: str = "") -> Any:
    """``doc``, decoded JSON, checked against the type hint ``cls`` and built
    as it: forge's one shape check for a JSON document. ``what`` names the
    document in every message and ``name`` is the key path of ``doc`` within
    it (``""``: the whole document).

    A dataclass takes a JSON object whose keys are its fields, each built
    against the field's hint; an unknown key or a left-out field without a
    default is refused, and a refusal by the dataclass itself reads ``bad
    <what> section <name>``. ``Optional[X]`` takes null or an X and ``Any``
    takes anything; a bool is not a number. An int converts to a float, a
    list to a tuple of its elements and ``Dict[K, V]`` to a dict of its
    values, each built against the element or value hint. Every refusal is
    a :class:`LoadError` naming the key.
    """
    if cls is Any:
        return doc
    if get_origin(cls) is Union:
        if doc is None:
            return None
        cls = next(arg for arg in get_args(cls) if arg is not type(None))
    kind = dict if is_dataclass(cls) else get_origin(cls) or cls
    accepted, kind_name = _JSON_KINDS[kind]
    if isinstance(doc, bool) or not isinstance(doc, accepted):
        raise LoadError(f"{what} key {name} must be {kind_name}: got {doc!r}" if name
                        else f"{what} must be {kind_name}")
    path = f"{name}." if name else ""
    if is_dataclass(cls):
        hints = get_type_hints(cls)
        kwargs = {}
        for key, value in doc.items():
            if key not in hints:
                raise LoadError(f"unknown {what} key {path}{key}")
            kwargs[key] = build_record(what, hints[key], value, path + key)
        for f in fields(cls):
            if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
                raise LoadError(f"{what} key {path}{f.name} is missing")
        try:
            return cls(**kwargs)
        except (ValidationError, TypeError, ValueError) as exc:
            raise LoadError(f"bad {what} section {name!r}: {exc}" if name else str(exc)) from exc
    if kind is tuple:
        return tuple(build_record(what, get_args(cls)[0], item, name) for item in doc)
    if kind is dict:
        value_hint = get_args(cls)[1] if get_args(cls) else Any
        return {key: build_record(what, value_hint, value, path + key)
                for key, value in doc.items()}
    try:
        return float(doc) if kind is float else doc
    except OverflowError:
        raise LoadError(f"{what} key {name} is out of range: {doc!r}") from None


def load_store(directory: str) -> MemoryStore:
    """Rebuild a store persisted by :func:`save_store`; no ``entities/`` is an empty store."""
    ent_dir = os.path.join(directory, "entities")
    names = sorted(os.listdir(ent_dir)) if os.path.isdir(ent_dir) else []
    stored = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(ent_dir, name)
        stored.append(build_record(path, _StoredEntity, parse_json(read_text(path), path)))
    store = MemoryStore()
    for entity in sorted(stored, key=lambda e: e.seq):
        store.put_entity(_entity(vars(entity)))
    return store
