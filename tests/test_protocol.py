"""Envelope wire format, event-stream correlation, and the memory store."""

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import (
    ConflictError,
    CorrelationError,
    LoadError,
    ProtocolError,
    ValidationError,
)
from forge.protocol import (
    EVENT,
    NOTIFICATION,
    REQUEST,
    RESPONSE,
    Envelope,
    EventStream,
    KnowledgeEntity,
    MemoryStore,
    build_record,
    decode_message,
    encode_message,
    load_store,
    read_events,
    replacing,
    save_store,
)


# ---------------------------------------------------------------------------
# wire format


def test_minimal_request_bytes():
    env = Envelope(kind=REQUEST, method="ping", id=1)
    assert encode_message(env) == b'{"jsonrpc":"2.0","id":1,"method":"ping","params":{}}'


def test_response_bytes():
    env = Envelope(kind=RESPONSE, id=1, payload={"ok": True})
    assert encode_message(env) == b'{"jsonrpc":"2.0","id":1,"result":{"ok":true}}'


def test_notification_and_event_bytes():
    note = Envelope(kind=NOTIFICATION, method="log", payload={"level": "info"})
    assert b'"id"' not in encode_message(note)
    event = Envelope(kind=EVENT, method="stage.start", payload={})
    assert b'"kind":"event"' in encode_message(event)


def test_routing_members_are_optional():
    env = Envelope(
        kind=REQUEST,
        method="llm.complete",
        id="r-1",
        payload={"turns": 2},
        sender="design",
        receiver="provider",
        timestamp=7,
    )
    doc = json.loads(encode_message(env))
    assert doc["sender"] == "design"
    assert doc["receiver"] == "provider"
    assert doc["ts"] == 7
    assert decode_message(encode_message(env)) == env


@pytest.mark.parametrize(
    "env",
    [
        Envelope(kind=REQUEST, method="ping", id=3, payload={"a": [1, 2]}),
        Envelope(kind=RESPONSE, id=3, payload=[1, "two", None]),
        Envelope(kind=NOTIFICATION, method="tick", payload={}),
        Envelope(kind=EVENT, method="stage.complete", payload={"stage": "design"}),
    ],
)
def test_round_trip_examples(env):
    assert decode_message(encode_message(env)) == env


def test_decode_classifies_by_shape():
    assert decode_message(b'{"jsonrpc":"2.0","id":5,"method":"m","params":{}}').kind == REQUEST
    assert decode_message(b'{"jsonrpc":"2.0","id":5,"result":null}').kind == RESPONSE
    assert decode_message(b'{"jsonrpc":"2.0","method":"m","params":{}}').kind == NOTIFICATION
    raw = b'{"jsonrpc":"2.0","method":"m","params":{},"kind":"event"}'
    assert decode_message(raw).kind == EVENT


@pytest.mark.parametrize(
    "env",
    [
        Envelope(kind=REQUEST, method="ping"),  # no id
        Envelope(kind=REQUEST, id=1),  # no method
        Envelope(kind=RESPONSE),  # no id
        Envelope(kind=NOTIFICATION, method="m", id=2),  # id forbidden
        Envelope(kind=EVENT, method=""),  # empty method
        Envelope(kind="bogus", method="m"),
        Envelope(kind=REQUEST, method="m", id=1, timestamp=0),
        Envelope(kind=REQUEST, method="m", id=1.5),  # type: ignore[arg-type]
        Envelope(kind=EVENT, method="m", payload={"v": float("nan")}),  # not replayable
    ],
)
def test_invalid_envelopes_rejected(env):
    with pytest.raises(ProtocolError):
        encode_message(env)


@pytest.mark.parametrize(
    "raw",
    [
        b"not json",
        b"[1,2]",
        b'{"jsonrpc":"1.0","id":1,"method":"m"}',
        b'{"id":1,"method":"m"}',
        b'{"jsonrpc":"2.0","method":"m","ts":true}',
        b'{"jsonrpc":"2.0","method":7}',
        b'{"jsonrpc":"2.0","id":1,"method":["m"]}',
        b'{"jsonrpc":"2.0","method":{"m":1},"kind":"event"}',
        b'{"jsonrpc":"2.0","id":1,"result":null,"method":true}',
        b'{"jsonrpc":"2.0","id":true,"method":"m"}',
        b'{"jsonrpc":"2.0","id":false,"result":null}',
        b'{"jsonrpc":"2.0","id":1,"method":"m","params":{"v":NaN}}',
        b'{"jsonrpc":"2.0","id":1,"method":"m","params":{"v":1e999}}',
    ],
)
def test_decode_rejects_malformed(raw):
    with pytest.raises(ProtocolError):
        decode_message(raw)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(min_size=1, max_size=6), children, max_size=3),
    max_leaves=8,
)

_methods = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz.", min_size=1, max_size=12
)
_ids = st.integers(0, 10**6) | st.text(min_size=1, max_size=10)


@st.composite
def _envelopes(draw):
    kind = draw(st.sampled_from([REQUEST, RESPONSE, NOTIFICATION, EVENT]))
    payload = draw(_json_values)
    if kind == RESPONSE:
        return Envelope(kind=kind, id=draw(_ids), payload=payload)
    # params-carrying kinds normalize a missing payload to {} on the wire
    if payload is None:
        payload = {}
    env = Envelope(kind=kind, method=draw(_methods), payload=payload)
    if kind == REQUEST:
        env.id = draw(_ids)
    if draw(st.booleans()):
        env.timestamp = draw(st.integers(1, 10**6))
    return env


@settings(max_examples=200, deadline=None)
@given(_envelopes())
def test_round_trip_property(env):
    assert decode_message(encode_message(env)) == env


# ---------------------------------------------------------------------------
# event stream


def test_append_stamps_sequence_numbers():
    stream = EventStream()
    original = Envelope(kind=NOTIFICATION, method="tick", payload={})
    first = stream.append(original)
    second = stream.append(Envelope(kind=NOTIFICATION, method="tock", payload={}))
    assert (first, second) == (1, 2)
    assert [e.timestamp for e in stream.events] == [1, 2]
    assert original.timestamp is None  # caller's envelope is never mutated


def test_request_response_correlation():
    stream = EventStream()
    stream.append(Envelope(kind=REQUEST, method="m", id=1))
    stream.append(Envelope(kind=REQUEST, method="m", id=2))
    assert stream.pending_requests() == (1, 2)
    stream.append(Envelope(kind=RESPONSE, id=1, payload="done"))
    assert stream.pending_requests() == (2,)


def test_orphan_response_rejected():
    stream = EventStream()
    with pytest.raises(CorrelationError):
        stream.append(Envelope(kind=RESPONSE, id=9, payload=None))


def test_duplicate_request_id_rejected():
    stream = EventStream()
    stream.append(Envelope(kind=REQUEST, method="m", id=1))
    with pytest.raises(CorrelationError):
        stream.append(Envelope(kind=REQUEST, method="m", id=1))


def test_double_response_rejected():
    stream = EventStream()
    stream.append(Envelope(kind=REQUEST, method="m", id=1))
    stream.append(Envelope(kind=RESPONSE, id=1, payload="a"))
    with pytest.raises(CorrelationError):
        stream.append(Envelope(kind=RESPONSE, id=1, payload="b"))


def test_file_backed_stream_replays(tmp_path):
    path = str(tmp_path / "events.jsonl")
    stream = EventStream(path)
    stream.append(Envelope(kind=REQUEST, method="m", id=1, payload={"q": 1}))
    stream.append(Envelope(kind=RESPONSE, id=1, payload={"a": 2}))
    stream.append(Envelope(kind=EVENT, method="stage.start", payload={"stage": "x"}))

    replayed = EventStream(path)
    assert len(replayed) == 3
    assert [encode_message(e) for e in replayed.events] == [
        encode_message(e) for e in stream.events
    ]
    assert replayed.pending_requests() == ()
    # and the replayed stream keeps numbering where the file left off
    assert replayed.append(Envelope(kind=NOTIFICATION, method="tick", payload={})) == 4


def test_refused_append_leaves_no_trace(tmp_path):
    path = str(tmp_path / "events.jsonl")
    stream = EventStream(path)
    with pytest.raises(ProtocolError, match="not encodable"):
        stream.append(Envelope(kind=REQUEST, method="m", id=1, payload={"x": float("nan")}))
    assert len(stream) == 0
    assert stream.pending_requests() == ()
    assert stream.append(Envelope(kind=REQUEST, method="m", id=1, payload={"x": 1})) == 1
    assert stream.append(Envelope(kind=EVENT, method="stage.start", payload={})) == 2
    replayed = EventStream(path)
    assert [e.timestamp for e in replayed.events] == [1, 2]
    assert replayed.pending_requests() == (1,)


def test_append_refuses_a_payload_json_cannot_hold(tmp_path):
    path = tmp_path / "events.jsonl"
    stream = EventStream(str(path))
    with pytest.raises(ProtocolError, match="not encodable"):
        stream.append(Envelope(kind=REQUEST, method="m", id=1, payload={"n": np.int64(3)}))
    assert (len(stream), stream.pending_requests(), path.exists()) == (0, (), False)


def test_unwritten_append_leaves_the_stream_as_it_was(tmp_path):
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "events.jsonl"
    stream = EventStream(str(path))
    with pytest.raises(LoadError, match=f"cannot write {path}"):
        stream.append(Envelope(kind=REQUEST, method="m", id=1, payload={}))
    assert (len(stream), stream.pending_requests()) == (0, ())


def test_replay_rejects_gapped_sequence(tmp_path):
    path = tmp_path / "events.jsonl"
    good = encode_message(
        Envelope(kind=NOTIFICATION, method="m", payload={}, timestamp=1)
    )
    bad = encode_message(
        Envelope(kind=NOTIFICATION, method="m", payload={}, timestamp=5)
    )
    path.write_bytes(good + b"\n" + bad + b"\n")
    with pytest.raises(ProtocolError):
        EventStream(str(path))


def test_replay_rejects_orphan_response(tmp_path):
    path = tmp_path / "events.jsonl"
    line = encode_message(Envelope(kind=RESPONSE, id=4, payload=None, timestamp=1))
    path.write_bytes(line + b"\n")
    with pytest.raises(CorrelationError):
        EventStream(str(path))


def test_replay_rejects_repeated_request_id(tmp_path):
    path = tmp_path / "events.jsonl"
    lines = [
        encode_message(Envelope(kind=REQUEST, method="m", id=3, timestamp=ts))
        for ts in (1, 2)
    ]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CorrelationError, match="line 2: "):
        EventStream(str(path))


def test_read_events_filters():
    stream = EventStream()
    stream.append(Envelope(kind=NOTIFICATION, method="a", payload={}, sender="x"))
    stream.append(Envelope(kind=NOTIFICATION, method="b", payload={}, sender="y"))
    stream.append(Envelope(kind=NOTIFICATION, method="a", payload={}, sender="y"))
    assert [e.timestamp for e in read_events(stream, method="a")] == [1, 3]
    assert [e.timestamp for e in read_events(stream, sender="y")] == [2, 3]
    assert [e.timestamp for e in read_events(stream, after=2)] == [3]


# ---------------------------------------------------------------------------
# knowledge entities and the memory store


def test_entity_validation():
    KnowledgeEntity(id="e1", kind="report", body="text").validate()
    with pytest.raises(Exception):
        KnowledgeEntity(id="", kind="report", body="x").validate()
    with pytest.raises(Exception):
        KnowledgeEntity(id="e1", kind="novel", body="x").validate()
    with pytest.raises(Exception):
        KnowledgeEntity(
            id="e1", kind="report", body="x", provenance={"confidence": 1.5}
        ).validate()
    with pytest.raises(Exception):
        KnowledgeEntity(
            id="e1", kind="report", body="x", provenance={"citations": "doc-1"}
        ).validate()
    with pytest.raises(Exception):
        KnowledgeEntity(id="e1", kind="report", body="x", round=-1).validate()


def test_store_counter_ids():
    store = MemoryStore()
    assert store.record("proposal", "p1", "expert", "proposed") == "proposal-0001"
    assert store.record("proposal", "p2", "expert", "proposed") == "proposal-0002"
    assert store.record("result", 0.5, "critic", "scored") == "result-0001"
    # a counter-styled id stored directly moves its kind's counter past it
    store.put_entity(KnowledgeEntity(id="proposal-0007", kind="proposal", body="p7"))
    assert store.record("proposal", "p8", "expert", "proposed") == "proposal-0008"


def test_store_record_stamps_ids_provenance_and_round():
    store = MemoryStore()
    first = store.record("report", {"a": 1}, "refiner", "drafted")
    scored = store.record("result", 0.7, "critic", "scored", 3, confidence=0.7,
                          citations=["doc-1"])
    second = store.record("report", "b", "refiner", "redrafted")
    assert (first, scored, second) == ("report-0001", "result-0001", "report-0002")
    entity = store.get_entity(scored)
    assert (entity.kind, entity.body, entity.round) == ("result", 0.7, 3)
    assert entity.provenance == {
        "agent": "critic", "reasoning": "scored", "confidence": 0.7, "citations": ["doc-1"],
    }
    assert store.get_entity(first).round == 0
    assert store.get_entity(first).provenance == {"agent": "refiner", "reasoning": "drafted"}


def test_store_rejects_duplicate_and_isolates_copies():
    store = MemoryStore()
    ent = KnowledgeEntity(id="report-0001", kind="report", body={"sections": ["a"]})
    store.put_entity(ent)
    with pytest.raises(ConflictError):
        store.put_entity(KnowledgeEntity(id="report-0001", kind="report", body="again"))
    fetched = store.get_entity("report-0001")
    fetched.body["sections"].append("b")
    assert store.get_entity("report-0001").body == {"sections": ["a"]}
    ent.body["sections"].append("c")  # caller-side mutation is also isolated
    assert store.get_entity("report-0001").body == {"sections": ["a"]}


@pytest.mark.parametrize("body", [{"x": float("nan")}, [np.int64(3)]], ids=["nan", "int64"])
def test_record_refuses_a_body_json_cannot_hold(tmp_path, body):
    store = MemoryStore()
    with pytest.raises(ValidationError, match="not encodable"):
        store.record("result", body, "critic", "scored")
    assert len(store) == 0
    save_store(store, str(tmp_path))
    assert os.listdir(tmp_path) == []  # an empty store writes no entities/
    # the refused record took no id
    assert store.record("result", 1.0, "critic", "scored") == "result-0001"


def test_store_reads_back_what_a_reload_reads(tmp_path):
    store = MemoryStore()
    eid = store.record("result", {1: ("a", 2.5)}, "critic", "scored", citations=["doc-1"])
    save_store(store, str(tmp_path))
    assert store.get_entity(eid).body == {"1": ["a", 2.5]}
    assert load_store(str(tmp_path)).get_entity(eid) == store.get_entity(eid)


def test_store_queries_by_kind():
    store = MemoryStore()
    for n in range(3):
        store.put_entity(
            KnowledgeEntity(id=f"document-{n}", kind="document", body=f"d{n}")
        )
    store.put_entity(KnowledgeEntity(id="report-1", kind="report", body="r"))
    assert [e.id for e in store.query_entities(kind="document")] == [
        "document-0",
        "document-1",
        "document-2",
    ]


def test_store_persistence_round_trip(tmp_path):
    store = MemoryStore()
    a = store.record("dataset", {"cells": 4}, "loader", "profiled", confidence=0.5)
    b = store.record("report", "text", "refiner", "drafted")

    save_store(store, str(tmp_path))
    # an older store's relations.jsonl is never read
    (tmp_path / "relations.jsonl").write_bytes(b'{"source":"report-0001"\n')
    loaded = load_store(str(tmp_path))

    assert len(loaded) == len(store)
    for eid in (a, b):
        assert loaded.get_entity(eid) == store.get_entity(eid)
    # a second save is byte-identical
    again = tmp_path / "again"
    save_store(loaded, str(again))
    first = {
        p.name: p.read_bytes() for p in (tmp_path / "entities").iterdir()
    }
    second = {p.name: p.read_bytes() for p in (again / "entities").iterdir()}
    assert first == second
    # counters resume past persisted ids
    assert loaded.record("dataset", {"cells": 5}, "loader", "profiled") == "dataset-0002"


def test_load_store_without_entities_dir_is_empty(tmp_path):
    assert len(load_store(str(tmp_path))) == 0


_ENTITY = b'{"id":"report-0001","kind":"report","body":"r","provenance":{},"round":0,"seq":1}\n'


@pytest.mark.parametrize(
    "entity, match",
    [
        (b'{"id":"report-0001","body":"caf\xe9"}\n', "cannot read"),
        (b"[1, 2]\n", "report-0001.json must be a JSON object"),
        (b'{"id":"report-0001","kind":"report"}\n', "report-0001.json key body is missing"),
        (b"{\n", "is not valid JSON"),
        (_ENTITY.replace(b'"round":0', b'"round":"x"'), "key round must be an integer: got 'x'"),
        (_ENTITY.replace(b'"seq":1', b'"seq":"1"'), "key seq must be an integer: got '1'"),
    ],
    ids=["latin-1-entity", "list-entity", "entity-missing-kind", "truncated-entity",
         "string-round", "string-seq"],
)
def test_load_store_bad_files_are_load_errors(tmp_path, entity, match):
    (tmp_path / "entities").mkdir()
    (tmp_path / "entities" / "report-0001.json").write_bytes(entity)
    with pytest.raises(LoadError, match=match):
        load_store(str(tmp_path))


# ---------------------------------------------------------------------------
# the one writer


def _replace(path, fail):
    with replacing(str(path)) as fh:
        fh.write(b"new")
        if fail:
            raise RuntimeError("the block failed")


@pytest.mark.parametrize("rel, fail, error, content", [
    ("new/dirs/entity.json", False, None, b"new"),
    ("file/entity.json", False, "cannot write {tmp}/file: File exists", None),
    ("entity.json", True, "the block failed", b"old"),
], ids=["makes-missing-parents", "parent-is-a-file", "block-raises"])
def test_replacing_writes_the_file_whole_or_not_at_all(tmp_path, rel, fail, error, content):
    (tmp_path / "file").write_bytes(b"")
    (tmp_path / "entity.json").write_bytes(b"old")
    path = tmp_path / rel
    if error is None:
        _replace(path, fail)
    else:
        with pytest.raises((LoadError, RuntimeError)) as info:
            _replace(path, fail)
        assert str(info.value) == error.format(tmp=tmp_path)
    assert (path.read_bytes() if path.exists() else None) == content
    assert not list(tmp_path.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# the one shape check


@dataclass
class _Inner:
    limit: int

    def __post_init__(self):
        if self.limit < 0:
            raise ValidationError("limit must be non-negative")


@dataclass
class _Record:
    name: str
    inner: Optional[_Inner] = None
    scores: Dict[str, float] = field(default_factory=dict)
    extra: Any = None


@pytest.mark.parametrize("doc, want", [
    ({"name": "r", "bogus": 1}, "unknown thing key bogus"),
    ({"name": "r", "inner": {}}, "thing key inner.limit is missing"),
    ({"name": "r", "scores": {"a": 1, "b": "x"}}, "thing key scores.b must be a number: got 'x'"),
    ({"name": "r", "inner": None}, _Record("r")),
    ({"name": "r", "extra": [1, {"x": None}]}, _Record("r", extra=[1, {"x": None}])),
    ([{"name": "r"}], "thing must be a JSON object"),
    ({"name": "r", "inner": {"limit": -1}},
     "bad thing section 'inner': limit must be non-negative"),
    ({"name": "r", "inner": {"limit": 2}, "scores": {"a": 1}},
     _Record("r", _Inner(2), {"a": 1.0})),
], ids=["unknown-key", "missing-key", "dict-value-type", "optional-null", "any-passthrough",
        "top-level-list", "post-init-refusal", "nested-built"])
def test_build_record(doc, want):
    if isinstance(want, str):
        with pytest.raises(LoadError) as info:
            build_record("thing", _Record, doc)
        assert str(info.value) == want
    else:
        got = build_record("thing", _Record, doc)
        assert got == want
        assert all(type(v) is float for v in got.scores.values())
