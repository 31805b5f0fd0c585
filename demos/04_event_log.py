#!/usr/bin/env python3
# The message bus and knowledge store that make runs replayable:
# append-only JSON-RPC event log plus provenance-stamped entities on disk.

import tempfile
from pathlib import Path

from forge.protocol import (
    Envelope,
    EventStream,
    MemoryStore,
    encode_message,
    load_store,
    read_events,
    save_store,
)

print("a minimal request on the wire:")
req = Envelope(kind="request", method="llm.complete", payload={"turns": 2}, id=1)
print(" ", encode_message(req).decode())

with tempfile.TemporaryDirectory() as tmp:
    log_path = str(Path(tmp) / "events.jsonl")

    stream = EventStream(log_path)
    stream.append(req)
    stream.append(Envelope(kind="response", payload={"chars": 120}, id=1))
    stream.append(Envelope(kind="event", method="stage.start", payload={"stage": "design"}))
    stream.append(Envelope(kind="request", method="llm.complete", payload={"turns": 4}, id=2))
    print("\nappended", len(stream.events), "envelopes; pending requests:",
          list(stream.pending_requests()))

    # reopen from disk: the replay reconstructs the identical state
    replayed = EventStream(log_path)
    print("replay matches:", replayed.events == stream.events)
    print("stage events:", [e.payload for e in read_events(replayed, method="stage.start")])

    # the knowledge store: typed entities, each with its provenance
    store = MemoryStore()
    proposal_id = store.record(
        "proposal", {"text": "mean-shift baseline, then a linear decoder"},
        "statistics-expert", "discussion", round=1, confidence=0.83,
        citations=["doc-0007", "doc-0042"],
    )

    save_store(store, tmp)
    again = load_store(tmp)
    print("\nstore round-trip:", [e.id for e in again.query_entities()],
          "provenance:", again.get_entity(proposal_id).provenance)
    # ids come from record's per-kind counters, which resume after a reload
    print("next proposal id after reload:", again.record(
        "proposal", {"text": "add a pathway prior"}, "biology-expert", "discussion", round=2))
