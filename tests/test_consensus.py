"""Expert panels, the confidence recurrence, and the consensus loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLAN_JSON, discussion_replies, make_report
from forge.consensus import (
    CRITIC_ID,
    PLAN_SECTIONS,
    DiscussionParams,
    DiscussionTrace,
    ExpertRole,
    ResearchPlan,
    converged,
    finalize_plan,
    integration_weights,
    load_registry,
    relevance,
    request_score,
    run_discussion,
    select_experts,
    update_confidence,
)
from forge.errors import DiscussionError, LoadError, ValidationError
from forge.providers import Embedder, ScriptedChatProvider



def role(rid, desc="generic domain knowledge"):
    return ExpertRole(
        id=rid, name=rid.replace("-", " ").title(), description=desc,
        template=f"You are the {rid}.",
    )


CRITIC = role(CRITIC_ID)


class MappedEmbedder(Embedder):
    """Returns a fixed vector per exact text, with a default for the rest."""

    dim = 4

    def __init__(self, mapping, default):
        self._mapping = {k: np.asarray(v, dtype=float) for k, v in mapping.items()}
        self._default = np.asarray(default, dtype=float)

    def embed(self, texts):
        return [self._mapping.get(t, self._default).copy() for t in texts]


# ---------------------------------------------------------------------------
# parameters, roles, registry


def test_discussion_params_validation():
    params = DiscussionParams()
    assert params.lambdas == (0.3, 0.4, 0.3)
    with pytest.raises(ValidationError):
        DiscussionParams(lambdas=(0.5, 0.4, 0.3))
    with pytest.raises(ValidationError):
        DiscussionParams(lambdas=(-0.1, 0.6, 0.5))
    with pytest.raises(ValidationError):
        DiscussionParams(tau=0.0)
    with pytest.raises(ValidationError):
        DiscussionParams(eps=0.0)
    with pytest.raises(ValidationError):
        DiscussionParams(t_max=0)
    with pytest.raises(ValidationError):
        DiscussionParams(beta=0.0)
    with pytest.raises(ValidationError):
        DiscussionParams(n_experts=0)


def test_expert_role_requires_fields():
    with pytest.raises(ValidationError):
        ExpertRole(id="", name="n", description="d", template="t")
    with pytest.raises(ValidationError):
        ExpertRole(id="x", name="n", description="", template="t")
    with pytest.raises(ValidationError, match="'id' must be a non-empty string"):
        ExpertRole(id=5, name="n", description="d", template="t")
    with pytest.raises(ValidationError, match="'template' must be a non-empty string"):
        ExpertRole(id="x", name="n", description="d", template=["t"])


def test_packaged_registry():
    registry = load_registry()
    ids = [r.id for r in registry]
    assert ids == sorted(ids)
    assert CRITIC_ID in ids
    assert len(ids) == len(set(ids))
    assert len(ids) - 1 >= DiscussionParams().n_experts


def test_registry_from_directory(tmp_path):
    for rid in ("zeta", "alpha"):
        (tmp_path / f"{rid}.json").write_text(
            json.dumps(
                {"id": rid, "name": rid, "description": "d", "template": "t"}
            )
        )
    roles = load_registry(str(tmp_path))
    assert [r.id for r in roles] == ["alpha", "zeta"]
    (tmp_path / "dupe.json").write_text(
        json.dumps({"id": "alpha", "name": "x", "description": "d", "template": "t"})
    )
    with pytest.raises(ValidationError, match="duplicate"):
        load_registry(str(tmp_path))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValidationError, match="no role files"):
        load_registry(str(empty))


@pytest.mark.parametrize(
    "content, match",
    [
        (b'{"id": "broken"', "not valid JSON"),
        (b'[{"id": "listed"}]', "beta.json must be a JSON object"),
        (b'{"id": "caf\xe9"}', "cannot read"),
        (b'{"id": "beta", "name": "b", "description": "d"}', "beta.json key template is missing"),
        (b'{"id": "beta", "name": "b", "description": "d", "template": "t", "tone": "x"}',
         "unknown role file .*beta.json key tone"),
    ],
    ids=["bad-json", "json-list", "non-utf8", "missing-key", "unknown-key"],
)
def test_registry_rejects_bad_role_file(tmp_path, content, match):
    (tmp_path / "alpha.json").write_text(
        json.dumps({"id": "alpha", "name": "a", "description": "d", "template": "t"})
    )
    (tmp_path / "beta.json").write_bytes(content)
    with pytest.raises(LoadError, match=match):
        load_registry(str(tmp_path))


def test_registry_refusal_by_the_role_names_its_file(tmp_path):
    (tmp_path / "a.json").write_text(
        json.dumps({"id": "", "name": "a", "description": "d", "template": "t"}))
    with pytest.raises(LoadError) as refused:
        load_registry(str(tmp_path))
    assert str(refused.value) == (
        f"role file {tmp_path / 'a.json'}: expert role field 'id' must be a non-empty string")
    for name in ("a.json", "c.json"):
        (tmp_path / name).write_text(
            json.dumps({"id": "b", "name": name, "description": "d", "template": "t"}))
    with pytest.raises(ValidationError) as refused:
        load_registry(str(tmp_path))
    assert str(refused.value) == (f"role file {tmp_path / 'c.json'}: duplicate expert role id: b,"
                                  f" also in role file {tmp_path / 'a.json'}")


# ---------------------------------------------------------------------------
# relevance and panel selection


def test_relevance_maps_cosine_to_unit_interval():
    e = MappedEmbedder(
        {"aligned": [1.0, 0.0, 0.0, 0.0], "opposed": [-1.0, 0.0, 0.0, 0.0],
         "orthogonal": [0.0, 1.0, 0.0, 0.0]},
        default=[1.0, 0.0, 0.0, 0.0],
    )
    assert relevance("aligned", "summary", e) == pytest.approx(1.0)
    assert relevance("opposed", "summary", e) == pytest.approx(0.0)
    assert relevance("orthogonal", "summary", e) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        relevance("", "summary", e)


def test_select_experts_is_deterministic_and_ends_with_critic():
    registry = [role("a"), role("b"), role("c"), CRITIC]
    report = make_report()
    e = MappedEmbedder({}, default=[1.0, 0.0, 0.0, 0.0])
    params = DiscussionParams(n_experts=2)
    first = select_experts(registry, report, params, seed=7, embedder=e)
    second = select_experts(registry, report, params, seed=7, embedder=e)
    assert [r.id for r in first] == [r.id for r in second]
    assert first[-1].id == CRITIC_ID
    assert len(first) == 3
    assert len({r.id for r in first}) == 3  # sampling without replacement


def test_select_experts_favors_relevant_roles():
    hot = role("hot", desc="hot description")
    colds = [role("cold-1", desc="cold one"), role("cold-2", desc="cold two")]
    registry = [hot] + colds + [CRITIC]
    e = MappedEmbedder(
        {
            "hot description": [1.0, 0.0, 0.0, 0.0],
            "cold one": [0.0, 1.0, 0.0, 0.0],
            "cold two": [0.0, 0.0, 1.0, 0.0],
        },
        default=[1.0, 0.0, 0.0, 0.0],  # the report summary aligns with "hot"
    )
    report = make_report()
    params = DiscussionParams(n_experts=1)
    wins = sum(
        select_experts(registry, report, params, seed=s, embedder=e)[0].id == "hot"
        for s in range(200)
    )
    # exp(5)/(exp(5) + 2 exp(2.5)) ~ 0.86 of draws
    assert wins > 140


def test_select_experts_errors():
    report = make_report()
    e = MappedEmbedder({}, default=[1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="critic"):
        select_experts([role("a")], report, DiscussionParams(n_experts=1), 0, e)
    with pytest.raises(ValidationError, match="candidate roles"):
        select_experts([role("a"), CRITIC], report, DiscussionParams(n_experts=2), 0, e)


# ---------------------------------------------------------------------------
# the recurrence and its stop rule


def test_update_confidence_examples():
    assert update_confidence(0.5, 0.8, [0.6, 0.7]) == pytest.approx(0.665, abs=1e-12)
    got = update_confidence(0.5, 0.8, [0.7, 0.9])
    assert got == pytest.approx(0.3 * 0.5 + 0.4 * 0.8 + 0.3 * 0.8, abs=1e-12)
    # no peers: the first two weights renormalize
    assert update_confidence(0.4, 0.6, []) == pytest.approx(0.36 / 0.7, abs=1e-12)
    got = update_confidence(0.5, 0.8, [])
    assert got == pytest.approx((0.3 * 0.5 + 0.4 * 0.8) / 0.7, abs=1e-12)
    with pytest.raises(ValidationError):
        update_confidence(1.5, 0.5, [])
    with pytest.raises(ValidationError):
        update_confidence(0.5, 0.5, [2.0])
    with pytest.raises(ValidationError):
        update_confidence(0.5, 0.5, [], lambdas=(0.5, 0.4, 0.3))


def test_constant_scores_follow_geometric_closed_form():
    c = 0.0
    for t in range(1, 11):
        c = update_confidence(c, 0.9, [0.9, 0.9])
        assert c == pytest.approx(0.9 * (1.0 - 0.3**t), abs=1e-12)
    assert abs(c - 0.9) < 6e-6


def test_converged_reasons_in_order():
    assert converged([0.7, 0.9], [0.0, 0.0], 0.8, 0.03) == (False, "below-threshold")
    assert converged([0.85, 0.95], [0.85, 0.95], 0.8, 0.03) == (False, "spread")
    assert converged([0.9, 0.905], [0.8, 0.81], 0.8, 0.03) == (False, "delta")
    assert converged([0.9, 0.905], [0.895, 0.9], 0.8, 0.03) == (True, "converged")
    # threshold failures take precedence over spread and delta
    assert converged([0.1, 0.9], [0.5, 0.5], 0.8, 0.03) == (False, "below-threshold")
    with pytest.raises(ValidationError):
        converged([0.5], [0.5, 0.5], 0.8, 0.03)
    with pytest.raises(ValidationError):
        converged([], [], 0.8, 0.03)


def test_integration_weights_examples():
    assert integration_weights([0.7, 0.7]) == pytest.approx([0.5, 0.5])
    w = integration_weights([1.0, 0.0])
    assert w[0] == pytest.approx(math.e / (math.e + 1.0))
    assert sum(w) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        integration_weights([])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
    st.floats(-3.0, 3.0, allow_nan=False),
)
def test_integration_weights_invariants(confidences, shift):
    weights = integration_weights(confidences)
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert all(w > 0.0 for w in weights)
    assert weights[int(np.argmax(confidences))] == max(weights)
    shifted = integration_weights([c + shift for c in confidences])
    assert shifted == pytest.approx(weights, abs=1e-9)


# ---------------------------------------------------------------------------
# scoring helper


def test_request_score_paths():
    provider = ScriptedChatProvider(["SCORE: 0.9"])
    assert request_score(provider, "rate this") == (0.9, 1)
    provider = ScriptedChatProvider(["no score here", "SCORE: 0.75"])
    assert request_score(provider, "rate this") == (0.75, 2)
    assert [t.role for t in provider.calls[1]] == ["user", "assistant", "user"]
    provider = ScriptedChatProvider(["no", "still no"])
    assert request_score(provider, "rate this") == (0.5, 2)
    # an empty reply is malformed like any other
    assert request_score(ScriptedChatProvider(["", "SCORE: 0.6"]), "rate this") == (0.6, 2)
    assert request_score(ScriptedChatProvider(["", ""]), "rate this") == (0.5, 2)


# ---------------------------------------------------------------------------
# plan finalization


def test_finalize_plan_merges_sections_by_weight():
    plan_a = json.dumps({s: f"a-{s}" for s in PLAN_SECTIONS})
    plan_b = json.dumps({s: f"b-{s}" for s in PLAN_SECTIONS})
    plan = finalize_plan(
        ["a", "b"], {"a": 0.6, "b": 0.9}, {"a": plan_a, "b": plan_b}, rounds_used=3
    )
    w_b = math.exp(0.9) / (math.exp(0.9) + math.exp(0.6))
    assert plan.weights_at_finalization["b"] == pytest.approx(w_b)
    first_line = plan.sections["architecture"].splitlines()[0]
    assert first_line == f"({w_b:.4f}) [b] b-architecture"
    assert plan.rounds_used == 3
    assert sum(plan.weights_at_finalization.values()) == pytest.approx(1.0)


def test_finalize_plan_falls_back_to_digest():
    proposals = {"a": "free-form prose a", "b": "free-form prose b"}
    plan = finalize_plan(["a", "b"], {"a": 0.5, "b": 0.5}, proposals, 1)
    for section in PLAN_SECTIONS:
        assert "free-form prose a" in plan.sections[section]
        assert "free-form prose b" in plan.sections[section]
        assert "(0.5000)" in plan.sections[section]


def test_finalize_plan_skips_deeply_nested_proposal():
    nested = "[" * 100000
    plan = finalize_plan(["a", "b"], {"a": 0.5, "b": 0.5}, {"a": PLAN_JSON, "b": nested}, 1)
    assert plan.sections["architecture"] == "(0.5000) [a] identity"
    # a non-finite number makes a proposal unparseable in the same way
    for number in ("NaN", "Infinity", "1e999"):
        bad = json.dumps({"architecture": "wide", "extra": 1.5}).replace("1.5", number)
        plan = finalize_plan(["a", "b"], {"a": 0.5, "b": 0.5}, {"a": PLAN_JSON, "b": bad}, 1)
        assert plan.sections["architecture"] == "(0.5000) [a] identity"


def test_finalize_plan_partial_contributions():
    filled = json.dumps({"preprocessing": "normalize counts"})
    plan = finalize_plan(
        ["a", "b"], {"a": 0.5, "b": 0.5}, {"a": filled, "b": "prose"}, 1
    )
    assert plan.sections["preprocessing"] == "(0.5000) [a] normalize counts"
    # nobody filled training: full digest including both proposals
    assert "prose" in plan.sections["training"]
    assert "normalize counts" in plan.sections["training"]


def test_research_plan_validation_and_round_trip():
    sections = {s: f"text {s}" for s in PLAN_SECTIONS}
    plan = ResearchPlan(sections=sections, weights_at_finalization={"a": 1.0}, rounds_used=2)
    rebuilt = ResearchPlan.from_json(plan.to_json())
    assert rebuilt == plan
    assert list(plan.to_json()["sections"]) == list(PLAN_SECTIONS)
    with pytest.raises(ValidationError, match="sections empty"):
        ResearchPlan(
            sections={**sections, "training": ""},
            weights_at_finalization={"a": 1.0},
            rounds_used=1,
        )
    with pytest.raises(ValidationError, match="sum to 1"):
        ResearchPlan(sections=sections, weights_at_finalization={"a": 0.4}, rounds_used=1)


# ---------------------------------------------------------------------------
# the full discussion


def _panel(n=2):
    return [role(chr(ord("a") + i)) for i in range(n)] + [CRITIC]


def test_discussion_converges_at_round_four():
    provider = ScriptedChatProvider(discussion_replies(2, 4, score=0.9))
    plan, trace = run_discussion(
        make_report(), DiscussionParams(), provider, experts=_panel(2)
    )
    assert provider.remaining == 0  # exactly 24 scripted replies consumed
    assert trace.rounds_used == 4
    assert trace.converged is True
    assert trace.reason == "converged"
    assert [r.reason for r in trace.rounds] == [
        "below-threshold",
        "delta",
        "delta",
        "converged",
    ]
    for t, rnd in enumerate(trace.rounds, start=1):
        expected = 0.9 * (1.0 - 0.3**t)
        for value in rnd.confidences.values():
            assert value == pytest.approx(expected, abs=1e-12)
    assert plan.weights_at_finalization == pytest.approx({"a": 0.5, "b": 0.5})
    assert plan.rounds_used == 4
    for section in PLAN_SECTIONS:
        assert plan.sections[section]


def test_discussion_hits_round_cap_on_mediocre_scores():
    provider = ScriptedChatProvider(discussion_replies(2, 10, score=0.5))
    plan, trace = run_discussion(
        make_report(), DiscussionParams(), provider, experts=_panel(2)
    )
    assert provider.remaining == 0  # 2 + 10*4 + 9*2 = 60
    assert trace.rounds_used == 10
    assert trace.converged is False
    assert trace.reason == "round-cap"
    assert all(r.reason == "below-threshold" for r in trace.rounds)
    assert plan.rounds_used == 10


def test_single_expert_uses_renormalized_recurrence():
    provider = ScriptedChatProvider(discussion_replies(1, 5, score=0.9))
    plan, trace = run_discussion(
        make_report(), DiscussionParams(), provider, experts=_panel(1)
    )
    assert provider.remaining == 0
    assert trace.rounds_used == 5
    assert trace.reason == "converged"
    # c_t = 0.9 * (1 - (3/7)^t): threshold clears at round 3, delta at round 5
    for t, rnd in enumerate(trace.rounds, start=1):
        assert rnd.confidences["a"] == pytest.approx(
            0.9 * (1.0 - (3.0 / 7.0) ** t), abs=1e-12
        )
    assert [r.reason for r in trace.rounds] == [
        "below-threshold",
        "below-threshold",
        "delta",
        "delta",
        "converged",
    ]


def test_discussion_call_order_and_hand_computed_round():
    replies = [
        "PROPOSAL-A",
        "PROPOSAL-B",
        "SCORE: 0.6",  # critic scores a
        "SCORE: 0.7",  # critic scores b
        "SCORE: 0.8",  # a scores b
        "SCORE: 0.9",  # b scores a
    ]
    provider = ScriptedChatProvider(replies)
    plan, trace = run_discussion(
        make_report(), DiscussionParams(t_max=1), provider, experts=_panel(2)
    )
    assert trace.reason == "round-cap"
    rnd = trace.rounds[0]
    assert rnd.critic_scores == {"a": 0.6, "b": 0.7}
    assert rnd.peer_scores == {"a": {"b": 0.8}, "b": {"a": 0.9}}
    assert rnd.confidences["a"] == pytest.approx(0.4 * 0.6 + 0.3 * 0.9, abs=1e-12)
    assert rnd.confidences["b"] == pytest.approx(0.4 * 0.7 + 0.3 * 0.8, abs=1e-12)

    prompts = [call[0].text for call in provider.calls]
    assert "You are the a." in prompts[0] and "You are the b." in prompts[1]
    assert "You are the critic." in prompts[2] and "PROPOSAL-A" in prompts[2]
    assert "You are the critic." in prompts[3] and "PROPOSAL-B" in prompts[3]
    assert "You are the a." in prompts[4] and "PROPOSAL-B" in prompts[4]
    assert "You are the b." in prompts[5] and "PROPOSAL-A" in prompts[5]

    # weights: b edges out a, digest is weight-descending with 4-place tags
    w_b = math.exp(0.52) / (math.exp(0.52) + math.exp(0.51))
    digest = plan.sections["preprocessing"]
    assert digest.splitlines()[0] == f"({w_b:.4f}) [b] PROPOSAL-B"
    assert digest.splitlines()[1].endswith("[a] PROPOSAL-A")


def test_discussion_score_retry_and_neutral_fallback():
    replies = [PLAN_JSON, "no score", "SCORE: 0.9"]
    provider = ScriptedChatProvider(replies)
    _, trace = run_discussion(
        make_report(), DiscussionParams(t_max=1), provider, experts=_panel(1)
    )
    assert trace.rounds[0].critic_scores == {"a": 0.9}
    assert len(provider.calls) == 3

    provider = ScriptedChatProvider([PLAN_JSON, "no score", "still none"])
    _, trace = run_discussion(
        make_report(), DiscussionParams(t_max=1), provider, experts=_panel(1)
    )
    assert trace.rounds[0].critic_scores == {"a": 0.5}


def test_discussion_stores_round_stamped_entities():
    from forge.protocol import MemoryStore

    store = MemoryStore()
    provider = ScriptedChatProvider(discussion_replies(2, 4, score=0.9))
    run_discussion(
        make_report(), DiscussionParams(), provider, experts=_panel(2), store=store
    )
    proposals = store.query_entities(kind="proposal")
    # 2 initial (round 0) + 2 x 3 refinement rounds
    assert len(proposals) == 8
    assert [p.round for p in proposals[:2]] == [0, 0]
    # scores and confidences live in the trace only
    assert store.query_entities(kind="result") == []
    assert [e.kind for e in store.query_entities()] == ["proposal"] * 8


def test_discussion_underflow_carries_partial_trace():
    # enough replies for the proposals and one critic score only
    provider = ScriptedChatProvider([PLAN_JSON, PLAN_JSON, "SCORE: 0.9"])
    with pytest.raises(DiscussionError) as excinfo:
        run_discussion(
            make_report(), DiscussionParams(), provider, experts=_panel(2)
        )
    trace = excinfo.value.trace
    assert trace.experts == ["a", "b", "critic"]
    assert trace.rounds == []
    assert trace.reason == "provider-failure"
    assert "after 0 completed rounds" in str(excinfo.value)


def test_discussion_panel_validation():
    report = make_report()
    provider = ScriptedChatProvider([])
    with pytest.raises(ValidationError, match="critic"):
        run_discussion(report, DiscussionParams(), provider, experts=[role("a")])
    with pytest.raises(ValidationError, match="at least one"):
        run_discussion(report, DiscussionParams(), provider, experts=[CRITIC])
    with pytest.raises(ValidationError, match="duplicate"):
        run_discussion(
            report, DiscussionParams(), provider,
            experts=[role("a"), role("a"), CRITIC],
        )


def test_discussion_trace_serializes():
    provider = ScriptedChatProvider(discussion_replies(2, 4, score=0.9))
    _, trace = run_discussion(
        make_report(), DiscussionParams(), provider, experts=_panel(2)
    )
    doc = trace.to_json()
    assert doc["experts"] == ["a", "b", "critic"]
    assert len(doc["rounds"]) == 4
    assert doc["rounds"][3]["converged"] is True
    assert (doc["rounds_used"], doc["converged"]) == (4, True)
    assert json.loads(json.dumps(doc)) == doc
    empty = DiscussionTrace(experts=["a", "critic"])
    assert (empty.rounds_used, empty.converged) == (0, False)
    assert empty.to_json() == {"experts": ["a", "critic"], "rounds": [], "reason": "",
                               "rounds_used": 0, "converged": False}
