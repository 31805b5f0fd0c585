"""Expert selection and round-based consensus over research plans.

The design stage assembles a panel of domain experts plus a permanent
critic, has each expert draft a plan proposal, and then iterates rounds
of scoring: the critic scores every proposal, every expert scores every
peer's proposal, and each expert's confidence is updated by the weighted
recurrence

    c_t = lam1 * c_{t-1} + lam2 * critic_score + lam3 * mean(peer_scores)

The round loop stops when every confidence clears the threshold while
both the pairwise spread and the per-round delta stay under ``eps``, or
at the round cap. The final plan merges the proposals under soft-voting
weights ``w_i = exp(c_i) / sum_j exp(c_j)``.

All provider traffic is deterministic in order: initial proposals in
panel order, critic scores in submission order, peer scores sorted by
(scorer id, proposer id), refinements in panel order. Scores arrive via
a final reply line ``SCORE: <decimal>``; an unparseable reply earns one
corrective re-prompt and then falls back to the neutral 0.5.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DiscussionError,
    LoadError,
    ProviderError,
    ValidationError,
)
from .protocol import MemoryStore, build_record, canonical_json, parse_json, read_text
from .providers import (
    ChatProvider,
    ChatTurn,
    Embedder,
    ReplyError,
    ask,
    extract_score,
)
from .task_analysis import EMPTY_VALUES, AnalysisReport, load_template, parse_json_reply

CRITIC_ID = "critic"

PLAN_SECTIONS = (
    "preprocessing",
    "architecture",
    "implementation",
    "training",
    "evaluation",
)

_LAMBDA_TOL = 1e-12
_WEIGHT_TOL = 1e-9


# ----------------------------------------------------------------------
# Roles and registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExpertRole:
    """One registry entry: a named persona with its prompt template."""

    id: str
    name: str
    description: str
    template: str

    def __post_init__(self):
        for attr in ("id", "name", "description", "template"):
            value = getattr(self, attr)
            if not value or not isinstance(value, str):
                raise ValidationError(f"expert role field {attr!r} must be a non-empty string")


def load_registry(path: Optional[str] = None) -> List[ExpertRole]:
    """Read role files (one JSON object per role) sorted by role id.

    Without a path the roles shipped with the package are used.
    """
    root = resources.files("forge.data.roles") if path is None else Path(path)
    entries = sorted(
        (e for e in root.iterdir() if e.name.endswith(".json")) if root.is_dir() else (),
        key=lambda e: e.name,
    )
    if not entries:
        raise ValidationError(f"no role files found under {path}")
    roles: List[ExpertRole] = []
    seen: Dict[str, Any] = {}  # role id -> its file
    for entry in entries:
        what = f"role file {entry}"
        try:
            role = build_record(what, ExpertRole, parse_json(read_text(str(entry)), str(entry)))
        except LoadError as exc:  # ExpertRole's own refusal does not name the file
            raise LoadError(f"{what}: {exc}") if isinstance(exc.__cause__, ValidationError) else exc
        if role.id in seen:
            raise ValidationError(f"{what}: duplicate expert role id: {role.id}, "
                                  f"also in role file {seen[role.id]}")
        seen[role.id] = entry
        roles.append(role)
    return sorted(roles, key=lambda r: r.id)


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------


@dataclass
class DiscussionParams:
    """Knobs of the discussion loop."""

    lambdas: Tuple[float, float, float] = (0.3, 0.4, 0.3)
    tau: float = 0.8
    eps: float = 0.03
    t_max: int = 10
    beta: float = 5.0
    n_experts: int = 5

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) != 3 or any(v < 0.0 for v in lams):
            raise ValidationError("lambdas must be three non-negative fractions")
        if abs(sum(lams) - 1.0) > _LAMBDA_TOL:
            raise ValidationError(
                f"lambdas must sum to 1 within {_LAMBDA_TOL}: got {sum(lams)!r}"
            )
        self.lambdas = lams
        if not 0.0 < self.tau <= 1.0:
            raise ValidationError("tau must be in (0, 1]")
        if self.eps <= 0.0:
            raise ValidationError("eps must be positive")
        if self.t_max < 1:
            raise ValidationError("t_max must be a positive integer")
        if self.beta <= 0.0:
            raise ValidationError("beta must be positive")
        if self.n_experts < 1:
            raise ValidationError("n_experts must be a positive integer")


# ----------------------------------------------------------------------
# Pure pieces of the recurrence
# ----------------------------------------------------------------------


def _check_fraction(value: float, label: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{label} must be in [0, 1]: got {value!r}")
    return value


def relevance(role_description: str, report_summary: str, embedder: Embedder) -> float:
    """Cosine affinity between a role and the analysis, mapped to [0, 1]."""
    if not role_description or not report_summary:
        raise ValidationError("relevance requires non-empty texts")
    a, b = embedder.embed([role_description, report_summary])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ProviderError("embedding provider returned a zero vector")
    cos = float(np.dot(a, b) / (na * nb))
    return min(1.0, max(0.0, (cos + 1.0) / 2.0))


def select_experts(
    registry: Sequence[ExpertRole],
    report: AnalysisReport,
    params: DiscussionParams,
    seed: int,
    embedder: Embedder,
) -> List[ExpertRole]:
    """Softmax-sample the panel without replacement; the critic always joins.

    Draw probabilities are proportional to exp(beta * relevance) and are
    renormalized over the remaining candidates after each draw.
    """
    by_id = {role.id: role for role in registry}
    critic = by_id.get(CRITIC_ID)
    if critic is None:
        raise ValidationError("registry must include the critic role")
    candidates = sorted((r for r in registry if r.id != CRITIC_ID), key=lambda r: r.id)
    if len(candidates) < params.n_experts:
        raise ValidationError(
            f"registry holds {len(candidates)} candidate roles; "
            f"{params.n_experts} required"
        )
    summary = report.summary_text()
    scores = np.array(
        [params.beta * relevance(r.description, summary, embedder) for r in candidates]
    )
    rng = np.random.default_rng(seed)
    remaining = list(range(len(candidates)))
    chosen: List[ExpertRole] = []
    for _ in range(params.n_experts):
        logits = scores[remaining]
        probs = np.exp(logits - logits.max())
        probs = probs / probs.sum()
        pick = int(rng.choice(len(remaining), p=probs))
        chosen.append(candidates[remaining.pop(pick)])
    return chosen + [critic]


def update_confidence(
    prev: float,
    critic_score: float,
    peer_scores: Sequence[float],
    lambdas: Tuple[float, float, float] = (0.3, 0.4, 0.3),
) -> float:
    """One step of the confidence recurrence.

    With no peers the first two weights are renormalized to sum to one and
    the peer term drops out.
    """
    lam1, lam2, lam3 = (float(v) for v in lambdas)
    if abs(lam1 + lam2 + lam3 - 1.0) > _LAMBDA_TOL:
        raise ValidationError("lambdas must sum to 1")
    prev = _check_fraction(prev, "prev")
    critic_score = _check_fraction(critic_score, "critic_score")
    peers = [_check_fraction(s, "peer score") for s in peer_scores]
    if peers:
        return lam1 * prev + lam2 * critic_score + lam3 * (sum(peers) / len(peers))
    return (lam1 * prev + lam2 * critic_score) / (lam1 + lam2)


def integration_weights(confidences: Sequence[float]) -> List[float]:
    """Soft-voting weights: w_i = exp(c_i) / sum_j exp(c_j)."""
    if len(confidences) == 0:
        raise ValidationError("integration_weights requires at least one confidence")
    arr = np.asarray(confidences, dtype=float)
    shifted = np.exp(arr - arr.max())
    weights = shifted / shifted.sum()
    return [float(w) for w in weights]


def converged(
    current: Sequence[float],
    previous: Sequence[float],
    tau: float,
    eps: float,
) -> Tuple[bool, str]:
    """Check all three stop conditions; the reason names the first failure.

    Conditions: every confidence at or above ``tau``; max pairwise spread
    below ``eps``; max per-expert change since the previous round below
    ``eps``.
    """
    if len(current) != len(previous):
        raise ValidationError("confidence vectors must have equal lengths")
    if len(current) == 0:
        raise ValidationError("confidence vectors must be non-empty")
    cur = [float(c) for c in current]
    prev = [float(c) for c in previous]
    if any(c < tau for c in cur):
        return False, "below-threshold"
    if max(cur) - min(cur) >= eps:
        return False, "spread"
    if max(abs(c - p) for c, p in zip(cur, prev)) >= eps:
        return False, "delta"
    return True, "converged"


# ----------------------------------------------------------------------
# Discussion loop
# ----------------------------------------------------------------------


@dataclass
class RoundTrace:
    """Everything one round produced."""

    round: int
    proposals: Dict[str, str]  # expert id -> proposal entity id
    critic_scores: Dict[str, float]
    peer_scores: Dict[str, Dict[str, float]]  # scorer -> proposer -> score
    confidences: Dict[str, float]
    converged: bool
    reason: str


@dataclass
class DiscussionTrace:
    """Round-by-round record of a full discussion; its outcome is computed from the rounds."""

    experts: List[str]
    rounds: List[RoundTrace] = field(default_factory=list)
    reason: str = ""

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def converged(self) -> bool:
        return bool(self.rounds) and self.rounds[-1].converged

    def to_json(self) -> Dict[str, Any]:
        return {**asdict(self), "rounds_used": self.rounds_used, "converged": self.converged}


@dataclass
class ResearchPlan:
    """The consensus plan the execution stage implements."""

    sections: Dict[str, str]
    weights_at_finalization: Dict[str, float]
    rounds_used: int

    def __post_init__(self):
        missing = [s for s in PLAN_SECTIONS if not self.sections.get(s)]
        if missing:
            raise ValidationError(f"plan sections empty: {', '.join(missing)}")
        total = sum(self.weights_at_finalization.values())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"plan weights must sum to 1: got {total!r}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "sections": {s: self.sections[s] for s in PLAN_SECTIONS},
            "weights_at_finalization": dict(self.weights_at_finalization),
            "rounds_used": self.rounds_used,
        }

    @classmethod
    def from_json(cls, doc: Any) -> "ResearchPlan":
        """A plan read back from ``plan.json``; a malformed one is a :class:`LoadError`."""
        return build_record("plan", cls, doc)


def _parse_score(reply: str) -> float:
    score = extract_score(reply)
    if score is None:
        raise ReplyError("no SCORE line")
    return score


def request_score(provider: ChatProvider, prompt: str) -> Tuple[float, int]:
    """Ask for a score; re-prompt once on a malformed reply, then use 0.5.

    Returns the score and the number of exchanges it took."""
    try:
        answer = ask(provider, prompt, _parse_score,
                     lambda reason: load_template("score-retry").substitute())
    except ReplyError:
        return 0.5, 2
    return answer.value, answer.calls


def _proposal_digest(order: Sequence[Tuple[str, float, str]]) -> str:
    """Render proposals in weight-descending order, weights to four places."""
    lines = []
    for expert_id, weight, text in order:
        lines.append(f"({weight:.4f}) [{expert_id}] {text.strip()}")
    return "\n".join(lines)


def _weight_order(
    experts: Sequence[str],
    weights: Dict[str, float],
    proposals: Dict[str, str],
) -> List[Tuple[str, float, str]]:
    ranked = sorted(experts, key=lambda e: (-weights[e], e))
    return [(e, weights[e], proposals[e]) for e in ranked]


def finalize_plan(
    experts: Sequence[str],
    confidences: Dict[str, float],
    proposals: Dict[str, str],
    rounds_used: int,
) -> ResearchPlan:
    """Merge proposals into the five plan sections under soft-voting weights.

    A proposal that parses as a JSON object contributes its own value for
    each section it fills, highest weight first; sections nobody filled
    fall back to the full weight-ordered digest so the plan stays whole.
    """
    weight_list = integration_weights([confidences[e] for e in experts])
    weights = {e: w for e, w in zip(experts, weight_list)}
    parsed: Dict[str, Dict[str, Any]] = {}
    for expert_id in experts:
        try:
            doc = parse_json_reply(proposals[expert_id])
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict):
            parsed[expert_id] = doc

    order = _weight_order(experts, weights, proposals)
    full_digest = _proposal_digest(order)
    sections: Dict[str, str] = {}
    for section in PLAN_SECTIONS:
        contributions = []
        for expert_id, weight, _ in order:
            doc = parsed.get(expert_id)
            if doc is None:
                continue
            value = doc.get(section)
            if value in EMPTY_VALUES:
                continue
            rendered = value if isinstance(value, str) else canonical_json(value)
            contributions.append((expert_id, weight, rendered))
        sections[section] = (
            _proposal_digest(contributions) if contributions else full_digest
        )
    return ResearchPlan(
        sections=sections,
        weights_at_finalization=weights,
        rounds_used=rounds_used,
    )


def run_discussion(
    report: AnalysisReport,
    params: DiscussionParams,
    provider: ChatProvider,
    *,
    experts: Sequence[ExpertRole],
    store: Optional[MemoryStore] = None,
) -> Tuple[ResearchPlan, DiscussionTrace]:
    """Run the full deliberation and return the plan plus its trace.

    ``experts`` is the panel, critic last (see :func:`select_experts`).
    Each proposal is stored as a knowledge entity with its round number;
    the scores and confidences of each round live in the trace, and the
    plan is returned, not stored.
    """
    panel = list(experts)
    if not panel or panel[-1].id != CRITIC_ID:
        raise ValidationError("expert panel must end with the critic")
    members = panel[:-1]
    if not members:
        raise ValidationError("expert panel needs at least one non-critic member")
    member_ids = [m.id for m in members]
    if len(set(member_ids)) != len(member_ids):
        raise ValidationError("expert panel has duplicate role ids")

    store = store if store is not None else MemoryStore()
    summary = report.summary_text()
    trace = DiscussionTrace(experts=member_ids + [CRITIC_ID])
    latest = {m: 0.0 for m in member_ids}  # each member's current confidence
    proposals: Dict[str, str] = {}
    proposal_entities: Dict[str, str] = {}
    by_id = {m.id: m for m in panel}

    def propose(template: str, round_no: int, digest: str = "") -> None:
        """Each member drafts (or refines) its proposal, in panel order."""
        for member in members:
            prompt = load_template(template).substitute(
                persona=member.template, summary=summary, digest=digest,
                own=proposals.get(member.id, ""),
            )
            reply, _ = provider.complete([ChatTurn("user", prompt)])
            proposals[member.id] = reply
            proposal_entities[member.id] = store.record(
                "proposal", {"expert": member.id, "text": reply}, member.id,
                "discussion", round_no,
            )

    def rate(metric: str, pairs: Sequence[Tuple[str, str]]) -> Dict[str, Dict[str, float]]:
        """Score each (scorer, proposer) pair with the ``metric`` template;
        returns scores by scorer, then proposer."""
        scores: Dict[str, Dict[str, float]] = {}
        for scorer, proposer in pairs:
            prompt = load_template(metric).substitute(
                persona=by_id[scorer].template, summary=summary,
                proposal=proposals[proposer],
            )
            score, _ = request_score(provider, prompt)
            scores.setdefault(scorer, {})[proposer] = score
        return scores

    try:
        propose("proposal", 0)
        final_reason = ""
        for round_no in range(1, params.t_max + 1):
            critic_scores = rate(  # submission order
                "critic-score", [(CRITIC_ID, m) for m in member_ids])[CRITIC_ID]
            peers = rate(
                "peer-score", sorted((s, p) for s in member_ids for p in member_ids if s != p))
            peer_scores = {m: peers.get(m, {}) for m in member_ids}

            previous = [latest[m] for m in member_ids]
            confidences: Dict[str, float] = {}
            for member_id in member_ids:
                incoming = [peer_scores[s][member_id] for s in member_ids if s != member_id]
                confidences[member_id] = update_confidence(
                    latest[member_id], critic_scores[member_id], incoming, params.lambdas)

            latest = confidences
            current = [confidences[m] for m in member_ids]
            done, reason = converged(current, previous, params.tau, params.eps)
            trace.rounds.append(
                RoundTrace(
                    round=round_no,
                    proposals=dict(proposal_entities),
                    critic_scores=critic_scores,
                    peer_scores=peer_scores,
                    confidences=confidences,
                    converged=done,
                    reason=reason,
                )
            )
            if done:
                final_reason = "converged"
                break
            if round_no == params.t_max:
                final_reason = "round-cap"
                break

            weight_map = dict(zip(member_ids, integration_weights(current)))
            digest = _proposal_digest(_weight_order(member_ids, weight_map, proposals))
            propose("refine-proposal", round_no, digest)
    except ProviderError as exc:
        trace.reason = "provider-failure"
        raise DiscussionError(
            f"provider failed after {trace.rounds_used} completed rounds: {exc}",
            trace=trace,
        ) from exc

    trace.reason = final_reason
    return finalize_plan(member_ids, latest, proposals, trace.rounds_used), trace
