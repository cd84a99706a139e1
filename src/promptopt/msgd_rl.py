"""Sarsa-style optimizer over (section, operator) edits, with experience
persistence across datasets.

Each epoch samples several cells, applies each operator in isolation from
the epoch's base candidate, turns the score changes into a shared mean
reward, and updates each sampled cell toward reward + gamma * next-Q, where
next-Q is the provisional estimate q + gradient.
"""

from __future__ import annotations

import datetime
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import (
    CorruptFile,
    EmptySample,
    InvalidHyperparameter,
    VersionMismatch,
)
from .fileio import write_text_atomic
from .matrix import (
    Q_FLOOR,
    GradientObservation,
    SelectionPair,
    TransitionMatrix,
    init_uniform,
    matrix_from_dict,
    matrix_to_dict,
    select_pairs,
)
from .rng import Random

log = logging.getLogger(__name__)

EXPERIENCE_VERSION = 1


def provisional_next_q(q_current: float, gradient: float) -> float:
    """Bootstrapped estimate of the next state-action value: the current cell
    value shifted by the observed score change."""
    return q_current + gradient


def mean_reward(gradients: Sequence[float]) -> float:
    """One shared reward per epoch: the arithmetic mean of the sampled pairs'
    gradients."""
    if not gradients:
        raise EmptySample("need at least one gradient")
    return math.fsum(gradients) / len(gradients)


def sarsa_update(q: float, reward: float, q_next: float,
                 alpha: float = 0.5, gamma: float = 0.5) -> float:
    """Standard Sarsa target: q + alpha * (reward + gamma * q_next - q)."""
    if not 0 < alpha <= 1:
        raise InvalidHyperparameter("alpha must be in (0,1], got %r" % alpha)
    if not 0 <= gamma <= 1:
        raise InvalidHyperparameter("gamma must be in [0,1], got %r" % gamma)
    return q + alpha * (reward + gamma * q_next - q)


def rl_epoch(
    m: TransitionMatrix,
    base_score: float,
    pairs_per_epoch: int,
    rng: Random,
    apply_pair: Callable[[SelectionPair], object],
    evaluate_candidate: Callable[[object], float],
    sarsa_alpha: float = 0.5,
    sarsa_gamma: float = 0.5,
    eligible: Optional[Sequence[Sequence[bool]]] = None,
    reward_mode: str = "mean",
) -> tuple[TransitionMatrix, list[GradientObservation], list[object]]:
    """Run one optimization epoch.

    `apply_pair` turns a sampled (section, operator) cell into an edited
    candidate (or None for a no-op edit); `evaluate_candidate` scores it.
    Every edit is applied in isolation from the same base, so each gradient
    is attributable to exactly one cell. Returns the updated matrix, the
    gradient observations, and the edited candidates for retention.
    """
    if pairs_per_epoch < 1:
        raise InvalidHyperparameter("pairs_per_epoch must be >= 1")
    pairs = select_pairs(m, pairs_per_epoch, rng, eligible=eligible)
    observations: list[GradientObservation] = []
    candidates: list[object] = []
    for pair in pairs:
        cand = apply_pair(pair)
        if cand is None:
            # no-op edit: the prompt did not change, so the score cannot move
            observations.append(GradientObservation(pair, base_score, base_score))
            continue
        cur = evaluate_candidate(cand)
        observations.append(GradientObservation(pair, base_score, cur))
        candidates.append(cand)

    out = apply_sarsa_updates(m, observations, sarsa_alpha, sarsa_gamma, reward_mode)
    return out, observations, candidates


def apply_sarsa_updates(
    m: TransitionMatrix,
    observations: Sequence[GradientObservation],
    sarsa_alpha: float = 0.5,
    sarsa_gamma: float = 0.5,
    reward_mode: str = "mean",
) -> TransitionMatrix:
    """Apply one epoch's Sarsa updates to the sampled cells, in pair order,
    leaving every other cell untouched."""
    gradients = [o.gradient for o in observations]
    shared_reward = mean_reward(gradients)
    out = m.copy()
    for obs in observations:
        i, j = out.index(obs.pair.section, obs.pair.operator)
        q = out.q[i][j]
        reward = shared_reward if reward_mode == "mean" else obs.gradient
        q_next = provisional_next_q(q, obs.gradient)
        out.q[i][j] = max(sarsa_update(q, reward, q_next, sarsa_alpha, sarsa_gamma), Q_FLOOR)
    return out


# ---------------------------------------------------------------------------
# experience persistence

@dataclass
class ExperienceStore:
    matrix: TransitionMatrix
    task_kind: str
    epochs_trained: int = 0
    created_at: str = ""
    updated_at: str = ""

    @classmethod
    def new(cls, matrix: TransitionMatrix, task_kind: str, epochs_trained: int = 0):
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return cls(matrix, task_kind, epochs_trained, created_at=now, updated_at=now)


def save_experience(store: ExperienceStore, path) -> None:
    doc = {
        "version": EXPERIENCE_VERSION,
        "task_kind": store.task_kind,
        **matrix_to_dict(store.matrix),
        "epochs_trained": store.epochs_trained,
        "created_at": store.created_at,
        "updated_at": store.updated_at,
    }
    write_text_atomic(path, json.dumps(doc, indent=2) + "\n")


def read_experience(path) -> ExperienceStore:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        version = doc["version"]
        matrix = matrix_from_dict(doc)
        if not any(x > 0 for row in matrix.q for x in row):
            raise ValueError("q has no mass: every cell is 0")
        epochs_trained = doc.get("epochs_trained", 0)
        if (isinstance(epochs_trained, bool) or not isinstance(epochs_trained, int)
                or epochs_trained < 0):
            raise ValueError("epochs_trained must be a non-negative integer, not %s"
                             % json.dumps(epochs_trained))
        texts = {key: doc.get(key, "") for key in ("task_kind", "created_at", "updated_at")}
        for key, value in texts.items():
            if not isinstance(value, str):
                raise ValueError("%s must be a string, not %s" % (key, json.dumps(value)))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CorruptFile("cannot read experience file %s: %s" % (path, e))
    # by type too: true and 1.0 equal 1, but neither is a version
    if type(version) is not int or version != EXPERIENCE_VERSION:
        raise VersionMismatch("unsupported experience version %s" % json.dumps(version))
    return ExperienceStore(matrix=matrix, epochs_trained=epochs_trained, **texts)


def load_experience(path, sections: Sequence[str], operators: Sequence[str],
                    task_kind: Optional[str] = None) -> TransitionMatrix:
    """Load a prior matrix and align it to the current vocabulary by name.

    Matched (section, operator) cells are copied. A new operator column gets
    the per-row mean over matched operators; a new section row gets the
    per-column mean over matched sections; cells new on both axes get the
    prior's global mean. With no overlap at all the result is uniform.
    Each mean is math.fsum's sum over the count.
    """
    store = read_experience(path)
    if task_kind and store.task_kind and task_kind != store.task_kind:
        log.warning(
            "loading %s experience into a %s run; operator preferences are "
            "task-specific and may not transfer", store.task_kind, task_kind,
        )
    prior = store.matrix
    sec_map = {s: i for i, s in enumerate(prior.sections)}
    op_map = {o: j for j, o in enumerate(prior.operators)}
    matched_secs = [s for s in sections if s in sec_map]
    matched_ops = [o for o in operators if o in op_map]
    if not matched_secs and not matched_ops:
        return init_uniform(sections, operators)
    pq = prior.q

    def mean(values: Sequence[float]) -> float:
        return math.fsum(values) / len(values)

    global_mean = mean([x for row in pq for x in row])

    def cell(s: str, o: str) -> float:
        if s in sec_map and o in op_map:
            return pq[sec_map[s]][op_map[o]]
        if s in sec_map and matched_ops:
            return mean([pq[sec_map[s]][op_map[o2]] for o2 in matched_ops])
        if o in op_map and matched_secs:
            return mean([pq[sec_map[s2]][op_map[o]] for s2 in matched_secs])
        return global_mean

    q = [[cell(s, o) for o in operators] for s in sections]
    return TransitionMatrix(tuple(sections), tuple(operators), q)
