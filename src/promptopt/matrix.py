"""Section-by-operator value table driving operator selection.

The table holds finite nonnegative values Q[section, operator]; normalizing the
whole table gives the probability of picking operator j to edit section i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import CountTooLarge, EmptyAxis, ZeroMass
from .fileio import write_text_atomic

Q_FLOOR = 1e-4


@dataclass
class TransitionMatrix:
    sections: tuple[str, ...]
    operators: tuple[str, ...]
    q: np.ndarray  # shape (len(sections), len(operators)), finite and nonnegative

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.shape != (len(self.sections), len(self.operators)):
            raise ValueError("q shape %r does not match axes" % (self.q.shape,))
        if len(set(self.sections)) != len(self.sections):
            raise ValueError("duplicate section labels")
        if len(set(self.operators)) != len(self.operators):
            raise ValueError("duplicate operator labels")
        if not np.isfinite(self.q).all():
            raise ValueError("q entries must be finite")
        if (self.q < 0).any():
            raise ValueError("q entries must be nonnegative")

    def index(self, section: str, operator: str) -> tuple[int, int]:
        return self.sections.index(section), self.operators.index(operator)

    def value(self, section: str, operator: str) -> float:
        i, j = self.index(section, operator)
        return float(self.q[i, j])

    def set_value(self, section: str, operator: str, value: float):
        i, j = self.index(section, operator)
        self.q[i, j] = value

    def copy(self) -> "TransitionMatrix":
        return TransitionMatrix(self.sections, self.operators, self.q.copy())


@dataclass(frozen=True)
class SelectionPair:
    section: str
    operator: str


@dataclass(frozen=True)
class GradientObservation:
    pair: SelectionPair
    score_prev: float
    score_cur: float

    @property
    def gradient(self) -> float:
        return self.score_cur - self.score_prev


def init_uniform(sections: Sequence[str], operators: Sequence[str]) -> TransitionMatrix:
    """Every cell starts at 1/(rows*cols) so the table is itself the uniform
    selection distribution."""
    if not sections or not operators:
        raise EmptyAxis("need at least one section and one operator")
    n, m = len(sections), len(operators)
    q = np.full((n, m), 1.0 / (n * m))
    return TransitionMatrix(tuple(sections), tuple(operators), q)


def selection_distribution(m: TransitionMatrix) -> np.ndarray:
    """Probability of each (section, operator) cell: the q table normalized
    by its sum."""
    total = m.q.sum()
    if total <= 0:
        raise ZeroMass("matrix sum is zero; cannot normalize")
    return m.q / total


def select_pairs(m: TransitionMatrix, count: int, rng: np.random.Generator,
                 eligible: Optional[np.ndarray] = None) -> list[SelectionPair]:
    """Sample `count` distinct cells without replacement, each draw
    proportional to the current distribution restricted to the remaining
    cells. `eligible` is an optional boolean mask (e.g. editable sections
    only)."""
    probs = selection_distribution(m).copy()
    if eligible is not None:
        probs = np.where(eligible, probs, 0.0)
    flat = probs.ravel()
    available = int((flat > 0).sum())
    if count > available:
        raise CountTooLarge(
            "requested %d pairs but only %d eligible cells" % (count, available)
        )
    n_ops = len(m.operators)
    chosen = []
    weights = flat.copy()
    for _ in range(count):
        total = weights.sum()
        idx = int(rng.choice(len(weights), p=weights / total))
        weights[idx] = 0.0
        i, j = divmod(idx, n_ops)
        chosen.append(SelectionPair(m.sections[i], m.operators[j]))
    return chosen


def matrix_to_dict(m: TransitionMatrix) -> dict:
    return {
        "sections": list(m.sections),
        "operators": list(m.operators),
        "q": [[float(x) for x in row] for row in m.q],
    }


def matrix_from_dict(doc: dict) -> TransitionMatrix:
    return TransitionMatrix(
        tuple(doc["sections"]),
        tuple(doc["operators"]),
        np.array(doc["q"], dtype=np.float64),
    )


def save_matrix(m: TransitionMatrix, path):
    write_text_atomic(path, json.dumps(matrix_to_dict(m), indent=2) + "\n")


def load_matrix(path) -> TransitionMatrix:
    return matrix_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
