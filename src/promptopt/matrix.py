"""Section-by-operator value table driving operator selection.

The table holds finite nonnegative values Q[section, operator]; normalizing the
whole table gives the probability of picking operator j to edit section i.

numpy is imported inside the functions that build or sample the table, so
importing this module (and every command that never builds a matrix) does
not pay numpy's import time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import CorruptFile, CountTooLarge, EmptyAxis, ZeroMass
from .fileio import write_text_atomic

if TYPE_CHECKING:
    import numpy as np

Q_FLOOR = 1e-4


@dataclass
class TransitionMatrix:
    sections: tuple[str, ...]
    operators: tuple[str, ...]
    # shape (len(sections), len(operators)), finite and nonnegative; nested
    # lists are converted to a float64 array
    q: np.ndarray

    def __post_init__(self):
        import numpy as np

        self.q = np.asarray(self.q, dtype=np.float64)
        if self.q.shape != (len(self.sections), len(self.operators)):
            raise ValueError("q shape %r does not match axes" % (self.q.shape,))
        # a label that is not a string can never match a prompt's section id
        # or an operator id
        if not all(isinstance(s, str) for s in self.sections):
            raise ValueError("section labels must be strings")
        if not all(isinstance(o, str) for o in self.operators):
            raise ValueError("operator labels must be strings")
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
    q = [[1.0 / (n * m)] * m for _ in range(n)]
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
    import numpy as np

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
        doc["q"],
    )


def save_matrix(m: TransitionMatrix, path):
    write_text_atomic(path, json.dumps(matrix_to_dict(m), indent=2) + "\n")


def load_matrix(path) -> TransitionMatrix:
    """The matrix saved at `path`; CorruptFile if the file does not hold one."""
    try:
        return matrix_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptFile("cannot read matrix file %s: %s" % (path, e)) from None
