"""Section-by-operator value table driving operator selection.

The table holds finite nonnegative values Q[section, operator]; normalizing the
whole table gives the probability of picking operator j to edit section i.
It is one list of floats per section; its sum is math.fsum's, and its draws
come from one seeded `random.Random` (see promptopt.rng).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

from .errors import CorruptFile, CountTooLarge, EmptyAxis, ZeroMass
from .fileio import write_text_atomic
from .rng import Random, choice_distinct

Q_FLOOR = 1e-4


def _as_table(q, n_rows: int, n_cols: int) -> list[list[float]]:
    """`q` copied into n_rows lists of n_cols floats; ValueError unless it
    is a table of that shape of finite nonnegative real numbers."""
    try:
        table = [list(row) for row in q]
    except TypeError:
        raise ValueError("q must be a table of rows, one per section") from None
    if len(table) != n_rows:
        raise ValueError("q has %d rows for %d sections" % (len(table), n_rows))
    for i, row in enumerate(table):
        if len(row) != n_cols:
            raise ValueError("q row %d has %d cells for %d operators" % (i, len(row), n_cols))
        for x in row:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError("q entries must be numbers, not %s" % type(x).__name__)
        try:
            table[i] = [float(x) for x in row]
        except OverflowError:
            raise ValueError("q entries must be finite") from None
    cells = list(chain.from_iterable(table))
    if not all(map(math.isfinite, cells)):
        raise ValueError("q entries must be finite")
    if cells and min(cells) < 0:
        raise ValueError("q entries must be nonnegative")
    return table


@dataclass
class TransitionMatrix:
    sections: tuple[str, ...]
    operators: tuple[str, ...]
    # one row per section, one cell per operator, finite and nonnegative;
    # any table of real numbers (nested lists, a 2-D array) is copied into
    # lists of floats
    q: list[list[float]]

    def __post_init__(self):
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
        self.q = _as_table(self.q, len(self.sections), len(self.operators))

    def index(self, section: str, operator: str) -> tuple[int, int]:
        return self.sections.index(section), self.operators.index(operator)

    def value(self, section: str, operator: str) -> float:
        i, j = self.index(section, operator)
        return self.q[i][j]

    def copy(self) -> "TransitionMatrix":
        # __post_init__ copies the rows, so the two tables share none
        return TransitionMatrix(self.sections, self.operators, self.q)


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


def selection_distribution(m: TransitionMatrix) -> list[list[float]]:
    """Probability of each (section, operator) cell: the q table normalized
    by its sum."""
    total = math.fsum(x for row in m.q for x in row)
    if total <= 0:
        raise ZeroMass("matrix sum is zero; cannot normalize")
    return [[x / total for x in row] for row in m.q]


def select_pairs(m: TransitionMatrix, count: int, rng: Random,
                 eligible: Optional[Sequence[Sequence[bool]]] = None) -> list[SelectionPair]:
    """Sample `count` distinct cells without replacement, each draw
    proportional to the current distribution restricted to the remaining
    cells. `eligible` is an optional boolean mask shaped like q (e.g.
    editable sections only)."""
    probs = selection_distribution(m)
    if eligible is not None:
        probs = [[p if ok else 0.0 for p, ok in zip(row, mask_row)]
                 for row, mask_row in zip(probs, eligible)]
    weights = [p for row in probs for p in row]
    available = sum(1 for w in weights if w > 0)
    if count > available:
        raise CountTooLarge(
            "requested %d pairs but only %d eligible cells" % (count, available)
        )
    n_ops = len(m.operators)
    cells = [divmod(idx, n_ops) for idx in choice_distinct(rng, weights, count)]
    return [SelectionPair(m.sections[i], m.operators[j]) for i, j in cells]


def matrix_to_dict(m: TransitionMatrix) -> dict:
    return {
        "sections": list(m.sections),
        "operators": list(m.operators),
        "q": [list(row) for row in m.q],
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
