"""Multiplicative relative-gradient update for the transition matrix.

A selected cell is scaled by (1 + alpha * norm) where norm is the relative
score change of the edit the cell produced; everything else is untouched.
An additive variant (q + alpha * norm) is available for comparison.
"""

from __future__ import annotations

from .errors import InvalidAlpha, ZeroBaseline
from .matrix import Q_FLOOR, SelectionPair, TransitionMatrix


def norm_delta(score_prev: float, score_cur: float) -> float:
    """Relative score change of an edit: (cur - prev) / prev. Improvement is
    positive."""
    if score_prev <= 0:
        raise ZeroBaseline("baseline score must be positive, got %r" % score_prev)
    return (score_cur - score_prev) / score_prev


def msgd_update(m: TransitionMatrix, pair: SelectionPair, norm: float,
                alpha: float = 1.0, mode: str = "multiplicative") -> TransitionMatrix:
    """Return a copy of the matrix with the pair's cell updated; the cell is
    clamped below at Q_FLOOR so it can always be re-explored."""
    if alpha <= 0:
        raise InvalidAlpha("alpha must be positive, got %r" % alpha)
    out = m.copy()
    i, j = out.index(pair.section, pair.operator)
    if mode == "multiplicative":
        new = out.q[i][j] * (1.0 + alpha * norm)
    elif mode == "additive":
        new = out.q[i][j] + alpha * norm
    else:
        raise ValueError("unknown update mode %r" % mode)
    out.q[i][j] = max(new, Q_FLOOR)
    return out
