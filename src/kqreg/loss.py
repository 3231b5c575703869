"""Pinball loss, its zero-shifted variant, clipping, and weighted risks.

The tie t == y falls in the ``-tau * (t - y)`` branch; both branches vanish
there, the convention only matters for derivative bookkeeping.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pinball",
    "shifted_pinball",
    "clip",
    "empirical_risk",
]


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return tau


def pinball(tau: float, y, t):
    """(1-tau)(t-y) if t > y, else -tau(t-y).  Vectorizes over y and t."""
    tau = _check_tau(tau)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    diff = t - y
    out = np.where(diff > 0, (1.0 - tau) * diff, -tau * diff)
    return float(out) if out.ndim == 0 else out


def shifted_pinball(tau: float, y, t):
    """pinball(tau, y, t) - pinball(tau, y, 0); may be negative."""
    return pinball(tau, y, t) - pinball(tau, y, 0.0)


def clip(bound: float, t):
    """Truncate t to [-bound, bound]."""
    bound = float(bound)
    if not (bound > 0):
        raise ValueError(f"clip bound must be positive, got {bound}")
    out = np.clip(np.asarray(t, dtype=float), -bound, bound)
    return float(out) if out.ndim == 0 else out


def empirical_risk(tau: float, predictions, data) -> float:
    """Weighted mean pinball risk of ``predictions`` on ``data``.

    ``data`` is a :class:`kqreg.solver.DataSet`; with uniform weights this is
    the plain average (1/n) sum_i L(y_i, t_i).
    """
    t = np.asarray(predictions, dtype=float)
    y = np.asarray(data.responses, dtype=float)
    if y.size == 0:
        raise ValueError("empty data")
    if t.shape != y.shape:
        raise ValueError(f"got {t.shape} predictions for {y.shape} responses")
    w = data.weight_vector()
    return float(np.sum(w * pinball(tau, y, t)) / np.sum(w))
