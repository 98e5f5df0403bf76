"""Continuous-time Markov chain: generator matrix, grid simulation, one-step kernel.

States are labelled 1..N externally (matching the usual convention for
regime indices); internal arrays are 0-based.

The discrete one-step kernel on a grid of spacing h drops the o(h) terms of
the generator expansion: stay with probability 1 + q_ii*h, jump i -> k with
probability q_ik*h.  This requires the step guard h <= 1 / max_i |q_ii|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated CTMC generator: nonnegative off-diagonal, rows sum to zero."""

    q: np.ndarray
    n_states: int

    def max_step(self) -> float:
        """Largest grid step keeping 1 + q_ii*h >= 0 for all states."""
        rate = float(np.max(-np.diag(self.q)))
        return np.inf if rate == 0.0 else 1.0 / rate


@dataclass(frozen=True)
class ChainPath:
    """Chain states on an equally spaced grid, labels in 1..N."""

    states: np.ndarray
    step: float

    def __post_init__(self):
        if self.states.ndim != 1 or self.states.size < 1:
            raise ValueError("states must be a non-empty 1-d array")


def validate_generator(q_raw) -> GeneratorMatrix:
    """Validate a raw rate matrix and return a :class:`GeneratorMatrix`.

    Accepts any N >= 1 states.  Rejects non-square or empty input, negative
    off-diagonal entries, and rows whose sum exceeds 1e-9 in magnitude.  The
    diagonal is recomputed as minus the off-diagonal row sum so the
    row-sum-zero invariant holds to machine precision.  With N > 1, rows with all
    off-diagonal rates zero are accepted but flagged with a warning
    (absorbing state); a one-state chain has nowhere to go and is not.
    """
    q = np.array(q_raw, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise ConfigError(f"generator must be square and non-empty, got shape {q.shape}")
    n = q.shape[0]
    if not np.all(np.isfinite(q)):
        raise ConfigError("generator contains non-finite entries")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        i, j = np.argwhere(off < 0.0)[0]
        raise ConfigError(f"negative off-diagonal rate q[{i + 1},{j + 1}] = {q[i, j]}")
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums) > ROW_SUM_TOL):
        i = int(np.argmax(np.abs(row_sums)))
        raise ConfigError(f"row {i + 1} sums to {row_sums[i]:.3e}, beyond {ROW_SUM_TOL}")
    np.fill_diagonal(off, -off.sum(axis=1))
    if n > 1 and np.any(np.diag(off) == 0.0):
        absorbing = [str(i + 1) for i in range(n) if off[i, i] == 0.0]
        warnings.warn(
            "generator has absorbing state(s) " + ", ".join(absorbing), RuntimeWarning
        )
    off.setflags(write=False)
    return GeneratorMatrix(off, n)


def _check_step(g: GeneratorMatrix, h: float) -> None:
    if not (0.0 <= h < np.inf):
        raise ConfigError(f"step must be finite and >= 0, got {h}")
    bad = 1.0 + np.diag(g.q) * h < 0.0
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConfigError(
            f"step {h} too large for state {i + 1}: 1 + q_ii*h = "
            f"{1.0 + g.q[i, i] * h:.3e} < 0 (need h <= {g.max_step():.6g})"
        )


def transition_matrix_approx(g: GeneratorMatrix, h: float) -> np.ndarray:
    """One-step transition kernel A[i,k] = 1{k=i}(1 + q_ii h) + 1{k!=i} q_ik h.

    Rows sum to exactly 1.0: the diagonal is computed as one minus the
    off-diagonal row sum, with an ulp-level fix-up so ``row.sum() == 1.0``
    holds exactly, not merely within tolerance.  No entry is negative: at
    the step bound (1 + q_ii h == 0) the off-diagonal sum can round past
    1, so the diagonal is clamped at 0 and the fix-up moves an off-diagonal
    entry instead.
    """
    _check_step(g, h)
    a = g.q * h
    np.fill_diagonal(a, 0.0)
    for i in range(g.n_states):
        a[i, i] = max(0.0, 1.0 - a[i].sum())
        _force_row_sum_one(a[i], i)
    return a


def _force_row_sum_one(row: np.ndarray, i: int) -> None:
    """Nudge row entries by single ulps until ``row.sum() == 1.0`` exactly.

    The diagonal alone cannot always reach an exact sum (the pairwise
    accumulation may round past 1 in both directions), so every entry is a
    nudge candidate; each accepted nudge perturbs one probability by one
    ulp, far below any statistical resolution, and never below zero.
    """
    for _ in range(8):
        err = row.sum() - 1.0
        if abs(err) <= np.finfo(float).eps * 4:
            break
        row[int(np.argmax(row))] -= err
    if row.sum() == 1.0:
        return
    # err is down to a few ulps of 1; scan sub-ulp-of-1 perturbations of
    # each entry (intermediate pairwise roundings make an analytic hit
    # impossible, but some nearby perturbation always rounds to 1)
    for k in range(row.size):
        old = row[k]
        step = np.spacing(old)
        for m in range(-64, 65):
            row[k] = old + m * step
            if row[k] >= 0.0 and row.sum() - 1.0 == 0.0:
                return
        row[k] = old
    raise NumericalFailure(f"cannot normalize kernel row {i + 1} exactly")


def simulate_chain(
    g: GeneratorMatrix,
    t_grid_step: float,
    n_steps: int,
    initial: int,
    rng: np.random.Generator,
) -> ChainPath:
    """Simulate the per-step categorical chain on a grid of spacing ``t_grid_step``.

    At each step the chain jumps i -> k with probability q_ik * step and
    stays put otherwise, exactly the o(h)-free kernel of
    :func:`transition_matrix_approx`.  Holding times under that kernel are
    geometric, so the path is generated by sampling geometric sojourns and
    categorical jump targets; this is distributionally identical to
    stepwise sampling and much faster for small jump rates.
    """
    if n_steps < 0:
        raise ConfigError(f"n_steps must be >= 0, got {n_steps}")
    if not (1 <= initial <= g.n_states):
        raise ConfigError(f"initial state must lie in 1..{g.n_states}, got {initial}")
    _check_step(g, t_grid_step)
    if t_grid_step == 0.0:
        raise ConfigError("t_grid_step must be > 0")

    states = np.empty(n_steps + 1, dtype=np.int64)
    state = initial - 1
    pos = 0
    states[0] = state + 1
    while pos < n_steps:
        p_jump = -g.q[state, state] * t_grid_step
        if p_jump <= 0.0:
            states[pos + 1 :] = state + 1
            break
        # sojourn: first success of per-step Bernoulli(p_jump)
        sojourn = int(rng.geometric(p_jump))
        last = min(pos + sojourn, n_steps)
        states[pos + 1 : last] = state + 1
        if pos + sojourn > n_steps:
            states[n_steps] = state + 1
            break
        rates = g.q[state].copy()
        rates[state] = 0.0
        target = int(rng.choice(g.n_states, p=rates / rates.sum()))
        states[last] = target + 1
        state = target
        pos = last
    return ChainPath(states, float(t_grid_step))
