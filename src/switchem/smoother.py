"""Forward filtering and backward smoothing of the hidden regime.

Forward pass (for j = 1..n, with D[j, i] the Cauchy emission density of X_j
given X_{j-1} in regime i, and A the one-step chain kernel):

    pair[j, i, k]  = A[i, k] * filtered[j-1, i]
    filtered[j, k] = sum_i D[j, i] * pair[j, i, k] / normalizer.

Note the emission density attaches to the *earlier* state i (the regime in
force over (t_{j-1}, t_j)), so the update mixes over i inside the sum
rather than multiplying the predicted marginal.

Backward pass (Kim-style one-lag approximation, exact when emissions would
depend only on the later state), with the predicted pair recomputed from
the filtered row and its marginal pm[j, k] = sum_i pair[j, i, k]:

    w[j, i, k] = smoothed[j, k] * pair[j, i, k] / pm[j, k]
    smoothed[j-1, i] = sum_k w[j, i, k],

with each pair slice renormalized to sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, transition_matrix_approx
from .errors import ConfigError, NumericalFailure
from .likelihood import (
    ObservationSeries,
    SmoothedPairProbs,
    Theta,
    cauchy_density_matrix,
)


@dataclass(frozen=True)
class FilterState:
    """Forward-pass output.

    filtered[j, k] = P(a_{t_j} = k | X_{0..j});
    kernel[i, k]   = A[i, k], the one-step chain kernel the pass ran under.
    The predicted pair P(a_{t_{j-1}} = i, a_{t_j} = k | X_{0..j-1}) is
    ``kernel * filtered[j-1][:, None]``; the M-step evaluates H under the
    same kernel.
    """

    filtered: np.ndarray
    kernel: np.ndarray

    @property
    def n(self) -> int:
        return self.filtered.shape[0] - 1

    @property
    def n_states(self) -> int:
        return self.filtered.shape[1]


def _initial_probs(n_states: int, initial) -> np.ndarray:
    if initial is None:
        return np.full(n_states, 1.0 / n_states)
    p = np.asarray(initial, dtype=float)
    if p.shape != (n_states,) or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ConfigError(f"initial filter probabilities invalid: {p!r}")
    return p / p.sum()


def forward_filter(
    theta: Theta,
    g: GeneratorMatrix,
    obs: ObservationSeries,
    initial_probs=None,
) -> FilterState:
    """Run the forward recursion; raises :class:`NumericalFailure` with the
    failing observation index if a normalizer is non-positive or non-finite.
    """
    if theta.n_states != g.n_states:
        raise ConfigError(
            f"theta has {theta.n_states} regimes, generator {g.n_states} states"
        )
    n, m = obs.n, g.n_states
    a = transition_matrix_approx(g, obs.h)
    d = cauchy_density_matrix(theta, obs)

    filtered = np.zeros((n + 1, m))
    filtered[0] = _initial_probs(m, initial_probs)
    for j in range(1, n + 1):
        pj = a * filtered[j - 1][:, None]
        post = d[j][:, None] * pj
        col = post.sum(axis=0)
        z = col.sum()
        if not np.isfinite(z) or z <= 0.0:
            # densities can underflow jointly for far-outlying observations;
            # retry the step with the densities rescaled by their maximum
            dm = d[j].max()
            if dm > 0.0 and np.isfinite(dm):
                col = (d[j] / dm)[:, None] * pj
                col = col.sum(axis=0)
                z = col.sum()
            if not np.isfinite(z) or z <= 0.0:
                raise NumericalFailure(
                    f"forward filter normalizer {z!r} at observation {j}", index=j
                )
        filtered[j] = col / z
    return FilterState(filtered, a)


def backward_smooth(fs: FilterState) -> SmoothedPairProbs:
    """Backward pass producing the pairwise weights w[j, i, k].

    The pass needs only the filter state: each predicted pair is rebuilt
    from the kernel and the filtered row exactly as the forward pass built
    it.  Smoothed marginals are recoverable via :func:`smoothed_marginals`.
    """
    n, m = fs.n, fs.n_states
    smoothed = np.zeros((n + 1, m))
    w = np.zeros((n + 1, m, m))
    smoothed[n] = fs.filtered[n]
    for j in range(n, 0, -1):
        pj = fs.kernel * fs.filtered[j - 1][:, None]
        pm = pj.sum(axis=0)
        ratio = np.where(pm > 0.0, smoothed[j] / np.where(pm > 0.0, pm, 1.0), 0.0)
        wj = pj * ratio[None, :]
        z = wj.sum()
        if not np.isfinite(z) or z <= 0.0:
            raise NumericalFailure(
                f"backward smoother slice sum {z!r} at observation {j}", index=j
            )
        wj /= z
        w[j] = wj
        smoothed[j - 1] = wj.sum(axis=1)
    return SmoothedPairProbs(w)


def smoothed_marginals(fs: FilterState, w: SmoothedPairProbs) -> np.ndarray:
    """Smoothed one-point probabilities P(a_{t_j} = k | X_{0..n}).

    Slices 0..n-1 marginalize the pairwise weights w[j+1] over the later
    state; the terminal slice is the filtered distribution.
    """
    return np.vstack([w.w[1:].sum(axis=2), fs.filtered[-1:]])


def smooth_regimes(
    theta: Theta,
    g: GeneratorMatrix,
    obs: ObservationSeries,
    initial_probs=None,
) -> tuple[FilterState, np.ndarray, SmoothedPairProbs]:
    """Convenience wrapper: forward pass then backward pass."""
    fs = forward_filter(theta, g, obs, initial_probs)
    w = backward_smooth(fs)
    return fs, smoothed_marginals(fs, w), w
