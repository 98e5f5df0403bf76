"""Path simulation for the regime-switching mean-reverting jump SDE.

The observed process solves

    dX_t = lam * (b(alpha_t) - X_t) dt + dZ_t,

where alpha is a continuous-time Markov chain on {1..N} with generator Q
(independent of Z) and Z is a centered symmetric NIG Levy process with
unit-time law NIG(a, 0, delta, 0).  Paths are generated by an Euler scheme
on a fine grid of spacing h / fine_factor; the chain is frozen between fine
grid points and the noise increment over a span tau is an exact
NIG(a, 0, delta*tau, 0) draw (the Levy increments convolve, so no
refinement of the noise itself is needed).  Observations are the fine path
thinned to the coarse grid of spacing h.

The Euler recursion is affine in X, so :func:`euler_path` runs it as a
blocked scan in about 2 sqrt(n) vectorized steps rather than one Python
step per grid point.  It keeps the two-level form, blocks of about
sqrt(n) steps and then one step per block boundary, where the smoother's
scans chain their block ends by doubling.  Acceptance criterion 7
(``tests/test_acceptance.py``) checks the scheme's strong order 1 by
coupling successive refinements of :func:`euler_path`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import ChainPath, GeneratorMatrix, _check_step, simulate_chain
from .errors import ConfigError
from .likelihood import ObservationSeries, Theta
from .nig import NigParams, sample_nig

GRID_TOL = 1e-9
# most fine grid steps; a simulation peaks at three arrays of this length,
# about 2.4 GB at 10^8, or at four when euler_path pads a copy of the noise
MAX_FINE_STEPS = 10**8


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to draw one observed path.

    alpha0 defaults to the regime with the largest level b(i) (smallest
    label on ties).  ``fine_factor`` is the number of Euler substeps per
    observation interval; the fine grid's ``n_obs * fine_factor`` steps
    may not exceed ``MAX_FINE_STEPS``.
    """

    theta_true: Theta
    a_nuisance: float
    generator: GeneratorMatrix
    horizon_t: float
    obs_step_h: float
    fine_factor: int = 10
    x0: float = 0.0
    alpha0: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not (self.a_nuisance > 0.0):
            raise ConfigError(f"a must be > 0, got {self.a_nuisance}")
        if not (0.0 < self.horizon_t < np.inf) or not (0.0 < self.obs_step_h < np.inf):
            raise ConfigError("horizon_t and obs_step_h must be finite and > 0")
        if self.fine_factor < 1:
            raise ConfigError(f"fine_factor must be >= 1, got {self.fine_factor}")
        if self.theta_true.n_states != self.generator.n_states:
            raise ConfigError(
                f"theta has {self.theta_true.n_states} regimes but the generator "
                f"has {self.generator.n_states} states"
            )
        n = self.horizon_t / self.obs_step_h
        if abs(n - round(n)) > GRID_TOL * max(1.0, n):
            raise ConfigError(
                f"horizon_t / obs_step_h = {n!r} is not an integer number of steps"
            )
        if self.n_obs < 1:
            raise ConfigError(f"horizon_t / obs_step_h = {n!r} rounds to no step")
        if self.n_obs * self.fine_factor > MAX_FINE_STEPS:
            raise ConfigError(f"the fine grid has n_obs * fine_factor = {self.n_obs} * "
                              f"{self.fine_factor} steps, more than {MAX_FINE_STEPS}")
        s = self.theta_true.delta * self.fine_step  # the NIG increments' scale
        if not (s / self.a_nuisance > 0.0 and s * s > 0.0):  # wald's mean and shape
            raise ConfigError(f"NIG increment scale delta * fine step = {s!r} underflows")
        _check_step(self.generator, self.fine_step)
        # |1 - lam*step| < 1 with lam > 0; compared as a product, because
        # 1 - lam*step rounds to 1.0 for a tiny lam*step, which does not diverge
        if not (self.theta_true.lam * self.fine_step < 2.0):
            raise ConfigError(
                f"simulation.lambda * fine step = {self.theta_true.lam!r} * "
                f"{self.fine_step!r} must be < 2, or the Euler recursion diverges"
            )
        if self.alpha0 is not None and not (1 <= self.alpha0 <= self.generator.n_states):
            raise ConfigError(f"alpha0 must lie in 1..{self.generator.n_states}")

    @property
    def n_obs(self) -> int:
        return int(round(self.horizon_t / self.obs_step_h))

    @property
    def fine_step(self) -> float:
        return self.obs_step_h / self.fine_factor

    @property
    def initial_state(self) -> int:
        if self.alpha0 is not None:
            return self.alpha0
        return 1 + int(np.argmax(self.theta_true.b))


def simulate_path(cfg: SimulationConfig) -> tuple[ObservationSeries, ChainPath, ChainPath]:
    """Simulate one path; returns (observations, chain at obs grid, fine chain).

    All randomness comes from ``default_rng(cfg.seed)``, drawn in a fixed
    order: the fine-grid chain first, then the fine-grid noise increments.
    """
    rng = np.random.default_rng(cfg.seed)
    n_fine = cfg.n_obs * cfg.fine_factor
    step = cfg.fine_step
    chain = simulate_chain(cfg.generator, step, n_fine, cfg.initial_state, rng)
    increments = sample_nig(NigParams(cfg.a_nuisance, cfg.theta_true.delta, step), n_fine, rng)
    x_fine = euler_path(cfg.x0, cfg.theta_true, chain.states, increments, step)
    x_obs = x_fine[:: cfg.fine_factor]
    obs_chain = ChainPath(chain.states[:: cfg.fine_factor], cfg.obs_step_h)
    return ObservationSeries(x_obs, cfg.obs_step_h), obs_chain, chain


def euler_path(
    x0: float,
    theta: Theta,
    states: np.ndarray,
    increments: np.ndarray,
    step: float,
) -> np.ndarray:
    """Euler recursion X_{k+1} = X_k + lam*(b(alpha_k) - X_k)*step + dZ_k.

    ``states`` holds 1-based regime labels on the grid (length n+1),
    ``increments`` the n noise increments.  Returns the full grid path.
    A length mismatch or a label outside 1..N raises ConfigError.

    The recursion is affine, X_{k+1} = c X_k + u_k with c = 1 - lam*step
    and u_k = lam*step*b(alpha_k) + dZ_k, so it runs as a blocked two-level
    scan in about 2 sqrt(n) Python steps: ``nb`` blocks of ``bl`` steps, one
    matvec against c^(bl-1-t) for every block's end value from a zero
    start, an ``nb``-step chain of the block starts under c^bl, and then the
    loop expression above down the ``bl`` columns, for all blocks at once
    from their true starts.  The path buffer first holds b(alpha_k) and is
    overwritten column by column with X_{k+1}.  ``increments`` is only
    read; it is padded with zeros into a copy only when n is not nb * bl.
    """
    n = increments.shape[0]
    if states.shape[0] != n + 1:
        raise ConfigError(
            f"states length {states.shape[0]} does not match {n} increments"
        )
    labels = np.asarray(states[:-1], dtype=np.int64)
    if n and not (1 <= labels.min() and labels.max() <= theta.n_states):
        raise ConfigError(f"regime labels must lie in 1..{theta.n_states}")
    lam = theta.lam
    bl = max(1, int(np.ceil(np.sqrt(n))))
    nb = -(-n // bl)
    x = np.zeros(nb * bl + 1)
    x[0] = x0
    # the table [0, b_1, ..., b_N] takes the 1-based labels as they are; mode
    # "clip" writes straight into x, "raise" would buffer a full copy
    levels = np.concatenate(([0.0], theta.b))
    np.take(levels, labels, out=x[1 : n + 1], mode="clip")
    drift = x[1:].reshape(nb, bl)
    if n == nb * bl:  # as for a perfect square n: the noise is read in place
        noise = increments.reshape(nb, bl)
    else:
        noise = np.zeros(nb * bl)
        noise[:n] = increments
        noise = noise.reshape(nb, bl)
    c = 1.0 - lam * step
    powers = c ** np.arange(bl - 1, -1, -1.0)
    ends = lam * step * (drift @ powers) + noise @ powers
    starts = np.empty(nb)
    cur, c_block = float(x0), c**bl
    for j in range(nb):
        starts[j] = cur
        cur = c_block * cur + ends[j]
    cur = starts
    for t in range(bl):
        cur = cur + lam * (drift[:, t] - cur) * step + noise[:, t]
        drift[:, t] = cur
    return x[: n + 1]
