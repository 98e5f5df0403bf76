"""EM-style estimation of theta = (b(1..N), lam, delta) from observations.

Each iteration smooths the hidden regime at the current iterate (E-step),
then improves the weighted quasi-log-likelihood H in theta (M-step).  The
default M-step is a single projected gradient ascent step of length rho;
the Newton variant solves the full (N+2)-dimensional system and falls back
to the gradient step when the Hessian solve fails or the step does not
improve H.  Box constraints keep lam and delta strictly positive.

Termination statistics between successive iterates:

    D1 = |H_new - H_old| / |H_old|
    D2 = ||theta_new - theta_old|| / ||theta_old||
    D3 = ||theta_new - theta_old||

with Euclidean norms; the loop stops when the chosen statistic falls below
``epsilon`` or ``max_iters`` is reached.  The estimate on a max-iteration
stop is the last iterate.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix
from .errors import ConfigError, NumericalFailure
from .likelihood import (
    CauchyTerms,
    ObservationSeries,
    SmoothedPairProbs,
    Theta,
    H_n,
    grad_H,
    hessian_H,
)
from .smoother import _initial_probs, backward_smooth, forward_filter

TERMINATION_CHOICES = ("D1", "D2", "D3")
M_STEP_CHOICES = ("first_order", "newton")


@dataclass(frozen=True)
class EmConfig:
    """Tuning knobs for :func:`em_fit`.

    ``rho`` is the gradient step length; ``epsilon`` the termination
    threshold on the chosen statistic.  The per-coordinate boxes bound the
    iterates; lam and delta lows must be positive.  Initialization policy:
    an explicit ``theta0``, or uniform draws inside ``init_*_range`` seeded
    by ``init_seed`` (an int or a seed sequence such as ``(seed, 1)``) when
    ``theta0`` is None.  ``update_q`` additionally re-estimates the chain
    generator each iteration.
    """

    epsilon: float = 1e-3
    rho: float = 1e-4
    max_iters: int = 300
    termination: str = "D3"
    m_step: str = "first_order"
    update_q: bool = False
    b_box: tuple[float, float] = (-10.0, 20.0)
    lambda_box: tuple[float, float] = (1e-6, 20.0)
    delta_box: tuple[float, float] = (1e-6, 10.0)
    theta0: tuple[float, ...] | None = None
    init_seed: int | tuple[int, ...] | None = None
    init_b_range: tuple[float, float] = (0.0, 10.0)
    init_lambda_range: tuple[float, float] = (0.0, 10.0)
    init_delta_range: tuple[float, float] = (0.0, 5.0)
    initial_filter_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.termination not in TERMINATION_CHOICES:
            raise ConfigError(
                f"termination must be one of {TERMINATION_CHOICES}, got {self.termination!r}"
            )
        if self.m_step not in M_STEP_CHOICES:
            raise ConfigError(
                f"m_step must be one of {M_STEP_CHOICES}, got {self.m_step!r}"
            )
        if not (self.epsilon > 0.0) or not (self.rho > 0.0):
            raise ConfigError("epsilon and rho must be > 0")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("b_box", "lambda_box", "delta_box",
                     "init_b_range", "init_lambda_range", "init_delta_range"):
            pair = getattr(self, name)
            if len(pair) != 2 or not (pair[0] <= pair[1]):
                raise ConfigError(f"{name} must be (low, high) with low <= high: {pair}")
        if self.lambda_box[0] <= 0.0 or self.delta_box[0] <= 0.0:
            raise ConfigError("lambda_box and delta_box lows must be > 0")
        # lam and delta are redrawn until positive, which needs a positive high;
        # a negative low could make a positive draw arbitrarily rare
        lows, highs = zip(self.init_lambda_range, self.init_delta_range)
        if min(lows) < 0.0 or min(highs) <= 0.0:
            raise ConfigError("init_lambda_range and init_delta_range need 0 <= low, 0 < high")
        if self.theta0 is not None:
            v = np.asarray(self.theta0, dtype=float)
            if v.ndim != 1 or v.size < 3 or not np.all(np.isfinite(v)) or min(v[-2:]) <= 0.0:
                raise ConfigError(
                    "theta0 must be finite (b(1..N), lam, delta) with lam, delta > 0, "
                    f"got {self.theta0}"
                )

    def theta_boxes(self, n_states: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (low, high) bound vectors in theta coordinate order."""
        lo = np.concatenate(
            [np.full(n_states, self.b_box[0]), [self.lambda_box[0], self.delta_box[0]]]
        )
        hi = np.concatenate(
            [np.full(n_states, self.b_box[1]), [self.lambda_box[1], self.delta_box[1]]]
        )
        return lo, hi

    def check_sizes(self, n_states: int) -> None:
        """Check ``theta0`` and ``initial_filter_probs`` against N regimes."""
        if self.theta0 is not None and np.shape(self.theta0) != (n_states + 2,):
            raise ConfigError(
                f"theta0 must have {n_states + 2} coordinates, got {np.shape(self.theta0)}"
            )
        if self.initial_filter_probs is not None:
            _initial_probs(n_states, self.initial_filter_probs)

    def initial_theta(self, n_states: int) -> Theta:
        """Resolve the initialization policy to a concrete starting point; a
        random start redraws lam and delta until they are positive."""
        self.check_sizes(n_states)
        if self.theta0 is not None:
            return Theta.from_vector(self.theta0)
        rng = np.random.default_rng(self.init_seed)
        b = rng.uniform(*self.init_b_range, size=n_states)
        lam = delta = 0.0
        while lam <= 0.0:
            lam = float(rng.uniform(*self.init_lambda_range))
        while delta <= 0.0:
            delta = float(rng.uniform(*self.init_delta_range))
        return Theta.from_vector(np.append(b, [lam, delta]))


@dataclass(frozen=True)
class IterationRecord:
    """One EM iteration: new iterate, objective values, step diagnostics.

    ``h_before`` is H(theta_m; theta_m) and ``h_after`` H(theta_{m+1};
    theta_m), both under the weights smoothed at theta_m, so
    h_after < h_before marks an ascent violation.  ``elapsed_ms`` is the
    iteration's wall time, E-step and M-step together.
    """

    iteration: int
    theta: np.ndarray
    h_before: float
    h_after: float
    stat: float
    ascent_violation: bool
    used_fallback: bool
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class EmResult:
    """Outcome of :func:`em_fit`.

    ``status`` is 'converged', 'max_iters_reached' or 'numerical_failure';
    ``trace`` holds one record per completed iteration.
    """

    theta: Theta
    generator: GeneratorMatrix
    trace: list[IterationRecord]
    status: str
    iterations: int
    message: str = ""

    @property
    def ascent_violations(self) -> int:
        return sum(rec.ascent_violation for rec in self.trace)


def first_order_step(
    theta: Theta,
    grad: np.ndarray,
    rho: float,
    boxes: tuple[np.ndarray, np.ndarray],
) -> Theta:
    """Projected gradient ascent step: clip(theta + rho * grad) into the boxes."""
    if not np.all(np.isfinite(grad)):
        raise NumericalFailure("non-finite gradient in M-step")
    lo, hi = boxes
    return Theta.from_vector(np.clip(theta.to_vector() + rho * grad, lo, hi))


def newton_step(
    theta: Theta,
    grad: np.ndarray,
    hess: np.ndarray,
    boxes: tuple[np.ndarray, np.ndarray],
) -> tuple[Theta, bool]:
    """Projected Newton step; returns (iterate, solve_failed).

    On a singular or non-finite solve the input iterate is returned with
    the failure flag set; the caller decides the fallback.
    """
    if not np.all(np.isfinite(grad)) or not np.all(np.isfinite(hess)):
        raise NumericalFailure("non-finite derivatives in M-step")
    lo, hi = boxes
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return theta, True
    v = np.clip(theta.to_vector() + step, lo, hi)
    if not np.all(np.isfinite(v)):
        return theta, True
    return Theta.from_vector(v), False


def termination_stat(
    kind: str,
    theta_old: np.ndarray,
    theta_new: np.ndarray,
    h_old: float,
    h_new: float,
) -> float:
    """Evaluate termination statistic D1, D2, or D3 (see module docstring)."""
    if kind not in TERMINATION_CHOICES:
        raise ConfigError(f"unknown termination statistic {kind!r}")
    if kind == "D1":
        denom = abs(h_old)
        if denom == 0.0:
            warnings.warn("D1 denominator is zero, using |dH|", RuntimeWarning)
            return abs(h_new - h_old)
        return abs(h_new - h_old) / denom
    d = float(np.linalg.norm(np.asarray(theta_new) - np.asarray(theta_old)))
    if kind == "D3":
        return d
    denom = float(np.linalg.norm(theta_old))
    if denom == 0.0:
        warnings.warn("D2 denominator is zero, using D3", RuntimeWarning)
        return d
    return d / denom


def update_generator(
    g: GeneratorMatrix, w: SmoothedPairProbs, h: float
) -> GeneratorMatrix:
    """Re-estimate the generator from the pair totals (expected transition counts).

    The weighted objective in the kernel entries is maximized by the
    row-normalized pair totals A[l, m] = W[l, m] / sum_m W[l, m]; converting
    back through A = I + Q h gives the rate update.  Rows with zero total
    weight keep their previous rates.  Each exit rate is capped at 1/h, so
    a row with no stay mass, whose rates can round past the step bound,
    still gives 1 + q_ii h >= 0 and a kernel at h.
    """
    tot = w.totals
    row_tot = tot.sum(axis=1, keepdims=True)
    live = row_tot[:, 0] > 0.0
    q = np.array(g.q, dtype=float)
    q[live] = tot[live] / row_tot[live] / h
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -np.minimum(q.sum(axis=1), 1.0 / h))
    q.setflags(write=False)
    return GeneratorMatrix(q)


def em_fit(
    obs: ObservationSeries, g: GeneratorMatrix, cfg: EmConfig | None = None
) -> EmResult:
    """Run the EM loop from ``cfg.initial_theta``; returns an :class:`EmResult`.

    The start is ``cfg.theta0`` when set, else a draw seeded by
    ``cfg.init_seed``; either way its size is checked against the N states
    of ``g``.  Numerical breakdown does not raise: the result carries
    status 'numerical_failure', the last good iterate, and a message.
    """
    if cfg is None:
        cfg = EmConfig()
    theta = cfg.initial_theta(g.n_states)
    boxes = cfg.theta_boxes(g.n_states)
    gen = g
    trace: list[IterationRecord] = []
    terms = CauchyTerms(theta, obs)
    for m in range(1, cfg.max_iters + 1):
        t_start = time.perf_counter()
        try:
            fs = forward_filter(terms, gen, cfg.initial_filter_probs)
            w = backward_smooth(fs)
            h_before = H_n(terms, fs.kernel, w)
            grad = grad_H(terms, w)
            fallback = False
            if cfg.m_step == "newton":
                hess = hessian_H(terms, w)
                theta_new, fallback = newton_step(theta, grad, hess, boxes)
                if not fallback:
                    new = CauchyTerms(theta_new, obs)
                    h_after = H_n(new, fs.kernel, w)
                    fallback = h_after < h_before
            if fallback or cfg.m_step == "first_order":
                theta_new = first_order_step(theta, grad, cfg.rho, boxes)
                new = CauchyTerms(theta_new, obs)
                h_after = H_n(new, fs.kernel, w)
            if cfg.update_q:
                gen = update_generator(gen, w, obs.h)
        except NumericalFailure as exc:
            return EmResult(
                theta, gen, trace, "numerical_failure", m - 1, message=str(exc)
            )
        stat = termination_stat(
            cfg.termination, theta.to_vector(), theta_new.to_vector(), h_before, h_after
        )
        trace.append(
            IterationRecord(
                m,
                theta_new.to_vector(),
                h_before,
                h_after,
                stat,
                bool(h_after < h_before),
                fallback,
                (time.perf_counter() - t_start) * 1e3,
            )
        )
        theta, terms = theta_new, new
        if stat <= cfg.epsilon:
            return EmResult(theta, gen, trace, "converged", m)
    return EmResult(theta, gen, trace, "max_iters_reached", cfg.max_iters)


def sort_regimes(theta: Theta) -> Theta:
    """The same theta with its regimes ordered by decreasing level b.

    Regime labels are exchangeable in the likelihood, so estimates are only
    identified up to relabelling; sorting fixes a canonical order for
    reporting and error computation.
    """
    perm = np.argsort(-theta.b, kind="stable")
    return Theta.from_vector(np.append(theta.b[perm], [theta.lam, theta.delta]))


def quadratic_error(theta_hat: Theta, theta_true: Theta) -> np.ndarray:
    """Coordinatewise squared errors in the order (b(1..N), lam, delta)."""
    if theta_hat.n_states != theta_true.n_states:
        raise ConfigError("estimate and truth have different regime counts")
    d = theta_hat.to_vector() - theta_true.to_vector()
    return d * d

