"""Cauchy quasi-likelihood surface: transition density, objective, derivatives.

The latent-regime objective at parameters theta, given the pair weights
w[i, k, j-1] = P(a_{t_{j-1}} = i, a_{t_j} = k | X) smoothed at the previous
iterate, reads them only through the two statistics :class:`SmoothedPairProbs`
carries: their marginals p[i, j-1] = P(a_{t_{j-1}} = i | X) and their totals
W[i, k] = sum_j w[i, k, j-1], the expected transition counts:

    H = sum_{j=1..n} sum_{i,k} w[i,k,j-1] log( f(u_ij; s) A[i,k] )
      = sum_{j,i} p[i,j-1] log f(u_ij; s) + sum_{i,k} W[i,k] log A[i,k],

where f(u; s) = s / (pi r), r = s^2 + u^2, is the Cauchy density at the Euler
residual u = X_j - X_{j-1} - lam*(b_i - X_{j-1})*h with scale s = delta*h, and
A is the one-step chain kernel.  H's derivatives are the chain rule: log f
has slopes l_u = -2u/r, l_s = 1/s - 2s/r and curvatures l_uu = 2(u^2 -
s^2)/r^2, l_us = 4us/r^2, l_ss = -1/s^2 - l_uu; the map has du/db_i = -lam*h,
du/dlam = -(b_i - X_{j-1})*h, ds/ddelta = h and one second derivative
d2u/db_i dlam = -h.

One evaluation per iterate: :class:`CauchyTerms` holds the residuals u and
r, the density s / q and its log -log(q / s), q = pi r, each computed once,
and on first use the slopes l_u and l_s.  EM builds one per iterate, which that
iterate's filter, H_n and derivatives all read.

Index convention: the observation axis is last.  The smoothed distributions
have shape (N, n+1), column j for t_j; the terms are (N, n) arrays, column
j-1 for observation j.  Every sum over the regimes then runs along the
contiguous observation axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EvaluationError

PAIR_SLICE_TOL = 1e-9


@dataclass(frozen=True)
class Theta:
    """Estimation target: regime levels b(1..N), reversion rate, noise scale.

    ``b[i-1]`` is the drift level of regime i.  ``lam`` and ``delta`` must
    be positive; coinciding b levels are legal, though the model is only
    identified when they differ.
    """

    b: np.ndarray
    lam: float
    delta: float

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "b", b)
        if not (self.lam > 0.0):
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be > 0, got {self.delta}")

    @property
    def n_states(self) -> int:
        return self.b.size

    def to_vector(self) -> np.ndarray:
        """Coordinates in the order (b(1), ..., b(N), lam, delta)."""
        return np.concatenate([self.b, [self.lam, self.delta]])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Theta":
        v = np.asarray(v, dtype=float)
        return cls(v[:-2].copy(), float(v[-2]), float(v[-1]))


@dataclass(frozen=True)
class ObservationSeries:
    """Equally spaced observations X_{t_0..t_n} with step h (t_0 = 0)."""

    x: np.ndarray
    h: float
    t0: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need at least two observations")
        if not np.all(np.isfinite(x)):
            raise ValueError("observations contain non-finite values")
        if not (self.h > 0.0):
            raise ValueError(f"h must be > 0, got {self.h}")

    @property
    def n(self) -> int:
        return self.x.size - 1


@dataclass(frozen=True)
class SmoothedPairProbs:
    """The smoother's sufficient statistics for the M-step.

    smoothed[k, j] = P(a_{t_j} = k | X_{0..n}), shape (N, n+1), each column
    summing to 1; totals[i, k] = sum_j P(a_{t_{j-1}} = i, a_{t_j} = k |
    X_{0..n}), shape (N, N), the expected transition counts.
    """

    smoothed: np.ndarray
    totals: np.ndarray

    def __post_init__(self):
        sm = np.asarray(self.smoothed, dtype=float)
        tot = np.asarray(self.totals, dtype=float)
        object.__setattr__(self, "smoothed", sm)
        object.__setattr__(self, "totals", tot)
        if sm.ndim != 2 or sm.shape[0] < 1 or sm.shape[1] < 2 or tot.shape != sm.shape[:1] * 2:
            raise ValueError(f"bad shapes: smoothed {sm.shape}, totals {tot.shape}")
        if not (sm.min() >= 0.0 and sm.max() <= 1.0):  # a NaN makes both NaN
            raise ValueError("smoothed weights must lie in [0, 1]")
        sums = sm.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > PAIR_SLICE_TOL):
            j = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"smoothed column {j} sums to {sums[j]!r}, not 1")
        if not tot.min() >= 0.0:
            raise ValueError("pair totals must be >= 0")

    @property
    def n(self) -> int:
        return self.smoothed.shape[1] - 1

    @property
    def n_states(self) -> int:
        return self.smoothed.shape[0]


@dataclass(frozen=True)
class CauchyTerms:
    """The per-observation (N, n) terms at ``theta``; see the module docstring."""

    theta: Theta
    obs: ObservationSeries
    u: np.ndarray = field(init=False, repr=False)
    r: np.ndarray = field(init=False, repr=False)
    density: np.ndarray = field(init=False, repr=False)
    log_density: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xp = self.obs.x[:-1]
        u = self.obs.x[1:] - xp - self.theta.lam * (self.theta.b[:, None] - xp) * self.obs.h
        s = self.theta.delta * self.obs.h
        r = s * s + u * u
        q = np.pi * r
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "density", s / q)
        with np.errstate(over="ignore"):  # where the density underflows, -log gives -inf
            object.__setattr__(self, "log_density", -np.log(q / s))

    @cached_property
    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(l_u, l_s), the slopes of log f in the residual and the scale."""
        u, s, r = self.u, self.theta.delta * self.obs.h, self.r
        return -2.0 * u / r, 1.0 / s - 2.0 * s / r


def H_n(terms: CauchyTerms, a: np.ndarray, w: SmoothedPairProbs) -> float:
    """Weighted quasi-log-likelihood H(theta; w) at ``terms.theta`` under the
    one-step kernel ``a``.

    ``a`` is the kernel the weights were smoothed under
    (:attr:`FilterState.kernel`).  Terms with zero weight contribute zero
    (0*log 0 = 0 convention); a zero transition probability carrying
    positive weight is an evaluation error.
    """
    _check_dims(terms, w, *a.shape)
    bad = (a <= 0.0) & (w.totals > 0.0)
    if np.any(bad):
        i, k = np.argwhere(bad)[0]
        raise EvaluationError(
            f"impossible transition has positive weight: A[{i + 1},{k + 1}] = "
            f"{a[i, k]!r} but total weight {w.totals[i, k]!r}"
        )
    log_a = np.where(w.totals > 0.0, np.log(np.where(a > 0.0, a, 1.0)), 0.0)
    return float(np.sum(w.smoothed[:, :-1] * terms.log_density) + np.sum(w.totals * log_a))


def _check_dims(terms: CauchyTerms, w: SmoothedPairProbs, *sizes: int) -> None:
    """The regime count of theta and each of ``sizes`` must equal the weights'."""
    sizes = (terms.theta.n_states, *sizes)
    if any(k != w.n_states for k in sizes) or w.n != terms.obs.n:
        raise EvaluationError(
            f"dimension mismatch: regime counts {sizes}, "
            f"weights (n={w.n}, N={w.n_states}), observations n={terms.obs.n}"
        )


def grad_H(terms: CauchyTerms, w: SmoothedPairProbs) -> np.ndarray:
    """Analytic gradient of H in the coordinates (b(1..N), lam, delta)."""
    _check_dims(terms, w)
    h, wi = terms.obs.h, w.smoothed[:, :-1]
    l_u, l_s = terms.slopes
    wl_u = wi * l_u
    v = terms.theta.b[:, None] - terms.obs.x[:-1]
    d_b = -terms.theta.lam * h * np.sum(wl_u, axis=1)
    d_lam = -h * float(np.sum(wl_u * v))
    d_delta = h * float(np.sum(wi * l_s))
    return np.concatenate([d_b, [d_lam, d_delta]])


def hessian_H(terms: CauchyTerms, w: SmoothedPairProbs) -> np.ndarray:
    """Analytic Hessian of H; the b-b off-diagonal block is exactly zero."""
    _check_dims(terms, w)
    theta, u, h, wi = terms.theta, terms.u, terms.obs.h, w.smoothed[:, :-1]
    s, m = theta.delta * h, theta.n_states
    r2 = terms.r * terms.r  # (s^2 + u^2)^2
    w_uu = wi * (2.0 * (u * u - s * s) / r2)
    w_us = wi * (4.0 * u * s / r2)
    v = theta.b[:, None] - terms.obs.x[:-1]
    du_db = -theta.lam * h
    hess = np.zeros((m + 2, m + 2))
    ib = np.arange(m)  # coordinates b(1..N), then lam at m and delta at m + 1
    hess[ib, ib] = du_db * du_db * np.sum(w_uu, axis=1)
    hess[ib, m] = hess[m, ib] = (-du_db * h * np.sum(w_uu * v, axis=1)
                                 - h * np.sum(wi * terms.slopes[0], axis=1))
    hess[ib, m + 1] = hess[m + 1, ib] = du_db * h * np.sum(w_us, axis=1)
    hess[m, m] = h * h * np.sum(w_uu * v * v)
    hess[m, m + 1] = hess[m + 1, m] = -h * h * np.sum(w_us * v)
    hess[m + 1, m + 1] = -h * h * (np.sum(wi) / (s * s) + np.sum(w_uu))  # l_ss = -1/s^2 - l_uu
    return hess
