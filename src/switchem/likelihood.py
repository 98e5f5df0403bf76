"""Cauchy quasi-likelihood surface: transition density, objective, derivatives.

The latent-regime objective evaluated at parameters theta given pairwise
smoothed regime weights w computed at the previous iterate is

    H(theta; w) = sum_{j=1..n} sum_{i,k} w[i,k,j-1] *
                  log( f(X_j | X_{j-1}, regime i; theta) * A[i,k] ),

where f is the Cauchy density with location X_{j-1} + lam*(b_i - X_{j-1})*h
and scale delta*h, and A is the one-step chain kernel.  The analytic
gradient and Hessian are assembled from the named kernels K1..K9 below,
which factor every derivative into (weight-independent) per-observation
terms; each formula is cross-checked against finite differences in the
test suite.

One evaluation per iterate: :class:`CauchyTerms` holds the terms at one
theta, each computed once.  From the residuals u and q = pi (s^2 + u^2),
s = delta*h, it derives the density s / q, which the forward filter,
:func:`grad_H` and :func:`hessian_H` read, and the log density
-log(q / s), which :func:`H_n` reads; K1, K3 and K4, which both
derivatives read, follow on first use.  EM builds one per iterate, for
H_n at the new iterate, and the next iteration's filter, H_n and
derivatives reuse it.  The weight sums over the later regime and over the
observations are likewise kept, on first use, on :class:`SmoothedPairProbs`.

Index convention: the observation axis is last.  Weight arrays have shape
(N, N, n), and w[i, k, j-1] weights the pair (a_{t_{j-1}}, a_{t_j}) = (i, k),
j = 1..n; the terms are (N, n) arrays.  Every sum over the regimes then
runs along the contiguous observation axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EvaluationError

PAIR_SLICE_TOL = 1e-9


@dataclass(frozen=True)
class Theta:
    """Estimation target: regime levels b(1..N), reversion rate, noise scale.

    ``b[i-1]`` is the drift level of regime i.  ``lam`` and ``delta`` must
    be positive; coinciding b levels are legal for transient iterates but
    flagged, since the model is only identified when they differ.
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
        if b.size != np.unique(b).size:
            warnings.warn("theta has coinciding regime levels b(i) == b(j)", RuntimeWarning)

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
    """Pairwise smoothed regime weights w[i, k, j-1] ~ P(a_{t_{j-1}}=i, a_{t_j}=k | data).

    Shape (N, N, n); slice ``w[:, :, j-1]`` holds the pair (t_{j-1}, t_j)
    and sums to 1.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 3 or w.shape[0] != w.shape[1] or w.shape[2] < 1:
            raise ValueError(f"bad weight array shape {w.shape}")
        if not np.all((w >= 0.0) & (w <= 1.0)):
            raise ValueError("weights must lie in [0, 1]")
        sums = w.sum(axis=(0, 1))
        if np.any(np.abs(sums - 1.0) > PAIR_SLICE_TOL):
            j = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"pair slice {j} sums to {sums[j]!r}, not 1")

    @property
    def n(self) -> int:
        return self.w.shape[2]

    @property
    def n_states(self) -> int:
        return self.w.shape[0]

    @cached_property
    def marginals(self) -> np.ndarray:
        """sum_k w[i, k, j-1], the (N, n) marginals over the later regime."""
        return self.w.sum(axis=1)

    @cached_property
    def totals(self) -> np.ndarray:
        """sum_j w[i, k, j-1], the (N, N) pair totals."""
        return self.w.sum(axis=2)


@dataclass(frozen=True)
class CauchyTerms:
    """The per-observation terms at ``theta`` (see the module docstring),
    each an (N, n) array whose column j-1 is observation j: the residuals
    ``u``, the density K2 and its log, and, on first use, ``factors``."""

    theta: Theta
    obs: ObservationSeries
    u: np.ndarray = field(init=False, repr=False)
    density: np.ndarray = field(init=False, repr=False)
    log_density: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xp = self.obs.x[:-1]
        u = self.obs.x[1:] - xp - self.theta.lam * (self.theta.b[:, None] - xp) * self.obs.h
        s = self.theta.delta * self.obs.h
        q = np.pi * (s * s + u * u)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "density", s / q)
        with np.errstate(over="ignore"):  # where the density underflows, -log gives -inf
            object.__setattr__(self, "log_density", -np.log(q / s))

    @cached_property
    def factors(self) -> tuple[np.ndarray, ...]:
        """(v, K1, K3, K4) with v = b_i - X_{j-1}."""
        u, h, delta = self.u, self.obs.h, self.theta.delta
        v = self.theta.b[:, None] - self.obs.x[:-1]
        k1 = np.pi * u * u / (delta * delta * h) - h * np.pi
        k3 = 2.0 * np.pi * u * v / delta
        k4 = 2.0 * np.pi * u * self.theta.lam / delta
        return v, k1, k3, k4


def _check_pair_support(a: np.ndarray, pair_tot: np.ndarray) -> None:
    bad = (a <= 0.0) & (pair_tot > 0.0)
    if np.any(bad):
        i, k = np.argwhere(bad)[0]
        raise EvaluationError(
            f"impossible transition has positive weight: A[{i + 1},{k + 1}] = "
            f"{a[i, k]!r} but total weight {pair_tot[i, k]!r}"
        )


def H_n(terms: CauchyTerms, a: np.ndarray, w: SmoothedPairProbs) -> float:
    """Weighted quasi-log-likelihood H(theta; w) at ``terms.theta`` under the
    one-step kernel ``a``.

    ``a`` is the kernel the weights were smoothed under
    (:attr:`FilterState.kernel`).  Terms with zero weight contribute zero
    (0*log 0 = 0 convention); a zero transition probability carrying
    positive weight is an evaluation error.
    """
    _check_dims(terms, w, *a.shape)
    _check_pair_support(a, w.totals)
    log_a = np.where(w.totals > 0.0, np.log(np.where(a > 0.0, a, 1.0)), 0.0)
    return float(np.sum(w.marginals * terms.log_density) + np.sum(w.totals * log_a))


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
    _, k1, k3, k4 = terms.factors
    k2, wi = terms.density, w.marginals
    d_b = np.sum(k2 * k4 * wi, axis=1)
    d_lam = float(np.sum(k2 * k3 * wi))
    d_delta = float(np.sum(k1 * k2 * wi))
    return np.concatenate([d_b, [d_lam, d_delta]])


def hessian_H(terms: CauchyTerms, w: SmoothedPairProbs) -> np.ndarray:
    """Analytic Hessian of H; the b-b off-diagonal block is exactly zero."""
    _check_dims(terms, w)
    theta, u, k2, wi = terms.theta, terms.u, terms.density, w.marginals
    v, k1, k3, k4 = terms.factors
    h = terms.obs.h
    delta = theta.delta
    lam = theta.lam
    k5 = -2.0 * np.pi * u * u / (delta**3 * h)
    k6 = -2.0 * np.pi * h * v * v / delta
    k7 = -2.0 * np.pi * u * v / (delta * delta)
    k8 = -2.0 * np.pi * u * lam / (delta * delta)
    k9 = 2.0 * np.pi * (u - lam * v * h) / delta
    n_par = theta.n_states + 2
    il, id_ = n_par - 2, n_par - 1
    hess = np.zeros((n_par, n_par))
    hess[id_, id_] = np.sum((k1 * k1 * k2 * k2 + k2 * k5) * wi)
    hess[il, il] = np.sum((k2 * k2 * k3 * k3 + k2 * k6) * wi)
    hess[il, id_] = hess[id_, il] = np.sum((k2 * k2 * k3 * k1 + k2 * k7) * wi)
    bd = np.sum((k2 * k2 * k1 * k4 + k2 * k8) * wi, axis=1)
    bl = np.sum((k2 * k2 * k3 * k4 + k2 * k9) * wi, axis=1)
    bb = np.sum((k2 * k2 * k4 * k4 + k2 * (-2.0 * np.pi * h * lam * lam / delta)) * wi, axis=1)
    ib = np.arange(theta.n_states)
    hess[ib, id_] = hess[id_, ib] = bd
    hess[ib, il] = hess[il, ib] = bl
    hess[ib, ib] = bb
    return hess
