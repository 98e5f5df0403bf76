"""Normal Inverse Gaussian (NIG) increment law: density, sampling, Cauchy limit.

The symmetric centered law NIG(a, 0, s, 0) with tail parameter ``a`` and
scale ``s`` has density

    f(z) = (a s / pi) * exp(a s) * K1(a * sqrt(s^2 + z^2)) / sqrt(s^2 + z^2),

where K1 is the modified Bessel function of the second kind with index 1.
An increment over a time span ``t`` of a Levy process whose unit-time law is
NIG(a, 0, delta, 0) follows NIG(a, 0, delta*t, 0) by convolution closure.

The law is a normal variance-mean mixture: Z = sqrt(V) * N(0, 1) with V
inverse Gaussian with mean s/a and shape s^2.  Rescaling by the scale
parameter gives Z/(s) ~ NIG(a*s, 0, 1, 0), which converges to a standard
Cauchy as a*s -> 0; this is the basis of the Cauchy quasi-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class NigParams:
    """Parameters of the increment law NIG(a, 0, delta*t, 0).

    a      -- tail-heaviness parameter, > 0 (dimensionless)
    delta  -- scale of the unit-time law, > 0
    t      -- time span of the increment, > 0
    """

    a: float
    delta: float
    t: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ValueError(f"a must be > 0, got {self.a}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not (self.t > 0.0):
            raise ValueError(f"t must be > 0, got {self.t}")

    @property
    def scale(self) -> float:
        """Effective NIG scale delta * t of the increment."""
        return self.delta * self.t


def nig_density(z, p: NigParams):
    """Density of NIG(a, 0, delta*t, 0) evaluated at ``z`` (scalar or array).

    Uses the exponentially scaled K1 so the a*s prefactor never overflows:
    with u = a*sqrt(s^2 + z^2) >= a*s the exponent a*s - u is <= 0.
    """
    z = np.asarray(z, dtype=float)
    s = p.scale
    root = np.sqrt(s * s + z * z)
    u = p.a * root
    out = (p.a * s / np.pi) * np.exp(p.a * s - u) * special.k1e(u) / root
    if out.ndim == 0:
        return float(out)
    return out


def sample_nig(p: NigParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. variates from NIG(a, 0, delta*t, 0).

    Normal variance-mean mixture: V ~ InverseGaussian(mean=s/a, shape=s^2)
    followed by sqrt(V) * standard normal.  The inverse Gaussian draw uses
    the Michael-Schucany-Haas transformation (numpy's ``wald``), so each
    variate costs constant time.  Deterministic given ``rng``'s state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    s = p.scale
    v = rng.wald(s / p.a, s * s, size=count)
    return np.sqrt(v) * rng.standard_normal(count)


def cauchy_density(z, scale: float = 1.0):
    """Centered Cauchy density scale / (pi (scale^2 + z^2)) at a float or array ``z``."""
    return scale / (np.pi * (scale * scale + z * z))


def std_cauchy_limit_check(a: float, delta: float, h_values) -> np.ndarray:
    """Sup-norm gaps between NIG(a*h*|delta|, 0, 1, 0) and the standard Cauchy.

    For each step size h in the strictly decreasing sequence ``h_values``,
    evaluates both densities on 2001 equally spaced points z in [-10, 10]
    and returns the maximal absolute difference.  The gaps shrink as h
    decreases, which is the small-time Cauchy limit of the rescaled NIG
    increment.
    """
    h_values = np.asarray(h_values, dtype=float)
    if h_values.ndim != 1 or h_values.size == 0:
        raise ValueError("h_values must be a non-empty 1-d sequence")
    if np.any(h_values <= 0.0):
        raise ValueError("h_values must be positive")
    if h_values.size > 1 and np.any(np.diff(h_values) >= 0.0):
        raise ValueError("h_values must be strictly decreasing")
    grid = np.linspace(-10.0, 10.0, 2001)
    cauchy = cauchy_density(grid)
    gaps = np.empty_like(h_values)
    for idx, h in enumerate(h_values):
        p = NigParams(a * h * abs(delta), 1.0, 1.0)
        gaps[idx] = np.max(np.abs(nig_density(grid, p) - cauchy))
    return gaps
