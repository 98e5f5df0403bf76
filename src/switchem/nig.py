"""Normal Inverse Gaussian (NIG) increment law and its sampler.

The symmetric centered law NIG(a, 0, s, 0) with tail parameter ``a`` and
scale ``s`` has density

    f(z) = (a s / pi) * exp(a s) * K1(a * sqrt(s^2 + z^2)) / sqrt(s^2 + z^2),

where K1 is the modified Bessel function of the second kind with index 1.
An increment over a time span ``t`` of a Levy process whose unit-time law is
NIG(a, 0, delta, 0) follows NIG(a, 0, delta*t, 0) by convolution closure.

The law is a normal variance-mean mixture: Z = sqrt(V) * N(0, 1) with V
inverse Gaussian with mean s/a and shape s^2.  Rescaling by the scale
parameter gives Z/(s) ~ NIG(a*s, 0, 1, 0), which converges to a standard
Cauchy as a*s -> 0; this is the basis of the Cauchy quasi-likelihood,
whose density only ``CauchyTerms`` (``switchem.likelihood``) computes.  The
estimator never evaluates f: the tests check the sampler and the Cauchy
limit against it and against the Cauchy density (``tests/oracles.py``,
acceptance criteria 5 and 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def sample_nig(p: NigParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. variates from NIG(a, 0, delta*t, 0).

    Normal variance-mean mixture: V ~ InverseGaussian(mean=s/a, shape=s^2)
    followed by sqrt(V) * standard normal.  The inverse Gaussian draw uses
    the Michael-Schucany-Haas transformation (numpy's ``wald``), so each
    variate costs constant time.  The square root and the product are taken
    in the Wald draws' own array, which is returned.  Deterministic given
    ``rng``'s state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    s = p.scale
    v = rng.wald(s / p.a, s * s, size=count)
    np.sqrt(v, out=v)
    v *= rng.standard_normal(count)
    return v
