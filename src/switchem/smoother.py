"""Forward filtering and backward smoothing of the hidden regime, as scans.

Forward pass.  With d_j[i] the Cauchy emission density of X_j given
X_{j-1} in regime i and A the one-step chain kernel, f_j = filtered[:, j] is

    f_j[k] = sum_i f_{j-1}[i] * d_j[i] * A[i, k] / normalizer,

i.e. f_j is proportional to f_0 M_1 ... M_j with M_j = diag(d_j) A.
The emission density attaches to the *earlier* state i (the regime in
force over (t_{j-1}, t_j)), so it scales rows of A rather than the
predicted marginal.

Backward pass (exact).  The pair (X, a) is jointly Markov, so
P(a_{j-1} | a_j, X_{0..n}) = P(a_{j-1} | a_j, X_{0..j}): the earlier
regime depends on later data only through a_j.  With the pair
P_j[i, k] = f_{j-1}[i] * M_j[i, k], proportional to
P(a_{j-1} = i, a_j = k | X_{0..j}), and its marginal
m_j[k] = sum_i P_j[i, k], let B_j[i, k] = P_j[i, k] / m_j[k]
(0 where m_j[k] = 0), the backward Markov kernel of the posterior chain:
each of its columns sums to one, or to zero where m_j[k] = 0.  The
smoothed distributions satisfy s_{j-1} = B_j s_j from s_n = f_n; the scan
gives v_{j-1} = B_j ... B_n f_n, of sum z_j, and s_{j-1} = v_{j-1} / z_j.
The pair weights w[:, :, j-1] = B_j * v_j[None, :] / z_j are never
stored: the M-step reads only their marginals over the later state,
s_{j-1}, and their totals, one einsum over the B_j and the v_j / z_j.
(Kim's 1994 pass builds the pair from A alone, dropping the emission d_j,
and is exact only when emissions depend on the later state.)

Both products are computed by blocked scans (Blelloch 1990) of one
layout.  The stack is cut into blocks of about cbrt(n) steps whose prefix
products advance together in one buffer, each step written over its block
entries.  The ends of all blocks but the last are then chained by doubling
(Hillis & Steele 1986): at strides 1, 2, 4, ... every end is combined with
the one a stride before it, all in one vectorized product, until each holds
the product of the ends up to it.  Each row then follows from its block's
start.  At n = 10^4 that is 22 in-block steps, 9 doubling rounds over 454
ends and 2 broadcasts, against 2 sqrt(n) = 200 steps for a two-level scan.
The doubling runs over the block ends only: a doubling scan over all n
observations needs log2(n) rounds of n-wide products and loses to the
blocks.

The filter's steps lose mass, so its scan (:func:`_scan`) renormalizes
each row to sum to one after every step (a row without mass stays exactly
zero) and keeps the step's row totals, whose logs, summed along the block
after the loop, give each row's log mass.  The doubling rounds combine
ends with :func:`_mix`, which carries the rows' scales in logs and shifts
each row's log weights by their own maximum; this keeps a row that is
improbable within a block (absorbing states, one-hot starts; thousands of
nats below the others at the block ends) from underflowing while the
filter may still need it.  The backward stack, the transposed B_j, has
rows that each sum to one or to zero, so the rows of its products stay
distributions, less the mass that lands on a zero row, and no scale can
underflow: :func:`_kernel_scan` takes plain products and carries no log
masses.

Layout.  Every per-observation array is regime-first, with the
observation axis last and contiguous: densities (N, n); the forward steps
and backward kernels (N, N, n), which live only inside their pass;
filtered and smoothed distributions (N, n+1); the scans' blocks (block
length, N, N, blocks).  Each numpy call then runs one long loop along the
observations or blocks rather than n loops of length N.  Every matrix
product of the scans (in-block steps, doubling rounds, block starts and
final rows) is one ``np.einsum`` contraction over N.  It adds each
entry's N products in regime order, as a broadcast product summed over N
does, so the two agree to the bit, but it builds no (N, N, N, blocks)
product first.  A sum or maximum over a regime axis is
numpy's own reduction: on these arrays the regime axes are outer, so
numpy combines whole slices, each one pass along the observations or
blocks.  On (455, 2, 2) top-level blocks at n = 10^4 an in-block step
takes about 40% as long as a batched ``@`` and 80% as long as the
broadcast sum; at N = 3, n = 10^3 it takes about as long as a ``@``.

Each observation's densities d_j are scaled by their maximum before the
forward scan, so observations whose densities underflow jointly still
filter; the scale cancels in B_j.  Failure is located after the scan by
one vectorized check of each step's mass under the previous distribution:
the forward pass reports the first step whose emission mass under f_{j-1}
is non-positive or non-finite, the backward pass the highest j whose sum
z_j is; observations before (forward) or after (backward) that step
do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, transition_matrix_approx
from .errors import ConfigError, NumericalFailure
from .likelihood import CauchyTerms, SmoothedPairProbs

_FLOOR = -np.finfo(float).max  # finite stand-in for the row maximum of a massless row
# every positive total is at least _TINY, so dividing by max(total, _TINY)
# normalizes a row with mass exactly and leaves a row without mass zero
_TINY = np.finfo(float).smallest_subnormal


@dataclass(frozen=True)
class FilterState:
    """Forward-pass output, observation axis last (see the module docstring).

    filtered[k, j]  = P(a_{t_j} = k | X_{0..j}), shape (N, n+1);
    kernel[i, k]    = A[i, k], the one-step chain kernel the pass ran under;
    density[i, j-1] = d_j[i], the emission densities of observation j
    scaled by their maximum, shape (N, n), so that
    ``density[i, j-1] * kernel[i, k] * filtered[i, j-1]`` is proportional
    to P(a_{t_{j-1}} = i, a_{t_j} = k | X_{0..j}).  The M-step evaluates H
    under the same kernel.
    """

    filtered: np.ndarray
    kernel: np.ndarray
    density: np.ndarray

    @property
    def n(self) -> int:
        return self.filtered.shape[1] - 1


def _initial_probs(n_states: int, initial) -> np.ndarray:
    if initial is None:
        return np.full(n_states, 1.0 / n_states)
    p = np.asarray(initial, dtype=float)
    if p.shape != (n_states,) or not np.all(p >= 0.0) or not abs(p.sum() - 1.0) <= 1e-9:
        raise ConfigError(f"initial filter probabilities invalid: {p!r}")
    return p / p.sum()


def _mix(v: np.ndarray, s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of v diag(exp(r)) s, each normalized to sum to one, and their log
    masses: v holds rows (..., N, B), s matrices (..., N, N, B) and r the log
    masses (..., N, B) of the rows of s, with B a batch of items.  Log
    weights are shifted by their row maximum so no weight underflows on
    its own; a row without mass stays zero, with log mass -inf."""
    lw = np.log(v) + r
    mx = lw.max(axis=-2)
    lw -= np.maximum(mx, _FLOOR)[..., None, :]
    u = np.einsum("...jb,...jkb->...kb", np.exp(lw, out=lw), s)
    tot = u.sum(axis=-2)
    u /= np.maximum(tot, _TINY)[..., None, :]
    return u, mx + np.log(tot)


def _blocks(x: np.ndarray) -> np.ndarray:
    """A copy of the stack x of c elements along its last axis, cut into
    blocks of about cbrt(c) and laid out as (block length, ..., blocks).
    The last block is padded with zeros, which reach no returned row: only
    prefixes end in them, and the last block's end is never chained on."""
    c = x.shape[-1]
    bl = max(1, round(c ** (1 / 3)))
    full = c // bl
    out = np.empty((bl,) + x.shape[:-1] + (-(-c // bl),))
    np.moveaxis(out[..., :full], 0, -1)[...] = x[..., :full * bl].reshape(*x.shape[:-1], full, bl)
    if full < out.shape[-1]:
        out[:c - full * bl, ..., full] = np.moveaxis(x[..., full * bl:], -1, 0)
        out[c - full * bl:, ..., full] = 0.0
    return out


def _unblock(rows: np.ndarray, v0: np.ndarray, n: int) -> np.ndarray:
    """``v0`` and the first n of the (block length, N, blocks) rows of a
    blocked scan, in order, as the columns of an (N, n+1) array."""
    return np.hstack((v0[:, None], rows.transpose(1, 2, 0).reshape(len(v0), -1)[:, :n]))


def _scan(mats: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Rows v_j = v_0 M_0 ... M_{j-1}, M_j = mats[:, :, j], of an (N, N, n)
    nonnegative stack, each normalized to sum to one, as the columns of an
    (N, n+1) array; column 0 is ``v0``.

    The prefix products inside every block advance together in place, each
    step one einsum contraction over N; the logs of the row totals,
    summed along the block after the loop, are the rows' log masses.  The
    block ends are chained by doubling with :func:`_mix`: after stride d,
    end b holds the product of ends max(0, b - 2d + 1) .. b.
    """
    n = mats.shape[-1]
    prod = _blocks(mats)
    logm = np.empty_like(prod[:, 0])
    for t in range(len(prod)):
        if t:
            np.einsum("ijb,jkb->ikb", prod[t - 1], prod[t], out=prod[t])
        tot = prod[t].sum(axis=1, out=logm[t])
        prod[t] /= np.maximum(tot, _TINY)[:, None]
    np.cumsum(np.log(logm, out=logm), axis=0, out=logm)
    s, r = prod[-1, ..., :-1].copy(), logm[-1, :, :-1].copy()
    d = 1
    while d < s.shape[-1]:
        s[..., d:], inc = _mix(s[..., :-d], s[..., d:], r[:, d:])
        r[:, d:] = r[:, :-d] + inc
        d *= 2
    starts = np.hstack((v0[:, None], _mix(v0[:, None], s, r)[0]))
    return _unblock(_mix(starts, prod, logm)[0], v0, n)


def _kernel_scan(mats: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Rows v_j = v_0 P_0 ... P_{j-1}, P_j = mats[:, :, j], of an (N, N, n)
    stack whose rows each sum to one or to zero, as the columns of an
    (N, n+1) array; column 0 is ``v0``.  Blocked and doubled like
    :func:`_scan`, with plain products: a product of such matrices keeps
    each row's mass, less what lands on a zero row, so no row is rescaled.
    """
    n = mats.shape[-1]
    prod = _blocks(mats)
    for t in range(1, len(prod)):
        np.einsum("ijb,jkb->ikb", prod[t - 1], prod[t], out=prod[t])
    s = prod[-1, ..., :-1].copy()
    d = 1
    while d < s.shape[-1]:
        s[..., d:] = np.einsum("ijb,jkb->ikb", s[..., :-d], s[..., d:])
        d *= 2
    starts = np.hstack((v0[:, None], np.einsum("j,jkb->kb", v0, s)))
    return _unblock(np.einsum("jb,tjkb->tkb", starts, prod), v0, n)


def forward_filter(terms: CauchyTerms, g: GeneratorMatrix, initial_probs=None) -> FilterState:
    """Run the forward recursion at ``terms.theta``; raises
    :class:`NumericalFailure` with the failing observation index if a
    normalizer is non-positive or non-finite.
    """
    if terms.theta.n_states != g.n_states:
        raise ConfigError(
            f"theta has {terms.theta.n_states} regimes, generator {g.n_states} states"
        )
    a = transition_matrix_approx(g, terms.obs.h)
    d = terms.density
    with np.errstate(divide="ignore", invalid="ignore"):
        dm = d.max(axis=0)
        d = d / np.where((dm > 0.0) & np.isfinite(dm), dm, 1.0)
        filtered = _scan(d[:, None, :] * a[:, :, None], _initial_probs(g.n_states, initial_probs))
        # the mass sum_{i,k} filtered[i, j-1] * d_j[i] * A[i, k] of each step
        mass = (filtered[:, :-1] * d * a.sum(axis=1)[:, None]).sum(axis=0)
    bad = ~(np.isfinite(mass) & (mass > 0.0))
    if bad.any():
        j = int(np.argmax(bad)) + 1
        raise NumericalFailure(
            f"forward filter normalizer {mass[j - 1]!r} at observation {j}", index=j
        )
    return FilterState(filtered, a, d)


def backward_smooth(fs: FilterState) -> SmoothedPairProbs:
    """Backward pass producing the smoothed distributions, shape (N, n+1),
    and the pair totals, shape (N, N).

    The pass needs only the filter state: each pair is rebuilt from the
    scaled densities, the kernel and the filtered distribution as the
    forward pass built its step.
    """
    pair = fs.density[:, None, :] * fs.kernel[:, :, None] * fs.filtered[:, None, :-1]
    back = np.divide(pair, np.maximum(pair.sum(axis=0), _TINY), out=pair)
    v = _kernel_scan(back[:, :, ::-1].swapaxes(0, 1), fs.filtered[:, -1])[:, ::-1]
    z = v[:, :-1].sum(axis=0)
    bad = ~(np.isfinite(z) & (z > 0.0))
    if bad.any():
        j = fs.n - int(np.argmax(bad[::-1]))
        raise NumericalFailure(
            f"backward smoother slice sum {z[j - 1]!r} at observation {j}", index=j
        )
    totals = np.einsum("ikj,kj->ik", back, v[:, 1:] / z)
    return SmoothedPairProbs(v / np.append(z, 1.0), totals)
