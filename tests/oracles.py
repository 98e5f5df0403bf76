"""Independent reference implementations used to validate the package.

Everything here is deliberately slow and direct: quadrature instead of
special-function identities, exhaustive enumeration instead of recursions,
finite differences instead of analytic derivatives.  The exceptions are
the two closed-form densities.  :func:`nig_density`, which the package
never evaluates, uses scipy's scaled K1 and is itself checked against the
quadrature form :func:`nig_density_direct`; :func:`cauchy_density` is the
formula the package computes only inside ``CauchyTerms``.  Nothing in this
module imports the package internals beyond plain data containers.
"""

import itertools
import math

import numpy as np
from scipy import integrate, special


def k1_quadrature(x: float) -> float:
    """K1 via its integral representation K1(x) = int_0^inf e^{-x cosh t} cosh t dt."""
    val, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t), 0.0, 30.0, limit=200
    )
    return val


def nig_density_direct(z: float, a: float, s: float) -> float:
    """NIG(a, 0, s, 0) density from the definition, using the quadrature K1."""
    root = math.sqrt(s * s + z * z)
    return (a * s / math.pi) * math.exp(a * s) * k1_quadrature(a * root) / root


def nig_density(z, a: float, s: float):
    """NIG(a, 0, s, 0) density at a float or array ``z``.

    Uses the exponentially scaled K1 so the a*s prefactor never overflows:
    with u = a*sqrt(s^2 + z^2) >= a*s the exponent a*s - u is <= 0.
    """
    root = np.sqrt(s * s + np.square(z))
    u = a * root
    return (a * s / np.pi) * np.exp(a * s - u) * special.k1e(u) / root


def nig_cdf_grid(a: float, s: float, z_max: float = 150.0):
    """Tabulated CDF of NIG(a, 0, s, 0) by cumulative trapezoidal quadrature.

    Returns (grid, cdf) suitable for np.interp.  The grid is dense near the
    mode (where the density is sharply peaked for small s) and coarser in
    the exponential tails; the left-tail mass below -z_max is obtained by
    scipy quadrature of the density.
    """
    inner = max(10.0 * s, 2.0)
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(-z_max, -inner, 40_001),
                np.linspace(-inner, inner, 400_001),
                np.linspace(inner, z_max, 40_001),
            ]
        )
    )
    pdf = nig_density(grid, a, s)
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
    left_tail, _ = integrate.quad(nig_density, -np.inf, -z_max, args=(a, s), limit=200)
    cdf = cdf + left_tail
    return grid, cdf


def nig_second_moment(a: float, s: float) -> float:
    """E[Z^2] of NIG(a, 0, s, 0) by direct quadrature of z^2 f(z)."""
    val, _ = integrate.quad(lambda z: z * z * nig_density(z, a, s), 0.0, np.inf, limit=400)
    return 2.0 * val


def cauchy_density(z, scale: float = 1.0):
    """Centered Cauchy density scale / (pi (scale^2 + z^2)) at a float or array ``z``."""
    return scale / (np.pi * (scale * scale + z * z))


def cauchy_transition_density(x_next, x_prev, b_i, lam, delta, h):
    """The Euler transition density of regime i: Cauchy at the residual, scale delta*h."""
    return cauchy_density(x_next - x_prev - lam * (b_i - x_prev) * h, delta * h)


def enumerate_filter_smoother(x, h, b, lam, delta, a_kernel, p0):
    """Exact filtered / smoothed regime distributions by brute-force enumeration.

    Sums the joint density over all (N)^(n+1) regime sequences.  Returns
    (filtered, smoothed_pair, smoothed_marginal) in the package's layout,
    observation axis last: filtered and marginals have shape (N, n+1); the
    pair array has shape (N, N, n), slice [:, :, j-1] covering (t_{j-1}, t_j).
    """
    x = np.asarray(x, dtype=float)
    n = x.size - 1
    m = len(p0)
    states = range(m)

    def seq_weight(seq, upto):
        w = p0[seq[0]]
        for j in range(1, upto + 1):
            w *= a_kernel[seq[j - 1], seq[j]]
            w *= cauchy_transition_density(x[j], x[j - 1], b[seq[j - 1]], lam, delta, h)
        return w

    filtered = np.zeros((m, n + 1))
    for j in range(n + 1):
        tot = np.zeros(m)
        for seq in itertools.product(states, repeat=j + 1):
            tot[seq[j]] += seq_weight(seq, j)
        filtered[:, j] = tot / tot.sum()

    pair = np.zeros((m, m, n))
    marg = np.zeros((m, n + 1))
    for seq in itertools.product(states, repeat=n + 1):
        w = seq_weight(seq, n)
        for j in range(1, n + 1):
            pair[seq[j - 1], seq[j], j - 1] += w
        for j in range(n + 1):
            marg[seq[j], j] += w
    pair /= pair.sum(axis=(0, 1))
    marg /= marg.sum(axis=0)
    return filtered, pair, marg


def loop_filter_smoother(a_kernel, dens, p0, kim=False):
    """Forward filter and backward pass as one Python loop over observations.

    The step-by-step form of ``forward_filter``/``backward_smooth``: ``dens``
    is the (N, n) emission matrix (column j-1 for observation j), ``a_kernel``
    the one-step kernel and ``p0`` the initial filter distribution.  A step
    whose emission mass underflows is retried with the densities scaled by
    their maximum.  The backward pass is exact: P(a_{j-1} = i | a_j = k,
    X_{0..n}) is proportional to filtered[i, j-1] * dens[i, j-1] * A[i, k]
    (the densities scaled by their maximum, which cancels).  With
    ``kim=True`` it is Kim's (1994) approximation instead, which drops
    dens[:, j-1].  Returns (filtered, w) in the package's layout, (N, n+1)
    and (N, N, n); a breakdown
    raises ``ArithmeticError(message, j)`` at the first failing forward step
    or the highest failing backward step.
    """
    a_kernel = np.asarray(a_kernel, dtype=float)
    m, n = dens.shape
    filtered = np.zeros((m, n + 1))
    filtered[:, 0] = p0
    for j in range(1, n + 1):
        pj = a_kernel * filtered[:, j - 1][:, None]
        dj = dens[:, j - 1]
        col = (dj[:, None] * pj).sum(axis=0)
        z = col.sum()
        if not np.isfinite(z) or z <= 0.0:
            dm = dj.max()
            if dm > 0.0 and np.isfinite(dm):
                col = ((dj / dm)[:, None] * pj).sum(axis=0)
                z = col.sum()
            if not np.isfinite(z) or z <= 0.0:
                raise ArithmeticError(f"forward normalizer {z!r} at observation {j}", j)
        filtered[:, j] = col / z

    smoothed = np.zeros((m, n + 1))
    w = np.zeros((m, m, n))
    smoothed[:, n] = filtered[:, n]
    for j in range(n, 0, -1):
        pj = a_kernel * filtered[:, j - 1][:, None]
        if not kim:
            dj = dens[:, j - 1]
            dm = dj.max()
            pj = (dj / dm if dm > 0.0 and np.isfinite(dm) else dj)[:, None] * pj
        pm = pj.sum(axis=0)
        ratio = np.where(pm > 0.0, smoothed[:, j] / np.where(pm > 0.0, pm, 1.0), 0.0)
        wj = pj * ratio[None, :]
        z = wj.sum()
        if not np.isfinite(z) or z <= 0.0:
            raise ArithmeticError(f"backward slice sum {z!r} at observation {j}", j)
        w[:, :, j - 1] = wj / z
        smoothed[:, j - 1] = w[:, :, j - 1].sum(axis=1)
    return filtered, w


def pair_stats(w):
    """The smoothed distributions (N, n+1) and pair totals (N, N) of pair
    weights ``w`` (N, N, n): column j-1 of the first is slice j-1's
    marginal over the earlier state, column n the last slice's marginal
    over the later one, each column divided by its sum, as the smoother
    divides, so that no entry rounds past one."""
    sm = np.hstack([w.sum(axis=1), w[:, :, -1].sum(axis=0)[:, None]])
    return sm / sm.sum(axis=0), w.sum(axis=2)


def rebuilt_pairs(fs, smoothed):
    """Pair weights (N, N, n) rebuilt from a filter state and the smoothed
    distributions by the smoother's identity w[:, :, j-1] = B_j * s_j[None, :],
    each slice renormalized to sum to one: B_j is the pair
    density[i, j-1] * kernel[i, k] * filtered[i, j-1] over its column sums,
    0 in a column without mass."""
    pair = fs.density[:, None, :] * fs.kernel[:, :, None] * fs.filtered[:, None, :-1]
    pm = pair.sum(axis=0)
    w = np.where(pm > 0.0, pair / np.where(pm > 0.0, pm, 1.0), 0.0) * smoothed[:, 1:]
    return w / w.sum(axis=(0, 1))


def loop_update_rates(q, w, h):
    """Generator M-step as a loop over rows: each row with positive total
    pair weight becomes its row-normalized pair totals divided by ``h``,
    with the diagonal set to minus the off-diagonal sum; rows without
    weight keep their rates.  ``w`` is the (N, N, n) weight array."""
    tot = w.sum(axis=2)
    q = np.array(q, dtype=float)
    for l in range(q.shape[0]):
        row_tot = tot[l].sum()
        if row_tot <= 0.0:
            continue
        q[l] = tot[l] / row_tot / h
        q[l, l] = -(q[l].sum() - q[l, l])
    return q


def fold_across(ufunc, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``ufunc.reduce(x, axis)`` as a left fold, one slice of ``axis`` at a
    time: x[0], then ufunc(., x[1]), ...  The order in which the smoother's
    regime-axis sums and maxima must combine for bitwise-stable output."""
    lead = (slice(None),) * (axis % x.ndim)
    out = x[lead + (0,)]
    for i in range(1, x.shape[axis]):
        out = ufunc(out, x[lead + (i,)])
    return out


def euler_loop(x0, theta, states, increments, step):
    """Euler recursion X_{k+1} = X_k + lam*(b(alpha_k) - X_k)*step + dZ_k,
    one Python step per grid point (the reference for ``sde.euler_path``)."""
    n = increments.shape[0]
    lam = theta.lam
    b_of = theta.b[np.asarray(states[:-1], dtype=np.int64) - 1]
    x = np.empty(n + 1)
    x[0] = x0
    xk = float(x0)
    for k in range(n):
        xk = xk + lam * (b_of[k] - xk) * step + increments[k]
        x[k + 1] = xk
    return x


def h_bruteforce(x, h, b, lam, delta, a_kernel, w):
    """Direct triple-loop evaluation of the weighted quasi-log-likelihood
    under (N, N, n) weights."""
    n = len(x) - 1
    m = len(b)
    total = 0.0
    for j in range(1, n + 1):
        for i in range(m):
            for k in range(m):
                wk = w[i, k, j - 1]
                if wk == 0.0:
                    continue
                f = cauchy_transition_density(x[j], x[j - 1], b[i], lam, delta, h)
                total += wk * math.log(f * a_kernel[i, k])
    return total


def central_diff(fun, v, eps_scale=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    for k in range(v.size):
        eps = eps_scale * max(1.0, abs(v[k]))
        vp, vm = v.copy(), v.copy()
        vp[k] += eps
        vm[k] -= eps
        out[k] = (fun(vp) - fun(vm)) / (2.0 * eps)
    return out


def central_diff_jacobian(fun, v, eps_scale=1e-6):
    """Central finite-difference Jacobian of a vector function of a vector."""
    v = np.asarray(v, dtype=float)
    cols = []
    for k in range(v.size):
        eps = eps_scale * max(1.0, abs(v[k]))
        vp, vm = v.copy(), v.copy()
        vp[k] += eps
        vm[k] -= eps
        cols.append((np.asarray(fun(vp)) - np.asarray(fun(vm))) / (2.0 * eps))
    return np.stack(cols, axis=1)
