"""Command-line front end: simulation, single fits, and replication experiments.

Three subcommands share one JSON config document with sections
``simulation``, ``em`` and ``experiment``:

    switchem simulate   --config cfg.json --out outdir
    switchem fit        --config cfg.json --data path.csv --out outdir
    switchem experiment --config cfg.json --out outdir --jobs 4

File schemas (each CSV float field is exactly ``format(v, ".9g")`` and each
integer field ``str(v)``):

    path.csv            t,x,alpha_true (fit reads t and x only)
    chain_fine.csv      t,alpha on the Euler grid (simulation.emit_chain_fine)
    trace.csv           iter,b1..bN,lambda,delta,H,stat,elapsed_ms
    probs.csv           t,p1..pN smoothed probabilities at the estimate, filtered
                        from em.initial_filter_probs (fit, experiment.emit_probs)
    rep_NNNN_trace.csv  trace.csv of replication NNNN (experiment.emit_trace)
    summary.csv         rep,seed,b1..bN,lambda,delta,qe_b1..qe_delta,iters,status
    result.json         estimate, quadratic_error, status, iterations,
                        elapsed_ms, config, seed

Each config key has one JSON type: a number, an integer, a boolean, a
string, a list of numbers, or (``simulation.q``) a list of such lists;
``NaN``, ``Infinity`` and ``-Infinity`` are not JSON numbers.  A key that
no subcommand reads, at the root or in a section, exits 2, naming it.
Seeds (``simulation.seed``, ``em.init_seed``, ``SWITCHEM_SEED``) are
non-negative integers, and ``em.init_lambda_range`` and
``em.init_delta_range`` have lows >= 0.  ``null`` means the key is absent;
a value of another kind, or a number too large for a float (a literal such
as ``1e400``, or an integer of over 308 digits) where a number or an
integer other than a seed is expected, exits 2, naming the key.  So does a
``simulation.lambda`` with ``lambda * obs_step_h / fine_factor >= 2``, for
which the Euler recursion diverges, and a fine grid of over
``sde.MAX_FINE_STEPS`` (10^8) steps ``horizon_t / obs_step_h * fine_factor``.

Exit codes: 0 success, 2 configuration or input-schema error or an
``--out`` directory that cannot be created, 3 numerical failure (for
experiments: more than half of the replications failed; each failed
replication prints its reason to stderr).

The environment variable ``SWITCHEM_SEED`` overrides the configured seed
base.  Replication r runs with seed ``seed_base + r``, so one replication
can be re-run alone as replication 1 of seed base ``seed_base + r - 1``;
no output file is written until every replication has ended.  The EM
starting point is ``em.theta0`` when given.  Otherwise ``fit`` draws it from
``em.init_seed`` if set, else from the stream ``[seed, 1]``; replication
r of ``experiment`` draws it from ``[seed_base + r, 1]``, as
``em.init_seed`` applies to ``fit`` only.

An experiment fits its replications on ``--jobs`` workers (0 = every
core in the process's CPU affinity set, or on the host where there is no
such set), capped at the replication count.  The workers are forked; each
claims the next replication from a shared counter, so a slow fit holds
back no other, and returns its rows when the counter runs out.  A worker
that dies aborts the experiment, and nothing is written, not even the
``--out`` directory.  Without ``os.fork`` the replications run
in-process.  Results do not depend on the worker, so ``--stable-output``,
which zeroes the elapsed-time fields, makes outputs bit-identical across
runs and ``--jobs`` values.  A trace's ``elapsed_ms`` is the iteration's
own wall time, E-step and M-step.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .ctmc import GeneratorMatrix, validate_generator
from .em import (
    EmConfig,
    EmResult,
    em_fit,
    quadratic_error,
    sort_regimes,
)
from .errors import ConfigError, EvaluationError, NumericalFailure
from .likelihood import CauchyTerms, ObservationSeries, Theta
from .sde import SimulationConfig, simulate_path
from .smoother import backward_smooth, forward_filter

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_no_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, NaN/Infinity, or over 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for name, section in cfg.items():
        if name not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {name}")
        if isinstance(section, dict):  # _section rejects any other value
            for key in section:
                if key not in _CONFIG_KEYS[name]:
                    raise ConfigError(f"unknown config key {name}.{key}")
    return cfg


_REQUIRED = object()


def _is_number(v) -> bool:
    """An int, or a finite float: ``json`` loads a literal such as 1e400 as
    inf.  ``type(v)`` rather than ``isinstance`` keeps bools out."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _float_sized(v: int) -> int:
    """``v``, or OverflowError past the float range: integers such as
    ``fine_factor`` meet float arithmetic."""
    float(v)
    return v


# kind: (what a value must be, its test on a json-loaded value, its conversion)
_KINDS = {
    "number": ("a finite number", _is_number, float),
    "int": ("an integer", lambda v: type(v) is int, _float_sized),
    "seed": ("a non-negative integer", lambda v: type(v) is int and v >= 0, int),
    "bool": ("true or false", lambda v: type(v) is bool, bool),
    "str": ("a string", lambda v: type(v) is str, str),
    "numbers": (
        "a list of finite numbers",
        lambda v: type(v) is list and all(map(_is_number, v)),
        lambda v: tuple(map(float, v)),
    ),
    "matrix": (
        "a list of lists of finite numbers",
        lambda v: type(v) is list and all(_KINDS["numbers"][1](row) for row in v),
        lambda v: [list(map(float, row)) for row in v],
    ),
}

_EM_KINDS = {
    "epsilon": "number",
    "rho": "number",
    "max_iters": "int",
    "termination": "str",
    "m_step": "str",
    "update_q": "bool",
    "init_seed": "seed",
    **dict.fromkeys(
        ("b_box", "lambda_box", "delta_box", "init_b_range", "init_lambda_range",
         "init_delta_range", "theta0", "initial_filter_probs"),
        "numbers",
    ),
}

# the keys some subcommand reads, per section; any other key exits 2
_CONFIG_KEYS = {
    "simulation": {"b", "lambda", "delta", "q", "seed", "a", "horizon_t", "obs_step_h",
                   "x0", "fine_factor", "alpha0", "emit_chain_fine"},
    "em": _EM_KINDS.keys(),
    "experiment": {"replications", "emit_trace", "emit_probs"},
}


def _get(section: dict, where: str, key: str, kind: str, default=_REQUIRED):
    """``section[key]`` checked against ``kind`` and converted; a missing or
    null key gives ``default``, and is an error when there is none."""
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    noun, test, convert = _KINDS[kind]
    if not test(value):
        raise ConfigError(f"{where}.{key} must be {noun}, got {value!r}")
    try:
        return convert(value)
    except OverflowError:
        raise ConfigError(f"{where}.{key} must be {noun}, got an integer too large "
                          "for a float") from None


def _section(cfg: dict, name: str, required: bool = False) -> dict:
    section = cfg.get(name)
    if section is None and not required:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' section must be a JSON object")
    return section


def _seed_base(sim: dict) -> int | None:
    env = os.environ.get("SWITCHEM_SEED")
    if env is None:
        return _get(sim, "simulation", "seed", "seed", None)
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"SWITCHEM_SEED={env!r} is not an integer") from exc
    if seed < 0:
        raise ConfigError(f"SWITCHEM_SEED={env!r} must be >= 0")
    return seed


def _parse_truth(sim: dict) -> Theta:
    """The true theta; coinciding levels b(i) == b(j) are legal but leave
    the model unidentified, so they are flagged."""
    get = functools.partial(_get, sim, "simulation")
    b, lam, delta = get("b", "numbers"), get("lambda", "number"), get("delta", "number")
    try:
        theta = Theta(b, lam, delta)
    except ValueError as exc:
        raise ConfigError(f"bad true theta in simulation section: {exc}") from exc
    if len(set(b)) < len(b):
        warnings.warn("theta has coinciding regime levels b(i) == b(j)", RuntimeWarning)
    return theta


def _parse_simulation(cfg: dict) -> tuple[SimulationConfig, dict]:
    sim = _section(cfg, "simulation", required=True)
    theta = _parse_truth(sim)
    get = functools.partial(_get, sim, "simulation")
    q = get("q", "matrix")
    fields = dict(
        a_nuisance=get("a", "number"),
        horizon_t=get("horizon_t", "number"),
        obs_step_h=get("obs_step_h", "number"),
        fine_factor=get("fine_factor", "int", 10),
        x0=get("x0", "number", 0.0),
        alpha0=get("alpha0", "int", None),
        seed=_seed_base(sim),
    )
    try:
        g = validate_generator(q)
        sc = SimulationConfig(theta_true=theta, generator=g, **fields)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad simulation section: {exc}") from exc
    return sc, sim


def _parse_em(cfg: dict, n_states: int) -> EmConfig:
    em = _section(cfg, "em")
    em_cfg = EmConfig(**{
        key: _get(em, "em", key, kind)
        for key, kind in _EM_KINDS.items()
        if em.get(key) is not None
    })
    em_cfg.check_sizes(n_states)
    return em_cfg


# CSV cells are formatted in blocks of rows, all cells of a block at once.
# A cell |v| = D * 10**(e - 8), D its 9 significant digits, fills a slot of
# four little-endian uint64 words: byte 0 the separator before it, 1 '-',
# 2-6 '0.000', 7 + 2i digit i of D (i = 0..8), 8 + 2i a '.' after digit i
# (i = 0..7), 24-27 'e', the exponent's sign and two digits.  A byte mask,
# row ((e - _E_LO) * 9 + nz - 1) * 2 + sign of a table, with nz the digits
# left after dropping trailing zeros, zeroes what format(v, ".9g") leaves
# out; deleting the zero bytes then leaves the text.
_CSV_BLOCK = 4096  # rows
_E_LO, _E_HI = -14, 30  # decimal exponents whose scale 10**(8 - e) is exact
_E_ALL = np.arange(_E_LO, _E_HI + 2)  # rounding up to 1e9 carries into _E_HI + 1


@functools.cache
def _csv_tables():
    """The masks (all four words, and the first three), the 4-digit groups
    and their trailing zeros, the first words, the exponent words, and the
    scales of _csv_cells, built on first use: at import they cost about 1 ms."""
    pos = np.arange(32)
    e = _E_ALL[:, None, None, None]
    nz = np.arange(1, 10)[:, None, None]
    neg = np.arange(2)[:, None]
    digit, i = (pos >= 7) & (pos <= 23) & (pos % 2 == 1), (pos - 7) // 2
    dot = (pos >= 8) & (pos <= 22) & (pos % 2 == 0)
    fixed = (e >= -4) & (e <= 8)
    point = np.where(fixed, e, 0)  # the digit the '.' follows, unless 0 < |v| < 1
    keep = (pos == 0) | (pos == 1) & (neg == 1)
    keep = keep | digit & (i < np.where(fixed & (e >= 0), np.maximum(nz, e + 1), nz))
    keep |= dot & (i == point) & (nz > point + 1) & ~(fixed & (e < 0))
    keep |= fixed & (e < 0) & (pos >= 2) & (pos < 3 - e)  # '0.' and -e - 1 zeros
    keep |= ~fixed & (pos >= 24) & (pos < 28)
    masks = (keep * np.uint8(255)).view("<u8").reshape(-1, 4)
    # the 10**4 groups of 4 digits as '.', digit, '.', ..., digit, and
    # their trailing zeros; the axes of the (10, 10, 10, 10) grids are
    # the digits from the first to the last
    digits = [np.arange(10).reshape((10,) + (1,) * k) for k in range(3, -1, -1)]
    quad = np.full((10,) * 4 + (8,), ord("."), np.uint8)
    tz = 0
    for k, d in enumerate(digits):
        quad[..., 2 * k + 1] = d + ord("0")
        tz = (d == 0) * (1 + tz)
    lead = [int.from_bytes(b",-0.000" + str(d).encode(), "little") for d in range(10)]
    exp = [int.from_bytes(f"e{x:+03d}".encode(), "little") for x in _E_ALL]
    return (masks, masks[:, :3].copy(), quad.view("<u8").reshape(-1), tz.reshape(-1),
            np.array(lead, np.uint64), np.array(exp, np.uint64),
            10.0 ** np.maximum(8 - _E_ALL, 0), 10.0 ** np.maximum(_E_ALL - 8, 0))


def _csv_cells(v: np.ndarray, limit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots (rows, columns, words) of the cells of the float block ``v``,
    and which of them are exact.  The others are to be formatted one by
    one: non-finite values, |v| outside [1e-14, 1e31) or not below the
    column's ``limit``, and values whose rounding is within 1e-6 of a half."""
    masks, masks_fixed, quad, quad_tz, lead, exp, scale, unscale = _csv_tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= _E_LO) & (e <= _E_HI) & (a < limit)
    ei = np.where(ok, e - _E_LO, -_E_LO).astype(np.intp)  # zero, and each fallback, at e = 0
    with np.errstate(over="ignore", invalid="ignore"):
        m = a * scale[ei] / unscale[ei]  # one rounding: |m - exact| <= 6e-8
        d = np.rint(m)
        # m leaves [1e8, 1e9] only if log10 misjudges e next to a power of ten
        ok &= (m >= 1e8) & (m <= 1e9) & (np.abs(m - d) <= 0.5 - 1e-6)
    ok |= a == 0.0
    d = np.where(ok, d, 0.0).astype(np.intp)
    up = d == 10**9
    d[up], ei[up] = 10**8, ei[up] + 1
    d0, hi = d // 10**8, d // 10**4
    q1, q2 = hi - d0 * 10**4, d - hi * 10**4
    tz = quad_tz[q2] + (q2 == 0) * quad_tz[q1]
    key = ei * 18 + 16 - 2 * tz + np.signbit(v)
    sci = (ei < -4 - _E_LO) | (ei > 8 - _E_LO)
    # without an exponent in the block, the last word is zero and left out
    out = np.take(masks if sci.any() else masks_fixed, key, axis=0)
    out[..., 0] &= lead[d0]
    out[..., 1] &= quad[q1]
    out[..., 2] &= quad[q2]
    if out.shape[-1] == 4:
        out[..., 3] &= exp[ei]
    out[:, 0, 0] ^= np.uint64(ord(",") ^ ord("\n"))  # a row starts a line
    return out, ok


def _csv_text(header: list[str], columns) -> bytes:
    """CSV text, as bytes, with one row per entry of the equal-length ``columns``;
    integer columns print as ``str(v)``, all others as ``format(v, ".9g")``."""
    cols = [np.asarray(c) for c in columns]
    is_int = [c.dtype.kind in "iu" for c in cols]
    limit = np.where(is_int, 1e9, np.inf)  # integers of 10 digits or more go one by one
    v = np.empty((len(cols[0]), len(cols)))
    for j, c in enumerate(cols):
        v[:, j] = c
    parts = [",".join(header).encode()]
    for start in range(0, len(v), _CSV_BLOCK):
        out, ok = _csv_cells(v[start:start + _CSV_BLOCK], limit)
        slots = out.reshape(-1, out.shape[-1]).view(np.uint8)
        for cell in np.flatnonzero(~ok):
            r, j = divmod(int(cell), len(cols))
            x = cols[j][start + r]
            text = str(int(x)) if is_int[j] else _fmt(x)
            slots[cell, 1:] = 0  # a text of at most 20 bytes after the separator
            slots[cell, 1:1 + len(text)] = np.frombuffer(text.encode(), np.uint8)
        parts.append(out.tobytes().translate(None, b"\0"))
    parts.append(b"\n")
    return b"".join(parts)


def _coords(n_states: int) -> list[str]:
    """Names of the theta coordinates: b1..bN, lambda, delta."""
    return [f"b{i + 1}" for i in range(n_states)] + ["lambda", "delta"]


def _trace_csv_text(result: EmResult, stable: bool) -> bytes:
    recs, n_states = result.trace, result.theta.n_states
    theta = np.reshape([rec.theta for rec in recs], (len(recs), n_states + 2))
    header = ["iter", *_coords(n_states), "H", "stat", "elapsed_ms"]
    return _csv_text(header, [
        [rec.iteration for rec in recs],
        *theta.T,
        [rec.h_before for rec in recs],
        [rec.stat for rec in recs],
        [0.0 if stable else rec.elapsed_ms for rec in recs],
    ])


def _read_path_csv(path: str) -> ObservationSeries:
    """Parse the t and x columns of a path file; any regime column is ignored."""
    try:
        with open(path) as fh:
            header = next(csv.reader(fh), None)
            if header is None or not {"t", "x"} <= set(header):
                raise ConfigError(f"{path}: header must contain columns t and x, got {header}")
            cols = (header.index("t"), header.index("x"))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # header only: no rows
                    data = np.loadtxt(fh, delimiter=",", usecols=cols, comments=None, ndmin=2)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad numeric value: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    t, x = data.T
    if x.size < 2:
        raise ConfigError(f"{path}: need at least two rows")
    # t is written to 9 significant digits, so h comes from the whole span
    # and each spacing may be off by about 1e-9 max|t|
    h = float(t[-1] - t[0]) / (t.size - 1)
    if not (h > 0.0 and np.all(np.abs(np.diff(t) - h) <= 1e-8 * np.max(np.abs(t)))):
        raise ConfigError(f"{path}: time column is not an equally spaced grid")
    try:
        return ObservationSeries(np.ascontiguousarray(x), h, t0=float(t[0]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _out_dir(path: str) -> Path:
    """The output directory ``path``, created with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sc, sim = _parse_simulation(cfg)
    emit_chain_fine = _get(sim, "simulation", "emit_chain_fine", "bool", False)
    out = _out_dir(args.out)
    obs, chain_obs, chain_fine = simulate_path(sc)
    t = obs.t0 + obs.h * np.arange(obs.x.size)
    path_text = _csv_text(["t", "x", "alpha_true"], [t, obs.x, chain_obs.states])
    _write_atomic(out / "path.csv", path_text)
    if emit_chain_fine:
        t_fine = np.arange(chain_fine.states.size) * chain_fine.step
        fine_text = _csv_text(["t", "alpha"], [t_fine, chain_fine.states])
        _write_atomic(out / "chain_fine.csv", fine_text)
    print(
        f"simulated n={sc.n_obs} observations over T={_fmt(sc.horizon_t)} "
        f"at h={_fmt(sc.obs_step_h)} -> {out / 'path.csv'}"
    )
    return EXIT_OK


def _parse_fit_inputs(cfg: dict) -> tuple[GeneratorMatrix, Theta | None, int | None]:
    """Fitting needs only the generator; the true theta is optional and,
    when present, enables quadratic-error reporting."""
    sim = _section(cfg, "simulation", required=True)
    q = _get(sim, "simulation", "q", "matrix")
    try:
        g = validate_generator(q)
    except ValueError as exc:
        raise ConfigError(f"bad simulation.q: {exc}") from exc
    truth = None
    if all(sim.get(k) is not None for k in ("b", "lambda", "delta")):
        truth = _parse_truth(sim)
        if truth.n_states != g.n_states:
            raise ConfigError(
                f"simulation.b has {truth.n_states} levels but q has "
                f"{g.n_states} states"
            )
    return g, truth, _seed_base(sim)


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    g, truth, seed = _parse_fit_inputs(cfg)
    em_cfg = _parse_em(cfg, g.n_states)
    emit_probs = _get(_section(cfg, "experiment"), "experiment", "emit_probs", "bool", False)
    if em_cfg.theta0 is None and em_cfg.init_seed is None:
        if seed is None:
            raise ConfigError(
                "fit needs em.theta0, em.init_seed, or simulation.seed "
                "to choose a reproducible starting point"
            )
        # the second seed word decouples the start from the path simulation
        em_cfg = dataclasses.replace(em_cfg, init_seed=(seed, 1))
    obs = _read_path_csv(args.data)
    out = _out_dir(args.out)
    t_start = time.perf_counter()
    result = em_fit(obs, g, em_cfg)
    elapsed_ms = 0.0 if args.stable_output else (time.perf_counter() - t_start) * 1e3
    est = sort_regimes(result.theta)
    payload = {
        "estimate": {
            "b": [float(v) for v in est.b],
            "lambda": float(est.lam),
            "delta": float(est.delta),
        },
        "status": result.status,
        "iterations": result.iterations,
        "elapsed_ms": elapsed_ms,
    }
    if truth is not None:
        qe = quadratic_error(est, sort_regimes(truth))
        payload["quadratic_error"] = dict(zip(_coords(g.n_states), map(float, qe)))
    payload["config"] = cfg
    payload["seed"] = seed
    _write_atomic(out / "result.json", (json.dumps(payload, indent=2) + "\n").encode())
    _write_atomic(out / "trace.csv", _trace_csv_text(result, args.stable_output))
    if emit_probs:
        fs = forward_filter(
            CauchyTerms(result.theta, obs), result.generator, em_cfg.initial_filter_probs
        )
        smoothed = backward_smooth(fs).smoothed
        t = obs.t0 + np.arange(smoothed.shape[1]) * obs.h
        header = ["t"] + [f"p{i + 1}" for i in range(len(smoothed))]
        _write_atomic(out / "probs.csv", _csv_text(header, [t, *smoothed]))
    print(f"fit status={result.status} iterations={result.iterations}")
    return EXIT_NUMERICAL if result.status == "numerical_failure" else EXIT_OK


def _replication(base, em_cfg, rep, stable) -> dict:
    """Simulate one replication's path with its derived seed, fit it, and
    return its summary row."""
    seed = base.seed + rep
    sc = dataclasses.replace(base, seed=seed)
    row = {"rep": rep, "seed": seed, "estimate": None, "qe": None, "iters": 0,
           "status": "numerical_failure", "trace": b""}
    try:
        obs, _, _ = simulate_path(sc)
        # independent starting point per replication; em.init_seed is ignored
        result = em_fit(obs, sc.generator, dataclasses.replace(em_cfg, init_seed=(seed, 1)))
        if result.status == "numerical_failure":
            raise NumericalFailure(result.message)
        est = sort_regimes(result.theta)
        row.update(
            estimate=est.to_vector().tolist(),
            qe=quadratic_error(est, sort_regimes(sc.theta_true)).tolist(),
            iters=result.iterations,
            status=result.status,
            trace=_trace_csv_text(result, stable),
        )
    except (NumericalFailure, EvaluationError) as exc:
        row["message"] = str(exc)
    except Exception as exc:  # one broken replication must not abort the rest
        row["message"] = f"{type(exc).__name__}: {exc}"
    return row


def _fit_replications(fit, reps: int, jobs: int) -> list[dict]:
    """``fit(rep)`` for rep = 1..reps.  With ``jobs`` > 1, forked workers
    claim replications from a shared counter, so a slow fit holds back no
    other, and pickle their rows into their own pipes when it runs out.
    The parent fits nothing; a worker that dies raises RuntimeError, and
    no worker outlives the call."""
    if jobs <= 1:
        return list(map(fit, range(1, reps + 1)))
    # imported here: simulate and fit never fork.  numpy loads numpy.random
    # on first use; loading it before the fork lets the workers inherit it
    import multiprocessing
    import pickle
    import signal

    import numpy.random

    counter = multiprocessing.get_context("fork").Value("l", 0)
    pids, pipes = [], []
    try:
        for _ in range(jobs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker; os._exit keeps it out of the caller's frames
                try:
                    os.close(r)
                    for fh in pipes:  # held open, they could block a writer
                        fh.close()
                    rows = []
                    while True:
                        with counter.get_lock():
                            counter.value += 1
                            rep = counter.value
                        if rep > reps:
                            break
                        rows.append(fit(rep))
                    with open(w, "wb") as fh:
                        pickle.dump(rows, fh)
                    os._exit(0)
                finally:  # on any exception
                    os._exit(1)
            os.close(w)
            pids.append(pid)
            pipes.append(open(r, "rb"))
        sent = [fh.read() for fh in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fh in pipes:
            fh.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status in zip(pids, statuses):
        if status:
            raise RuntimeError(f"experiment worker {pid} ended without its rows "
                               f"(wait status {status})")
    return sorted((row for data in sent for row in pickle.loads(data)),
                  key=lambda row: row["rep"])


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    sc, _ = _parse_simulation(cfg)
    em_cfg = _parse_em(cfg, sc.generator.n_states)
    exp = _section(cfg, "experiment")
    reps = _get(exp, "experiment", "replications", "int", 1)
    if reps < 1:
        raise ConfigError(f"experiment.replications must be >= 1, got {reps}")
    emit_trace = _get(exp, "experiment", "emit_trace", "bool", False)
    if sc.seed is None:
        raise ConfigError("experiments need simulation.seed (or SWITCHEM_SEED)")
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be >= 0, got {args.jobs}")
    # every worker is forked at once, so never more workers than
    # replications; without os.fork the replications run in-process
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(args.jobs or cores or 1, reps) if hasattr(os, "fork") else 1
    fit = functools.partial(_replication, sc, em_cfg, stable=args.stable_output)
    rows = _fit_replications(fit, reps, jobs)
    out = _out_dir(args.out)

    n = sc.theta_true.n_states
    header = [
        "rep", "seed", *_coords(n), *[f"qe_{c}" for c in _coords(n)], "iters", "status"
    ]
    lines = [",".join(header)]
    ok_rows = []
    for row in rows:
        fields = [""] * (2 * (n + 2))
        if row["estimate"] is not None:
            ok_rows.append(row)
            fields = [_fmt(v) for v in row["estimate"] + row["qe"]]
        else:
            print(f"replication {row['rep']} (seed {row['seed']}) failed: "
                  f"{row['message']}", file=sys.stderr)
        vals = [str(row["rep"]), str(row["seed"]), *fields, str(row["iters"]), row["status"]]
        lines.append(",".join(vals))
        if emit_trace and row["trace"]:
            _write_atomic(out / f"rep_{row['rep']:04d}_trace.csv", row["trace"])
    # aggregate row: medians of the estimates, interquartile ranges in the
    # quadratic-error columns
    if ok_rows:
        est = np.asarray([r["estimate"] for r in ok_rows])
        med = np.median(est, axis=0)
        iqr = np.percentile(est, 75, axis=0) - np.percentile(est, 25, axis=0)
        vals = (
            ["aggregate", ""]
            + [_fmt(v) for v in med]
            + [_fmt(v) for v in iqr]
            + ["", f"median_iqr_over_{len(ok_rows)}"]
        )
        lines.append(",".join(vals))
    _write_atomic(out / "summary.csv", ("\n".join(lines) + "\n").encode())
    n_ok = len(ok_rows)
    print(f"experiment: {n_ok}/{reps} replications succeeded -> {out / 'summary.csv'}")
    return EXIT_OK if n_ok * 2 >= reps else EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="switchem",
        description="Simulation and EM estimation for regime-switching "
        "mean-reverting SDEs with NIG noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one observed path")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit theta to an observed path")
    fit.add_argument("--config", required=True)
    fit.add_argument("--data", required=True)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=cmd_fit)

    exp = sub.add_parser("experiment", help="seeded replication study")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--jobs", type=int, default=0, help="worker count (0 = all usable cores)")
    exp.set_defaults(func=cmd_experiment)
    for parser in (fit, exp):
        parser.add_argument(
            "--stable-output",
            action="store_true",
            help="zero elapsed-time fields for bit-reproducible outputs",
        )
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
