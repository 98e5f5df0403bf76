"""Command-line front end: simulation, single fits, and replication experiments.

Three subcommands share one JSON config document with sections
``simulation``, ``em`` and ``experiment``:

    switchem simulate   --config cfg.json --out outdir
    switchem fit        --config cfg.json --data path.csv --out outdir
    switchem experiment --config cfg.json --out outdir --jobs 4

File schemas (all CSV floats printed with 9 significant digits):

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
``NaN``, ``Infinity`` and ``-Infinity`` are not JSON numbers.
Seeds (``simulation.seed``, ``em.init_seed``, ``SWITCHEM_SEED``) are
non-negative integers, and ``em.init_lambda_range`` and
``em.init_delta_range`` have lows >= 0.  ``null`` means the key is absent;
a value of another kind, or a number too large for a float (a literal such
as ``1e400``, or an integer of over 308 digits) where a number is expected,
exits 2, naming the key.

Exit codes: 0 success, 2 configuration or input-schema error, 3 numerical
failure (for experiments: more than half of the replications failed; each
failed replication prints its reason to stderr).

The environment variable ``SWITCHEM_SEED`` overrides the configured seed
base.  Replication r runs with seed ``seed_base + r``, so one replication
can be re-run alone as replication 1 of seed base ``seed_base + r - 1``;
no output file is written until every replication has ended.  The EM
starting point is ``em.theta0`` when given.  Otherwise ``fit`` draws it from
``em.init_seed`` if set, else from the stream ``[seed, 1]``; replication
r of ``experiment`` draws it from ``[seed_base + r, 1]``, as
``em.init_seed`` applies to ``fit`` only.  ``--jobs`` (0 = all cores) is
capped at the replication count.  ``--stable-output`` zeroes the
elapsed-time fields, making outputs bit-identical across runs and across
``--jobs`` values.
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
from concurrent.futures import ProcessPoolExecutor
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
from .likelihood import ObservationSeries, Theta
from .sde import GRID_TOL, SimulationConfig, simulate_path
from .smoother import smooth_regimes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
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
    return cfg


_REQUIRED = object()


def _is_number(v) -> bool:
    """An int, or a finite float: ``json`` loads a literal such as 1e400 as
    inf.  ``type(v)`` rather than ``isinstance`` keeps bools out."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


# kind: (what a value must be, its test on a json-loaded value, its conversion)
_KINDS = {
    "number": ("a finite number", _is_number, float),
    "int": ("an integer", lambda v: type(v) is int, int),
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
    get = functools.partial(_get, sim, "simulation")
    b, lam, delta = get("b", "numbers"), get("lambda", "number"), get("delta", "number")
    try:
        return Theta(b, lam, delta)
    except ValueError as exc:
        raise ConfigError(f"bad true theta in simulation section: {exc}") from exc


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


def _csv_text(header: list[str], columns) -> str:
    """CSV text with one row per entry of the equal-length ``columns``;
    integer columns print as integers, all others with 9 significant digits."""
    cols = [np.asarray(c) for c in columns]
    fmt = ",".join("{:d}" if c.dtype.kind in "iu" else "{:.9g}" for c in cols)
    rows = map(fmt.format, *(c.tolist() for c in cols))
    return "\n".join([",".join(header), *rows]) + "\n"


def _coords(n_states: int) -> list[str]:
    """Names of the theta coordinates: b1..bN, lambda, delta."""
    return [f"b{i + 1}" for i in range(n_states)] + ["lambda", "delta"]


def _trace_csv_text(result: EmResult, stable: bool) -> str:
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
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"t", "x"} <= set(reader.fieldnames):
                raise ConfigError(
                    f"{path}: header must contain columns t and x, "
                    f"got {reader.fieldnames}"
                )
            t_vals, x_vals = [], []
            for ln, row in enumerate(reader, start=2):
                try:
                    t_vals.append(float(row["t"]))
                    x_vals.append(float(row["x"]))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}:{ln}: bad numeric value: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if len(x_vals) < 2:
        raise ConfigError(f"{path}: need at least two rows")
    t = np.asarray(t_vals)
    dt = np.diff(t)
    h = float(dt[0])
    if not (h > 0.0 and np.all(np.abs(dt - h) <= GRID_TOL * max(1.0, abs(h)))):
        raise ConfigError(f"{path}: time column is not an equally spaced grid")
    try:
        return ObservationSeries(np.asarray(x_vals), h, t0=float(t[0]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sc, sim = _parse_simulation(cfg)
    emit_chain_fine = _get(sim, "simulation", "emit_chain_fine", "bool", False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    _write_atomic(out / "result.json", json.dumps(payload, indent=2) + "\n")
    _write_atomic(out / "trace.csv", _trace_csv_text(result, args.stable_output))
    if emit_probs:
        _, smoothed, _ = smooth_regimes(
            result.theta, result.generator, obs, em_cfg.initial_filter_probs
        )
        t = obs.t0 + np.arange(smoothed.shape[0]) * obs.h
        header = ["t"] + [f"p{i + 1}" for i in range(smoothed.shape[1])]
        _write_atomic(out / "probs.csv", _csv_text(header, [t, *smoothed.T]))
    print(f"fit status={result.status} iterations={result.iterations}")
    return EXIT_NUMERICAL if result.status == "numerical_failure" else EXIT_OK


def _run_replication(packed) -> dict:
    """Worker entry point: simulate one path with its derived seed and fit it."""
    base, em_cfg, rep, seed, stable = packed
    sc = dataclasses.replace(base, seed=seed)
    obs, _, _ = simulate_path(sc)
    row = {"rep": rep, "seed": seed, "estimate": None, "qe": None, "iters": 0,
           "status": "numerical_failure", "trace": ""}
    try:
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
    return row


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a fork pool starts all its workers at once, so never more than reps
    jobs = min(args.jobs or os.cpu_count() or 1, reps)
    tasks = [
        (sc, em_cfg, r, sc.seed + r, args.stable_output) for r in range(1, reps + 1)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_replication, tasks))
    else:
        rows = [_run_replication(t) for t in tasks]

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
    _write_atomic(out / "summary.csv", "\n".join(lines) + "\n")
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
    exp.add_argument("--jobs", type=int, default=0, help="worker count (0 = all cores)")
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
