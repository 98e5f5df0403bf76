"""The benchmark workloads: their inputs, CLI calls and output checks.

Each workload turns ``--seed`` into a fixed list of CLI calls (one cycle).
A run repeats whole cycles, so the inputs a run measures depend on the seed
alone.  Inputs are written by the CLI itself during set-up (``switchem
simulate`` for the fit paths), so that work never enters a timed call.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# README bench configuration: two regimes, T=1000, h=0.1 (n=10^4).
BENCH_SIM = {
    "b": [6.0, 3.0],
    "lambda": 2.0,
    "delta": 1.0,
    "a": 0.3,
    "q": [[-0.009, 0.009], [0.005, -0.005]],
    "horizon_t": 1000.0,
    "obs_step_h": 0.1,
}

# Three regimes, T=100 (n=10^3).
SHORT_SIM = {
    "b": [6.0, 3.0, 0.0],
    "lambda": 2.0,
    "delta": 1.0,
    "a": 0.3,
    "q": [[-0.02, 0.01, 0.01], [0.01, -0.02, 0.01], [0.01, 0.01, -0.02]],
    "horizon_t": 100.0,
    "obs_step_h": 0.1,
}

OK_STATUSES = ("converged", "max_iters_reached")


@dataclass
class Call:
    """One CLI invocation and where its outputs land."""

    argv: list[str]
    out: Path
    config: Path
    inputs: list[Path] = field(default_factory=list)


@dataclass
class Outcome:
    """What the checks learned from one call's outputs."""

    problems: list[str]
    units: float = 0.0  # work completed, in the workload's unit
    qe: list[float] = field(default_factory=list)  # summed quadratic errors


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


class Workload:
    name = ""
    why = ""
    subcommand = ""
    unit = ""  # what work_per_s counts
    jobs = 1
    stable_outputs: tuple[str, ...] = ()

    def prepare(self, work: Path, seed: int, cli_main) -> list[Call]:
        raise NotImplementedError

    def check(self, call: Call, rc) -> Outcome:
        raise NotImplementedError


class FitLong(Workload):
    """``switchem fit`` on T=1000 paths simulated during set-up.

    Paths are seeded like acceptance criterion 4 (seed ``1000*s + r``, so
    ``--seed 4`` fits criterion 4's first paths).  Every fit starts from the
    same fixed point: from the random starts of criterion 4 the iteration
    count ranges from 5 to 136, which would make fit_s a property of the
    seed rather than of the code.
    """

    name = "fit-long"
    why = "north-star EM fit at n=10^4; the smoother is ~99% of it"
    subcommand = "fit"
    unit = "EM iterations"
    paths_per_cycle = 8
    em = {
        "epsilon": 0.05,
        "rho": 1e-4,
        "m_step": "first_order",
        "theta0": [5.0, 2.0, 1.0, 0.5],
    }
    stable_outputs = ("result.json", "trace.csv")

    def prepare(self, work, seed, cli_main):
        calls = []
        for r in range(1, self.paths_per_cycle + 1):
            d = work / f"path{r}"
            cfg = _write_json(
                d / "config.json",
                {"simulation": {**BENCH_SIM, "seed": 1000 * seed + r}, "em": self.em},
            )
            if cli_main(["simulate", "--config", str(cfg), "--out", str(d)]) != 0:
                raise RuntimeError(f"set-up simulate failed for {cfg}")
            data = d / "path.csv"
            out = d / "fit"
            argv = ["fit", "--config", str(cfg), "--data", str(data),
                    "--out", str(out), "--stable-output"]
            calls.append(Call(argv, out, cfg, [data]))
        return calls

    def check(self, call, rc):
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        try:
            res = json.loads((call.out / "result.json").read_text())
            est = res["estimate"]
            values = list(est["b"]) + [est["lambda"], est["delta"]]
            status = res["status"]
            qe = res.get("quadratic_error")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome([f"unreadable result.json: {exc!r}"])
        problems = []
        if status not in OK_STATUSES:
            problems.append(f"status {status}")
        if not _finite(values):
            problems.append(f"non-finite estimate {values}")
        if not qe or not _finite(qe.values()):
            problems.append(f"quadratic_error missing or non-finite: {qe}")
        qe_sum = [float(sum(qe.values()))] if qe and not problems else []
        return Outcome(problems, float(res.get("iterations", 0)), qe_sum)


class ExperimentShort(Workload):
    """``switchem experiment --jobs 2``: 20 replications at N=3, T=100.

    Newton M-step with generator updates.  Call i of a cycle uses seed base
    ``1000*s + 20*i``.  Every replication starts from the same fixed point:
    from the CLI's default random starts about one replication in 400 drives
    a generator row to q_ii = -1/h, and the ValueError that follows aborts
    the whole experiment call (see perfbench/README.md, "Known defects").
    """

    name = "experiment-short"
    why = "Newton EM with update_q at n=10^3, N=3, plus the --jobs 2 process pool"
    subcommand = "experiment"
    unit = "replications"
    jobs = 2
    calls_per_cycle = 8
    replications = 20
    em = {
        "epsilon": 0.05,
        "rho": 1e-4,
        "m_step": "newton",
        "update_q": True,
        "theta0": [5.0, 2.5, 0.5, 1.0, 0.5],
    }
    stable_outputs = ("summary.csv", "rep_*_trace.csv")

    def prepare(self, work, seed, cli_main):
        calls = []
        for i in range(self.calls_per_cycle):
            d = work / f"exp{i}"
            cfg = _write_json(
                d / "config.json",
                {
                    "simulation": {**SHORT_SIM, "seed": 1000 * seed + 20 * i},
                    "em": self.em,
                    "experiment": {
                        "replications": self.replications,
                        "emit_trace": True,
                    },
                },
            )
            out = d / "out"
            argv = ["experiment", "--config", str(cfg), "--out", str(out),
                    "--jobs", str(self.jobs), "--stable-output"]
            calls.append(Call(argv, out, cfg))
        return calls

    def check(self, call, rc):
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        try:
            with open(call.out / "summary.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return Outcome([f"unreadable summary.csv: {exc!r}"])
        reps = [r for r in rows if r.get("rep") != "aggregate"]
        problems = []
        if len(reps) != self.replications or len(rows) != self.replications + 1:
            problems.append(
                f"summary.csv has {len(reps)} replication rows and "
                f"{len(rows) - len(reps)} aggregate rows"
            )
        if rows and rows[-1].get("rep") != "aggregate":
            problems.append("last summary.csv row is not the aggregate row")
        failed = [r["rep"] for r in reps if r.get("status") not in OK_STATUSES]
        if failed:
            problems.append(f"replications {failed} did not succeed")
        qe = []
        for r in reps:
            vals = [v for k, v in r.items() if k.startswith("qe_")]
            try:
                qe.append(sum(float(v) for v in vals))
            except ValueError:
                problems.append(f"replication {r['rep']} has no quadratic error")
        traces = list(call.out.glob("rep_*_trace.csv"))
        if len(traces) != self.replications:
            problems.append(f"{len(traces)} trace files, expected {self.replications}")
        return Outcome(problems, float(len(reps) - len(failed)), qe)


class SimulateLong(Workload):
    """``switchem simulate`` at T=10^4, h=0.1 (n=10^5), fine_factor 10.

    10^6 Euler steps per call; path.csv is about 2 MB.  Call i of a cycle
    uses seed ``1000*s + i``.
    """

    name = "simulate-long"
    why = "10^6-step Euler path, NIG sampling, chain simulation and CSV output; no EM"
    subcommand = "simulate"
    unit = "observations"
    calls_per_cycle = 8
    sim = {**BENCH_SIM, "horizon_t": 10000.0, "fine_factor": 10}
    stable_outputs = ("path.csv",)

    @property
    def n_obs(self) -> int:
        return round(self.sim["horizon_t"] / self.sim["obs_step_h"])

    def prepare(self, work, seed, cli_main):
        calls = []
        for i in range(self.calls_per_cycle):
            d = work / f"sim{i}"
            cfg = _write_json(
                d / "config.json",
                {"simulation": {**self.sim, "seed": 1000 * seed + i}},
            )
            out = d / "out"
            calls.append(Call(["simulate", "--config", str(cfg), "--out", str(out)],
                              out, cfg))
        return calls

    def check(self, call, rc):
        if rc != 0:
            return Outcome([f"exit code {rc}"])
        path = call.out / "path.csv"
        try:
            with open(path) as fh:
                header = fh.readline().strip()
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            return Outcome([f"unreadable path.csv: {exc!r}"])
        problems = []
        if header != "t,x,alpha_true":
            problems.append(f"path.csv header {header!r}")
        n = self.n_obs
        if data.shape != (n + 1, 3):
            problems.append(f"path.csv has shape {data.shape}, expected {(n + 1, 3)}")
        else:
            if not np.all(np.isfinite(data[:, 1])):
                problems.append("path.csv has non-finite x")
            alpha = data[:, 2]
            n_states = len(self.sim["b"])
            if not np.all((alpha == np.round(alpha)) & (alpha >= 1) & (alpha <= n_states)):
                problems.append(f"path.csv regimes outside 1..{n_states}")
        return Outcome(problems, float(n) if not problems else 0.0)


WORKLOADS = {w.name: w for w in (FitLong(), ExperimentShort(), SimulateLong())}
