"""switchem benchmark: drives ``switchem.cli.main`` in-process on one workload.

    python3 perfbench/run.py --workload fit-long --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics, from spans recorded around the public
functions of each switchem module.  Informational lines (machine record,
raw timings, the metrics under the names the workload docs use, sha256 of
the stable outputs) come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run is
written under ``.bench_work/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

# End-to-end metrics: name -> unit.  Bounds live in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Host speed swings by up to +-30% over seconds to minutes on shared
# machines, for every CPU-bound loop alike, and run medians of raw wall time
# then spread by 25-35% across seeds.  A fixed loop of small-array numpy and
# interpreter work, which runs no switchem code, is timed before and after
# every measured call.  Timings are reported in reference seconds: the
# measured seconds times REF_NOMINAL_S over the mean of the two loop times.
# REF_NOMINAL_S is the loop's time on a quiet core of the baseline machine,
# so reference seconds read as that machine's seconds when it is quiet.
REF_ITERATIONS = 20000
REF_NOMINAL_S = 0.075

# A fresh process imports the CLI and loads the workload's config and inputs.
SETUP_SNIPPET = """
import csv, json, sys
import switchem.cli
with open(sys.argv[1]) as fh:
    json.load(fh)
for p in sys.argv[2:]:
    with open(p, newline="") as fh:
        sum(1 for _ in csv.reader(fh))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_s() -> float:
    """Wall time of the fixed calibration loop."""
    a = np.full((2, 2), 0.5)
    f = np.array([0.5, 0.5])
    x = 0.0
    t0 = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        p = a * f[:, None]
        f = p.sum(axis=0)
        f /= f.sum()
        x = x + 0.1 * (1.0 - x) * 0.01
    return time.perf_counter() - t0


class RefClock:
    """Times callables in raw and in reference seconds."""

    def __init__(self):
        self._last_ref = reference_s()
        self.raw: list[float] = []
        self.refs: list[float] = []

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        ref_after = reference_s()
        ref = 0.5 * (self._last_ref + ref_after)
        self._last_ref = ref_after
        self.raw.append(raw)
        self.refs.append(ref)
        return raw * REF_NOMINAL_S / ref, result


def machine_record(nproc: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "switchem").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _pin_to_one_core() -> None:
    """Keep this process, its children and the calibration loop on one core:
    the speeds of the two cores of a shared VM swing independently."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(call) -> tuple[float, float]:
    """Median (reference, raw) seconds of fresh processes that import the CLI
    and load the call's config and inputs."""
    _pin_to_one_core()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(call.config)]
    argv += [str(p) for p in call.inputs]
    clock = RefClock()
    scaled = [
        clock.time(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                                          timeout=120))[0]
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(scaled), statistics.median(clock.raw)


def _invoke(cli, argv):
    """Call the CLI with its stdout captured; an exception counts as a failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None


def _output_files(call, patterns):
    return sorted(
        p for p in call.out.iterdir()
        if p.is_file() and any(fnmatch.fnmatch(p.name, pat) for pat in patterns)
    )


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import switchem.cli as cli

    if workload.jobs == 1:
        _pin_to_one_core()
    calls = workload.prepare(work, seed, lambda argv: _invoke(cli, argv))
    tracer = Tracer(workload.name, work / "spans") if trace else None
    clock = RefClock()
    durations, rates, qes, problems = [], [], [], []
    attempted = failed = cycles = 0
    bytes_written = 0
    digest = hashlib.sha256()
    t_begin = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for call in calls:
            with tracer or contextlib.nullcontext():
                dt, rc = clock.time(lambda: _invoke(cli, call.argv))
            attempted += 1
            durations.append(dt)
            outcome = workload.check(call, rc)
            rates.append(outcome.units / dt)
            qes += outcome.qe
            if outcome.problems:
                failed += 1
                problems.append(f"{call.argv[0]} {call.config.parent.name}: "
                                + "; ".join(outcome.problems))
            if call.out.is_dir():
                files = list(call.out.iterdir())
                bytes_written += sum(p.stat().st_size for p in files if p.is_file())
                if cycles == 0:
                    for p in _output_files(call, workload.stable_outputs):
                        digest.update(p.name.encode() + b"\0" + p.read_bytes())
        cycles += 1
        cycle_s = time.perf_counter() - t_cycle
        if time.perf_counter() - t_begin + cycle_s > seconds:
            break
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup_s, setup_raw_s = measure_setup(calls[0])

    result = {
        "calls": attempted,
        "cycles": cycles,
        "failed": failed,
        "problems": problems,
        "durations": durations,
        "raw_durations": clock.raw,
        "ref_s": clock.refs,
        "call_s": statistics.median(durations),
        "call_raw_s": statistics.median(clock.raw),
        "work_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        # ru_maxrss is in KiB on Linux; children are the finished pool workers
        "peak_rss_mb": (usage_self + usage_kids) / 1024.0,
        "fit_qe": statistics.median(qes) if qes else None,
        "stable_sha256": digest.hexdigest(),
    }
    if tracer:
        spans = tracer.collect()
        result["spans"] = spans
        layers = layer_metrics(spans, attempted, workload.jobs, bytes_written, qes)
        scale = REF_NOMINAL_S / statistics.median(clock.refs)
        for name, (unit, _) in LAYER_METRICS.items():
            if unit in ("ms", "ns"):
                layers[name] *= scale
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "switchem" / "cli.py").is_file():
        print(f"error: no switchem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    # the program receives only the inputs made from --seed
    os.environ.pop("SWITCHEM_SEED", None)
    # before run() pins the process to one core
    nproc = len(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        res = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record(nproc)
    e2e = {k: res[k] for k in END_TO_END_UNITS}
    named = {
        "fit-long": {"fit_s": (res["call_s"], "s"), "fit_qe": (res["fit_qe"], "sq_err")},
        "experiment-short": {"experiment_reps_per_s": (res["work_per_s"], "1/s")},
        "simulate-long": {"simulate_s": (res["call_s"], "s")},
    }[workload.name]
    named["failed_frac"] = (res["failed"] / res["calls"], "ratio")
    mode = "traced" if args.trace else "untraced"
    print(f"machine {json.dumps(machine)}")
    print(f"run workload={workload.name} seed={args.seed} {mode}: {res['calls']} "
          f"{workload.subcommand} calls in {res['cycles']} cycle(s); work unit: "
          f"{workload.unit}; times in reference seconds")
    for name, value in e2e.items():
        print(f"  {name:24s} {value!r} {END_TO_END_UNITS[name]}")
    print("  as named in perfbench/README.md:")
    for name, (value, unit) in named.items():
        print(f"  {name:24s} {value!r} {unit}")
    durations = res["durations"]
    if len(durations) >= 2:
        q1, _, q3 = statistics.quantiles(durations, n=4)
        print(f"call_s over {len(durations)} calls: quartiles {q1!r} {q3!r}, "
              f"max {max(durations)!r} s")
    print(f"raw wall time: call {res['call_raw_s']!r} s, setup {res['setup_raw_s']!r} s, "
          f"reference loop {statistics.median(res['ref_s'])!r} s "
          f"(nominal {REF_NOMINAL_S} s)")
    print(f"stable_sha256 {res['stable_sha256']}")
    for p in res["problems"]:
        print(f"FAILED {p}")

    results = WORK / "results"
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]}
                   for k, v in res["layers"].items()}
        print(f"traced call_s {res['call_s']!r} s")
        untraced = results / f"{workload.name}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["call_s"]
            print(f"tracing overhead {res['call_s'] - base!r} s per call "
                  f"({(res['call_s'] - base) / base:+.1%} of the untraced call_s)")
        else:
            print("tracing overhead: run --trace 0 with this seed first")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "end_to_end": e2e,
        "named": {k: v[0] for k, v in named.items()}, "metrics": metrics,
        "stable_sha256": res["stable_sha256"], "problems": res["problems"],
        "call_s": res["durations"], "call_raw_s": res["raw_durations"],
        "reference_s": res["ref_s"], "setup_raw_s": res["setup_raw_s"],
    }
    results.mkdir(exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for s in res["spans"]:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["calls"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
