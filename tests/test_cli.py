import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from switchem import (
    CauchyTerms,
    EmConfig,
    EvaluationError,
    NumericalFailure,
    ObservationSeries,
    SimulationConfig,
    Theta,
    backward_smooth,
    em_fit,
    forward_filter,
    simulate_path,
    sort_regimes,
    validate_generator,
)
from switchem.cli import (
    _CONFIG_KEYS, _CSV_BLOCK, _EM_KINDS, _csv_cells, _csv_text, _fit_replications, main,
)


BASE_CONFIG = {
    "simulation": {
        "b": [6.0, 3.0],
        "lambda": 2.0,
        "delta": 1.0,
        "a": 0.3,
        "q": [[-0.009, 0.009], [0.005, -0.005]],
        "horizon_t": 50.0,
        "obs_step_h": 0.1,
        "seed": 42,
    },
    "em": {"epsilon": 0.05, "rho": 0.0001, "max_iters": 120},
    "experiment": {"replications": 2, "emit_trace": True},
}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def read(p):
    with open(p) as fh:
        return fh.read()


class TestSimulate:
    def test_writes_path_csv(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg_file, "--out", str(out)]) == 0
        lines = read(out / "path.csv").splitlines()
        assert lines[0] == "t,x,alpha_true"
        assert len(lines) == 502  # header + n + 1 rows

    def test_byte_identical_across_runs(self, cfg_file, tmp_path):
        main(["simulate", "--config", cfg_file, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg_file, "--out", str(tmp_path / "b")])
        assert read(tmp_path / "a/path.csv") == read(tmp_path / "b/path.csv")

    def test_malformed_generator_exits_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["q"] = [[-0.009, 0.009], [0.005, -0.004]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 2

    def test_coinciding_levels_warn(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["b"] = [3.0, 3.0]
        p = tmp_path / "same.json"
        p.write_text(json.dumps(cfg))
        with pytest.warns(RuntimeWarning, match="coinciding"):
            assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0

    def test_env_seed_override(self, cfg_file, tmp_path, monkeypatch):
        main(["simulate", "--config", cfg_file, "--out", str(tmp_path / "a")])
        monkeypatch.setenv("SWITCHEM_SEED", "43")
        main(["simulate", "--config", cfg_file, "--out", str(tmp_path / "b")])
        assert read(tmp_path / "a/path.csv") != read(tmp_path / "b/path.csv")


class TestFit:
    @pytest.fixture
    def sim_out(self, cfg_file, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg_file, "--out", str(out)])
        return out

    def test_one_regime_round_trip(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"].update(b=[4.0], q=[[0.0]])
        p = tmp_path / "one.json"
        p.write_text(json.dumps(cfg))
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert main(["simulate", "--config", str(p), "--out", str(sim)]) == 0
        assert main(["fit", "--config", str(p), "--data", str(sim / "path.csv"),
                     "--out", str(out)]) == 0
        result = json.loads(read(out / "result.json"))
        assert len(result["estimate"]["b"]) == 1
        assert read(out / "trace.csv").startswith("iter,b1,lambda,delta,")

    def test_writes_result_and_trace(self, cfg_file, tmp_path, sim_out):
        out = tmp_path / "fit"
        rc = main([
            "fit", "--config", cfg_file, "--data", str(sim_out / "path.csv"),
            "--out", str(out), "--stable-output",
        ])
        assert rc == 0
        result = json.loads(read(out / "result.json"))
        assert set(result) >= {
            "estimate", "quadratic_error", "status", "iterations",
            "elapsed_ms", "config", "seed",
        }
        assert len(result["estimate"]["b"]) == 2
        trace = read(out / "trace.csv").splitlines()
        assert trace[0] == "iter,b1,b2,lambda,delta,H,stat,elapsed_ms"
        assert len(trace) == result["iterations"] + 1

    def test_truth_omitted_drops_quadratic_error(self, tmp_path, sim_out):
        cfg = {
            "simulation": {"q": BASE_CONFIG["simulation"]["q"], "seed": 42},
            "em": BASE_CONFIG["em"],
        }
        p = tmp_path / "notruth.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "fit2"
        rc = main([
            "fit", "--config", str(p), "--data", str(sim_out / "path.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        result = json.loads(read(out / "result.json"))
        assert "quadratic_error" not in result

    def test_hidden_chain_never_read(self, cfg_file, tmp_path, sim_out):
        # corrupting the alpha column must not change the estimate
        out_a = tmp_path / "fa"
        main(["fit", "--config", cfg_file, "--data", str(sim_out / "path.csv"),
              "--out", str(out_a), "--stable-output"])
        lines = read(sim_out / "path.csv").splitlines()
        corrupted = [lines[0]] + [
            ln.rsplit(",", 1)[0] + ",9" for ln in lines[1:]
        ]
        bad = tmp_path / "corrupted.csv"
        bad.write_text("\n".join(corrupted) + "\n")
        out_b = tmp_path / "fb"
        main(["fit", "--config", cfg_file, "--data", str(bad),
              "--out", str(out_b), "--stable-output"])
        assert read(out_a / "result.json") == read(out_b / "result.json")
        assert read(out_a / "trace.csv") == read(out_b / "trace.csv")

    def test_result_json_roundtrips(self, cfg_file, tmp_path, sim_out):
        out = tmp_path / "fit3"
        main(["fit", "--config", cfg_file, "--data", str(sim_out / "path.csv"),
              "--out", str(out), "--stable-output"])
        result = json.loads(read(out / "result.json"))
        assert json.loads(json.dumps(result)) == result

    def test_schema_mismatch_exits_2(self, cfg_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0,0\n0.1,1\n")
        assert main(["fit", "--config", cfg_file, "--data", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_elapsed_ms_recorded_without_stable_output(self, cfg_file, tmp_path, sim_out):
        out = tmp_path / "fit4"
        assert main(["fit", "--config", cfg_file, "--data", str(sim_out / "path.csv"),
                     "--out", str(out)]) == 0
        rows = read(out / "trace.csv").splitlines()[1:]
        assert rows and all(float(row.split(",")[-1]) > 0.0 for row in rows)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_observation_exits_2(self, cfg_file, tmp_path, capsys, value):
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(f"t,x\n0,0\n0.1,{value}\n0.2,1\n")
        assert main(["fit", "--config", cfg_file, "--data", str(bad),
                     "--out", str(tmp_path / "fit")]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_non_finite_time_exits_2(self, cfg_file, tmp_path, capsys, row):
        times = ["0", "0.1", "0.2", "0.3"]
        times[row] = "nan"
        bad = tmp_path / "nantime.csv"
        bad.write_text("t,x\n" + "".join(f"{t},1\n" for t in times))
        assert main(["fit", "--config", cfg_file, "--data", str(bad),
                     "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: time column is not an equally spaced grid\n"
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("body", [
        "t,x\n0,1\n0.1,abc\n0.2,2\n",  # a bad number
        "t,x\n0,1\n0.1\n0.2,2\n",  # a missing field
        "t,x\n0,1\n0.1,\n0.2,2\n",  # an empty field
        "t,x\n",  # the header only
        "t,x\n0,1\n",  # one data row
    ])
    def test_malformed_path_file_exits_2(self, cfg_file, tmp_path, capsys, body):
        bad = tmp_path / "malformed.csv"
        bad.write_text(body)
        assert main(["fit", "--config", cfg_file, "--data", str(bad),
                     "--out", str(tmp_path / "fit")]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_uneven_time_grid_exits_2(self, cfg_file, tmp_path, capsys):
        bad = tmp_path / "uneven.csv"
        bad.write_text("t,x\n0,1\n0.1,2\n0.25,1\n0.3,2\n")
        assert main(["fit", "--config", cfg_file, "--data", str(bad),
                     "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: time column is not an equally spaced grid\n"

    @pytest.mark.parametrize("h", [1.0 / 3.0, 1.0 / 7.0])
    def test_fit_reads_a_path_at_a_step_printed_inexactly(self, tmp_path, h):
        # path.csv prints t to 9 significant digits, so its spacings differ
        # from h by up to about 1e-9 max|t|
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"].update(horizon_t=100.0, obs_step_h=h)
        cfg["em"]["max_iters"] = 3
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(p), "--out", str(sim)]) == 0
        assert main(["fit", "--config", str(p), "--data", str(sim / "path.csv"),
                     "--out", str(tmp_path / "fit"), "--stable-output"]) == 0


class TestExperiment:
    def test_summary_shape_and_aggregate(self, cfg_file, tmp_path):
        out = tmp_path / "exp"
        rc = main(["experiment", "--config", cfg_file, "--out", str(out),
                   "--jobs", "1", "--stable-output"])
        assert rc == 0
        lines = read(out / "summary.csv").splitlines()
        assert lines[0].startswith("rep,seed,b1,b2,lambda,delta,qe_b1")
        assert len(lines) == 4  # header + 2 replications + aggregate
        assert lines[-1].startswith("aggregate,")
        assert (out / "rep_0001_trace.csv").exists()

    def test_single_replication_two_rows(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["experiment"] = {"replications": 1}
        p = tmp_path / "one.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "exp1"
        assert main(["experiment", "--config", str(p), "--out", str(out),
                     "--jobs", "1"]) == 0
        lines = read(out / "summary.csv").splitlines()
        assert len(lines) == 3  # header, the replication, the aggregate

    def test_jobs_do_not_change_output(self, cfg_file, tmp_path):
        a, b = tmp_path / "j1", tmp_path / "j2"
        main(["experiment", "--config", cfg_file, "--out", str(a),
              "--jobs", "1", "--stable-output"])
        main(["experiment", "--config", cfg_file, "--out", str(b),
              "--jobs", "2", "--stable-output"])
        assert read(a / "summary.csv") == read(b / "summary.csv")
        assert read(a / "rep_0002_trace.csv") == read(b / "rep_0002_trace.csv")

    def test_worker_order_does_not_change_output(self, tmp_path):
        # --jobs 1 fits these 7 replications in order, --jobs 2 and 3 in
        # workers that each take the next replication whenever they are free
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["experiment"]["replications"] = 7
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        outs = [tmp_path / f"j{jobs}" for jobs in (1, 2, 3)]
        for jobs, out in enumerate(outs, 1):
            assert main(["experiment", "--config", str(p), "--out", str(out),
                         "--jobs", str(jobs), "--stable-output"]) == 0
        names = sorted(f.name for f in outs[0].iterdir())
        assert len(names) == 8  # summary.csv and 7 traces
        for out in outs[1:]:
            assert sorted(f.name for f in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    def test_all_failures_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        # starting the path at 1e200 overflows every squared residual in
        # the filter, so each replication fails numerically
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["x0"] = 1e200
        cfg["experiment"] = {"replications": 2}
        p = tmp_path / "doomed.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "exp3"
        with np.errstate(over="ignore"):
            rc = main(["experiment", "--config", str(p), "--out", str(out),
                       "--jobs", "1"])
        assert rc == 3
        lines = read(out / "summary.csv").splitlines()
        statuses = [ln.split(",")[-1] for ln in lines[1:]]
        assert statuses == ["numerical_failure", "numerical_failure"]
        # each failed replication prints its reason, in replication order
        err = capsys.readouterr().err.splitlines()
        assert [ln.split(": ", 1)[0] for ln in err] == [
            "replication 1 (seed 43) failed", "replication 2 (seed 44) failed"
        ]
        assert all("forward filter normalizer" in ln for ln in err), err

    def test_failed_simulation_keeps_the_other_rows(self, cfg_file, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        real = simulate_path

        def fail_seed_43(sc):
            if sc.seed == 43:
                raise NumericalFailure("chain kernel row does not sum to one")
            return real(sc)

        monkeypatch.setattr("switchem.cli.simulate_path", fail_seed_43)
        out = tmp_path / "exp"
        assert main(["experiment", "--config", cfg_file, "--out", str(out),
                     "--jobs", "1"]) == 0
        rows = [ln.split(",") for ln in read(out / "summary.csv").splitlines()[1:]]
        assert [r[:2] for r in rows] == [["1", "43"], ["2", "44"], ["aggregate", ""]]
        assert rows[0][-1] == "numerical_failure" and rows[0][2] == ""
        assert rows[1][-1] != "numerical_failure" and rows[1][2] != ""
        assert capsys.readouterr().err == (
            "replication 1 (seed 43) failed: chain kernel row does not sum to one\n"
        )

    @pytest.mark.parametrize("reps,rc", [(2, 0), (3, 0), (1, 3)])
    def test_unexpected_error_keeps_the_other_rows(self, tmp_path, capsys, monkeypatch,
                                                   reps, rc):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        real = em_fit

        def fail_seed_43(obs, g, cfg):
            if cfg.init_seed == (43, 1):
                raise RuntimeError("worker lost its state")
            return real(obs, g, cfg)

        monkeypatch.setattr("switchem.cli.em_fit", fail_seed_43)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["experiment"] = {"replications": reps}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(p), "--out", str(out),
                     "--jobs", "1"]) == rc
        rows = [ln.split(",") for ln in read(out / "summary.csv").splitlines()[1:]]
        assert rows[0][:3] == ["1", "43", ""] and rows[0][-1] == "numerical_failure"
        assert all(r[-1] != "numerical_failure" and r[2] != "" for r in rows[1:reps])
        aggregate = ["aggregate"] if reps > 1 else []  # over the rows that succeeded
        assert [r[0] for r in rows] == [str(i) for i in range(1, reps + 1)] + aggregate
        assert capsys.readouterr().err == (
            "replication 1 (seed 43) failed: RuntimeError: worker lost its state\n"
        )

    @staticmethod
    def run_with_recorded_workers(tmp_path, monkeypatch, jobs, reps):
        """Run an experiment with a serial stand-in for the forked workers;
        returns the worker count of each set of workers it was asked for."""
        seen = []

        def serial(fit, reps, jobs):
            if jobs > 1:
                seen.append(jobs)
            return list(map(fit, range(1, reps + 1)))

        monkeypatch.setattr("switchem.cli._fit_replications", serial)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["experiment"] = {"replications": reps}
        p = tmp_path / "workers.json"
        p.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--jobs", str(jobs)]) == 0
        return seen

    # every worker is forked at once, so never more than the replications
    @pytest.mark.parametrize("jobs,reps,workers", [(64, 2, [2]), (64, 1, []), (1, 2, [])])
    def test_workers_never_exceed_replications(self, tmp_path, monkeypatch, jobs, reps,
                                               workers):
        assert self.run_with_recorded_workers(tmp_path, monkeypatch, jobs, reps) == workers

    def test_jobs_zero_counts_the_usable_cores(self, tmp_path, monkeypatch):
        # pinned to one core of a larger host (taskset -c 0), --jobs 0 runs
        # in-process: os.cpu_count() would count every core of the host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert self.run_with_recorded_workers(tmp_path, monkeypatch, 0, 2) == []

    # the benchmark's tracer times an experiment's fits by their em_fit
    # calls, in-process and in forked workers alike
    @pytest.mark.parametrize("jobs,workers", [(1, []), (3, [3])])
    def test_each_replication_is_one_em_fit(self, tmp_path, monkeypatch, jobs, workers):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        starts = []

        def record(obs, g, cfg):
            starts.append(cfg.init_seed)
            return em_fit(obs, g, cfg)

        monkeypatch.setattr("switchem.cli.em_fit", record)
        assert self.run_with_recorded_workers(tmp_path, monkeypatch, jobs, 3) == workers
        assert sorted(starts) == [(43, 1), (44, 1), (45, 1)]

    def test_slow_replication_does_not_hold_back_the_others(self, tmp_path, monkeypatch):
        # replication 1 (seed 43) sleeps 1 s in one worker; the other
        # worker, free sooner, fits replications 2-4 in the meantime
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)

        def record_pid(obs, g, cfg):
            seed = cfg.init_seed[0]
            if seed == 43:
                time.sleep(1.0)
            (tmp_path / str(seed)).write_text(str(os.getpid()))
            return em_fit(obs, g, cfg)

        monkeypatch.setattr("switchem.cli.em_fit", record_pid)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["experiment"] = {"replications": 4}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--jobs", "2"]) == 0
        pids = {seed: (tmp_path / str(seed)).read_text() for seed in (43, 44, 45, 46)}
        assert len(set(pids.values())) == 2
        assert pids[44] == pids[45] == pids[46] != pids[43]

    def test_shared_counter_hands_out_each_replication_once(self):
        # more workers than cores, claiming cheap replications as fast as
        # they can: a lost update of the counter would fit one twice
        start = time.monotonic()
        rows = _fit_replications(lambda rep: {"rep": rep, "pid": os.getpid()}, 3000, 8)
        assert time.monotonic() - start < 60
        assert [row["rep"] for row in rows] == list(range(1, 3001))
        assert len({row["pid"] for row in rows}) > 1

    def test_killed_worker_aborts_and_is_reaped(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        victim = tmp_path / "victim"

        def kill_seed_44(obs, g, cfg):
            if cfg.init_seed == (44, 1):
                victim.write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return em_fit(obs, g, cfg)

        monkeypatch.setattr("switchem.cli.em_fit", kill_seed_44)
        out = tmp_path / "exp"
        with pytest.raises(RuntimeError, match="ended without its rows") as exc:
            main(["experiment", "--config", cfg_file, "--out", str(out), "--jobs", "2"])
        assert f"worker {victim.read_text()} " in str(exc.value)
        assert f"wait status {signal.SIGKILL.value})" in str(exc.value)
        assert not out.exists()
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_worker_never_returns_into_the_caller(self, cfg_file, tmp_path,
                                                              monkeypatch):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)

        def interrupt_seed_44(obs, g, cfg):
            if cfg.init_seed == (44, 1):
                raise KeyboardInterrupt
            return em_fit(obs, g, cfg)

        monkeypatch.setattr("switchem.cli.em_fit", interrupt_seed_44)
        out, past_main = tmp_path / "exp", tmp_path / "past_main"
        try:
            with pytest.raises(RuntimeError, match="ended without its rows"):
                main(["experiment", "--config", cfg_file, "--out", str(out),
                      "--jobs", "2"])
        finally:
            with open(past_main, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        assert past_main.read_text().splitlines() == [str(os.getpid())]
        assert not out.exists()

    def test_interrupted_parent_kills_its_workers(self, cfg_file, tmp_path, monkeypatch):
        # the workers sleep in their first fit; the parent, reading their
        # pipes, is interrupted by a timer that its forks do not inherit
        monkeypatch.setattr("switchem.cli.em_fit", lambda obs, g, cfg: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        handler = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                main(["experiment", "--config", cfg_file, "--out", str(tmp_path / "o"),
                      "--jobs", "2"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_kernel_diagonal_at_zero_does_not_abort(self, tmp_path):
        # from its random start, seed 1046 drives a generator row to
        # q_11 = -1/h; the experiment must still finish
        cfg = {
            "simulation": {
                "b": [6.0, 3.0, 0.0],
                "lambda": 2.0,
                "delta": 1.0,
                "a": 0.3,
                "q": [[-0.02, 0.01, 0.01], [0.01, -0.02, 0.01], [0.01, 0.01, -0.02]],
                "horizon_t": 100.0,
                "obs_step_h": 0.1,
                "seed": 1045,
            },
            "em": {"epsilon": 0.05, "rho": 1e-4, "m_step": "newton", "update_q": True},
            "experiment": {"replications": 1},
        }
        p = tmp_path / "n3.json"
        p.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(p), "--out", str(tmp_path / "o"),
                     "--jobs", "1", "--stable-output"]) == 0


    def test_init_seed_is_ignored(self, cfg_file, tmp_path):
        # replication r always starts from the stream [seed_base + r, 1]
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["em"]["init_seed"] = 7
        p = tmp_path / "init_seed.json"
        p.write_text(json.dumps(cfg))
        a, b = tmp_path / "without", tmp_path / "with"
        for config, out in ((cfg_file, a), (str(p), b)):
            assert main(["experiment", "--config", config, "--out", str(out),
                         "--jobs", "1", "--stable-output"]) == 0
        assert read(a / "summary.csv") == read(b / "summary.csv")

class TestBadEmSection:
    """Malformed config values exit 2 from every command that reads them."""

    @staticmethod
    def run(cfg_file, tmp_path, command, section, key, value):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        args = [command, "--config", str(p), "--out", str(tmp_path / "out")]
        if command == "fit":
            sim = tmp_path / "sim"
            assert main(["simulate", "--config", cfg_file, "--out", str(sim)]) == 0
            args += ["--data", str(sim / "path.csv")]
        elif command == "experiment":
            args += ["--jobs", "1"]
        return main(args)

    @pytest.mark.parametrize("command", ["fit", "experiment"])
    @pytest.mark.parametrize("theta0", [[6, 3, -1, 1], [6, 3, 1, 0]])
    def test_nonpositive_theta0_exits_2(self, cfg_file, tmp_path, capsys, command, theta0):
        assert self.run(cfg_file, tmp_path, command, "em", "theta0", theta0) == 2
        assert "theta0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,section,key,value",
        [
            ("fit", "em", "theta0", ["x", 3, 1, 1]),
            ("experiment", "em", "theta0", ["x", 3, 1, 1]),
            ("fit", "em", "b_box", 3),
            ("experiment", "em", "b_box", 3),
            ("fit", "em", "lambda_box", [1.0]),
            ("experiment", "em", "init_b_range", [1.0]),
            ("experiment", "experiment", "replications", "x"),
            ("fit", "em", "theta0", "6311"),
            ("experiment", "em", "b_box", "05"),
        ],
    )
    def test_malformed_value_exits_2(self, cfg_file, tmp_path, command, section, key, value):
        assert self.run(cfg_file, tmp_path, command, section, key, value) == 2

    @pytest.mark.parametrize(
        "key,value", [("replications", 2.7), ("replications", True), ("emit_trace", "false")]
    )
    def test_mistyped_experiment_value_exits_2(self, cfg_file, tmp_path, capsys, key, value):
        assert self.run(cfg_file, tmp_path, "experiment", "experiment", key, value) == 2
        assert f"experiment.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit", "experiment"])
    @pytest.mark.parametrize(
        "key,value",
        [("b", "63"), ("b", [6.0, "3"]), ("b", [6.0, True]), ("lambda", "2"), ("delta", True)],
    )
    def test_mistyped_true_theta_exits_2(self, cfg_file, tmp_path, capsys, command, key, value):
        assert self.run(cfg_file, tmp_path, command, "simulation", key, value) == 2
        assert f"simulation.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,section,key",
        [("simulate", "simulation", "emit_chain_fine"), ("fit", "experiment", "emit_probs")],
    )
    def test_mistyped_emit_flag_exits_2(self, cfg_file, tmp_path, capsys, command, section, key):
        assert self.run(cfg_file, tmp_path, command, section, key, "false") == 2
        assert f"{section}.{key} must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "experiment"])
    def test_experiment_section_not_an_object_exits_2(self, tmp_path, capsys, command):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["experiment"] = [1]
        p = tmp_path / "list.json"
        p.write_text(json.dumps(cfg))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(p), "--out", str(sim)]) == 0
        args = [command, "--config", str(p), "--out", str(tmp_path / "out")]
        args += ["--data", str(sim / "path.csv")] if command == "fit" else ["--jobs", "1"]
        assert main(args) == 2
        assert "'experiment' section must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


ALL_COMMANDS = ("simulate", "fit", "experiment")
SIMULATE_EXPERIMENT = ("simulate", "experiment")
FIT_EXPERIMENT = ("fit", "experiment")

# every config key: (the kind of JSON value it takes, the commands that read it)
CONFIG_KEYS = {
    "simulation": {
        "b": ("numbers", ALL_COMMANDS),
        "lambda": ("number", ALL_COMMANDS),
        "delta": ("number", ALL_COMMANDS),
        "q": ("matrix", ALL_COMMANDS),
        "seed": ("seed", ALL_COMMANDS),
        "a": ("number", SIMULATE_EXPERIMENT),
        "horizon_t": ("number", SIMULATE_EXPERIMENT),
        "obs_step_h": ("number", SIMULATE_EXPERIMENT),
        "x0": ("number", SIMULATE_EXPERIMENT),
        "fine_factor": ("int", SIMULATE_EXPERIMENT),
        "alpha0": ("int", SIMULATE_EXPERIMENT),
        "emit_chain_fine": ("bool", ("simulate",)),
    },
    "em": {
        "epsilon": ("number", FIT_EXPERIMENT),
        "rho": ("number", FIT_EXPERIMENT),
        "max_iters": ("int", FIT_EXPERIMENT),
        "termination": ("str", FIT_EXPERIMENT),
        "m_step": ("str", FIT_EXPERIMENT),
        "update_q": ("bool", FIT_EXPERIMENT),
        "init_seed": ("seed", FIT_EXPERIMENT),
        **{
            key: ("numbers", FIT_EXPERIMENT)
            for key in (
                "b_box", "lambda_box", "delta_box", "init_b_range", "init_lambda_range",
                "init_delta_range", "theta0", "initial_filter_probs",
            )
        },
    },
    "experiment": {
        "replications": ("int", ("experiment",)),
        "emit_trace": ("bool", ("experiment",)),
        "emit_probs": ("bool", ("fit",)),
    },
}

# one value of each JSON kind; a key's own kind is left out of its cases
WRONG_VALUES = {"string": "1", "bool": True, "float": 2.5, "list": ["x"], "object": {"x": 1}}
OWN_KIND = {"number": "float", "bool": "bool", "str": "string"}

WRONG_TYPE_CASES = [
    pytest.param(command, section, key, value, id=f"{command}-{section}.{key}-{json_kind}")
    for section, keys in CONFIG_KEYS.items()
    for key, (kind, commands) in keys.items()
    for command in commands
    for json_kind, value in WRONG_VALUES.items()
    if OWN_KIND.get(kind) != json_kind
]


@pytest.fixture(scope="module")
def path_csv(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps(BASE_CONFIG))
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return str(out / "path.csv")


class TestConfigTypes:
    """Each config key takes one JSON kind; null means absent, and any other
    value exits 2 before anything is written, with one message naming it."""

    @staticmethod
    def run(tmp_path, path_csv, command, cfg, out_name="out"):
        """Run ``command`` on ``cfg``, a dict or already serialized JSON text."""
        p = tmp_path / f"{out_name}.json"
        p.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        args = [command, "--config", str(p), "--out", str(tmp_path / out_name)]
        if command == "fit":
            args += ["--data", path_csv, "--stable-output"]
        elif command == "experiment":
            args += ["--jobs", "1", "--stable-output"]
        return main(args)

    def test_table_covers_every_em_key(self):
        assert {k: kind for k, (kind, _) in CONFIG_KEYS["em"].items()} == _EM_KINDS
        fields = {f.name for f in dataclasses.fields(EmConfig)}
        assert set(CONFIG_KEYS["em"]) == fields

    def test_table_covers_every_key(self):
        assert {s: set(keys) for s, keys in CONFIG_KEYS.items()} == {
            s: set(keys) for s, keys in _CONFIG_KEYS.items()
        }

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    @pytest.mark.parametrize(
        "section,key",
        [("em", "max_iter"), ("simulation", "fine_fatcor"), ("experiment", "replication"),
         (None, "simulations")],
    )
    def test_unknown_key_exits_2(self, tmp_path, path_csv, capsys, command, section, key):
        # a misspelt key used to be ignored, and the run went on with defaults
        cfg = json.loads(json.dumps(BASE_CONFIG))
        (cfg if section is None else cfg[section])[key] = 1
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        name = key if section is None else f"{section}.{key}"
        assert capsys.readouterr().err == f"error: unknown config key {name}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section,key,value", WRONG_TYPE_CASES)
    def test_wrong_kind_exits_2(self, tmp_path, path_csv, capsys, monkeypatch,
                                command, section, key, value):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = value
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {section}.{key} must be ")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,section,key,value",
        [
            ("simulate", "simulation", "fine_factor", 2.7),
            ("simulate", "simulation", "a", "0.3"),
            ("simulate", "simulation", "horizon_t", "30"),
            ("simulate", "simulation", "alpha0", True),
            ("fit", "simulation", "q", [[-0.009, "0.009"], [0.005, -0.005]]),
            ("fit", "em", "update_q", "false"),
            ("fit", "em", "max_iters", 2.5),
        ],
    )
    def test_coerced_value_exits_2(self, tmp_path, path_csv, capsys,
                                   command, section, key, value):
        # each of these used to be coerced (int(2.7) == 2, "false" is truthy)
        # or to fail later with a TypeError
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = value
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: {section}.{key} must be ")

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_null_means_absent(self, tmp_path, path_csv, command):
        absent = json.loads(json.dumps(BASE_CONFIG))
        absent["em"]["max_iters"] = 5
        nulls = json.loads(json.dumps(absent))
        for section, keys in CONFIG_KEYS.items():
            nulls[section].update({k: None for k in keys if k not in absent[section]})
        for name, cfg in (("absent", absent), ("nulls", nulls)):
            assert self.run(tmp_path, path_csv, command, cfg, name) == 0
        files = sorted(f.name for f in (tmp_path / "absent").iterdir())
        assert files == sorted(f.name for f in (tmp_path / "nulls").iterdir())
        for name in files:
            a, b = (read(tmp_path / d / name) for d in ("absent", "nulls"))
            if name == "result.json":  # it echoes the config, nulls included
                a, b = (json.loads(t)["estimate"] for t in (a, b))
            assert a == b

    def test_negative_jobs_exits_2(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "--config", cfg_file, "--out", str(out),
                     "--jobs", "-2"]) == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestInputRanges:
    """Values of the right JSON kind but outside their range exit 2 before
    anything is written; an evaluation error exits 3.  None prints a
    traceback."""

    run = staticmethod(TestConfigTypes.run)

    @staticmethod
    def assert_refused(captured, tmp_path, message):
        assert captured.err.startswith("error: " + message), captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_output_directory_that_cannot_be_created_exits_2(self, tmp_path, path_csv,
                                                            capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"  # under a regular file
        args = [command, "--config", str(cfg), "--out", str(out)]
        if command == "fit":
            args += ["--data", path_csv]
        elif command == "experiment":
            args += ["--jobs", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "command,section,key",
        [(c, "simulation", "seed") for c in ALL_COMMANDS]
        + [(c, "em", "init_seed") for c in FIT_EXPERIMENT],
    )
    def test_negative_seed_exits_2(self, tmp_path, path_csv, capsys, monkeypatch,
                                   command, section, key):
        monkeypatch.delenv("SWITCHEM_SEED", raising=False)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = -1
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path,
                            f"{section}.{key} must be a non-negative integer, got -1")

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_negative_env_seed_exits_2(self, tmp_path, path_csv, capsys, monkeypatch,
                                       command):
        monkeypatch.setenv("SWITCHEM_SEED", "-1")
        assert self.run(tmp_path, path_csv, command, BASE_CONFIG) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, "SWITCHEM_SEED='-1' must be >= 0")

    @pytest.mark.parametrize(
        "command,section,key,value",
        [
            pytest.param(command, section, key, value, id=f"{command}-{section}.{key}")
            for command, section, key, value in (
                ("simulate", "simulation", "lambda", 10**400),
                ("simulate", "simulation", "b", [6.0, 10**400]),
                ("fit", "simulation", "q", [[-0.009, 10**400], [0.005, -0.005]]),
                ("fit", "em", "epsilon", 10**400),
                ("experiment", "em", "theta0", [6.0, 3.0, 10**400, 1.0]),
            )
        ],
    )
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, path_csv, capsys,
                                                     command, section, key, value):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = value
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, f"{section}.{key} must be ")

    @pytest.mark.parametrize(
        "command,section,key,literal",
        [
            pytest.param(command, section, key, literal, id=f"{command}-{section}.{key}")
            for command, section, key, literal in (
                ("simulate", "simulation", "lambda", "1e400"),
                ("simulate", "simulation", "delta", "1e400"),
                ("simulate", "simulation", "a", "1e400"),
                ("simulate", "simulation", "horizon_t", "1e400"),
                ("fit", "simulation", "lambda", "1e400"),
                ("fit", "em", "rho", "1e400"),
                ("fit", "em", "epsilon", "1e400"),
                ("experiment", "em", "b_box", "[-10.0, 1e400]"),
            )
        ],
    )
    def test_number_literal_overflowing_a_float_exits_2(
        self, tmp_path, path_csv, capsys, command, section, key, literal
    ):
        # json loads the literal 1e400 as inf, which json.dumps cannot write
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = "@literal"
        text = json.dumps(cfg).replace('"@literal"', literal)
        assert self.run(tmp_path, path_csv, command, text) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, f"{section}.{key} must be ")

    def test_fine_factor_too_large_for_a_float_exits_2(self, tmp_path, path_csv, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["fine_factor"] = 10**400
        assert self.run(tmp_path, path_csv, "simulate", cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, "simulation.fine_factor must be ")

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize("lam", [1000.0, 1e300])
    def test_unstable_euler_step_exits_2(self, tmp_path, path_csv, capsys, command, lam):
        # at the fine step 0.01, lambda 1000 made the path non-finite and
        # lambda 1e300 overflowed c**bl in euler_path
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["lambda"] = lam
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path,
                            f"bad simulation section: simulation.lambda * fine step = "
                            f"{lam!r} * 0.01 must be < 2")

    def test_infinite_step_exits_2(self, tmp_path, capsys):
        # the JSON number 1e400 loads as inf; a one-state chain with q = 0
        # bounds no step, so the step itself must be finite
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"].update(b=[4.0], q=[[0.0]], horizon_t=10.0, obs_step_h=0.1)
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(cfg).replace('"obs_step_h": 0.1', '"obs_step_h": 1e400'))
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, "simulation.obs_step_h must be ")

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize(
        "grid,message",
        [
            # about 1e-10 steps passes the integer-grid check but rounds to none
            ({"horizon_t": 1e-11, "obs_step_h": 0.1},
             "horizon_t / obs_step_h = 9.999999999999999e-11 rounds to no step"),
            # the sampler's inverse Gaussian shape (delta * 1e-301)^2 underflows to 0
            ({"horizon_t": 1e-300, "obs_step_h": 1e-300},
             "NIG increment scale delta * fine step = 1e-301 underflows"),
            # 500 observations of 10^9 substeps, refused before any allocation
            ({"fine_factor": 10**9}, "the fine grid has n_obs * fine_factor = "
             "500 * 1000000000 steps, more than 100000000"),
        ],
        ids=["no-step", "underflowing-scale", "over-the-step-bound"],
    )
    def test_grid_the_sampler_cannot_draw_exits_2(self, tmp_path, path_csv, capsys,
                                                  command, grid, message):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"].update(grid)
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path,
                            f"bad simulation section: {message}")

    def test_integer_over_the_digit_limit_exits_2(self, tmp_path, path_csv, capsys):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(BASE_CONFIG).replace('"lambda": 2.0', '"lambda": 1' + "0" * 5000))
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, f"config {p} is not valid JSON")

    @pytest.mark.parametrize("command", FIT_EXPERIMENT)
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("initial_filter_probs", [1.0], "initial filter probabilities invalid"),
            ("initial_filter_probs", [2.0, -1.0], "initial filter probabilities invalid"),
            ("initial_filter_probs", [0.3, 0.3], "initial filter probabilities invalid"),
            ("initial_filter_probs", [1.0, 1e-8], "initial filter probabilities invalid"),
            ("theta0", [6.0, 3.0, 1.0], "theta0 must have 4 coordinates"),
        ],
    )
    def test_regime_sized_em_input_checked_before_output(
        self, tmp_path, path_csv, capsys, command, key, value, message
    ):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["em"][key] = value
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, message)

    @pytest.mark.parametrize("command", FIT_EXPERIMENT)
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("init_b_range", [5.0, 1.0], "init_b_range must be (low, high) with low <= high"),
            ("init_lambda_range", [-2.0, -1.0], "init_lambda_range and init_delta_range"),
            ("init_delta_range", [-1.0, 0.0], "init_lambda_range and init_delta_range"),
            ("init_lambda_range", [-1.0, 1.0], "init_lambda_range and init_delta_range"),
            ("init_delta_range", [-0.5, 2.0], "init_lambda_range and init_delta_range"),
        ],
    )
    def test_init_range_without_a_start_exits_2(
        self, tmp_path, path_csv, capsys, command, key, value, message
    ):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["em"][key] = value
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path, message)

    @pytest.mark.parametrize(
        "command,section,key,value",
        [
            ("simulate", "simulation", "x0", float("nan")),
            ("simulate", "simulation", "a", float("inf")),
            ("simulate", "simulation", "b", [6.0, float("nan")]),
            ("fit", "em", "rho", float("inf")),
            ("experiment", "em", "epsilon", float("-inf")),
            ("fit", "em", "initial_filter_probs", [float("nan"), 1.0]),
            ("experiment", "em", "initial_filter_probs", [float("nan"), 1.0]),
        ],
    )
    def test_non_json_constant_exits_2(self, tmp_path, path_csv, capsys,
                                       command, section, key, value):
        # json.dumps writes these floats as NaN, Infinity and -Infinity
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg[section][key] = value
        assert self.run(tmp_path, path_csv, command, cfg) == 2
        self.assert_refused(capsys.readouterr(), tmp_path,
                            f"config {tmp_path / 'out.json'} is not valid JSON")

    def test_evaluation_error_exits_3(self, tmp_path, path_csv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise EvaluationError("impossible transition has positive weight")

        monkeypatch.setattr("switchem.cli.em_fit", refuse)
        assert self.run(tmp_path, path_csv, "fit", BASE_CONFIG) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: impossible transition has positive weight\n"
        assert "Traceback" not in captured.out


class TestOptionalOutputs:
    """chain_fine.csv and probs.csv hold the in-process values, each field
    printed as format(float(v), ".9g") or as an integer label."""

    @staticmethod
    def fmt(v):
        return format(float(v), ".9g")

    def test_chain_fine_csv(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["simulation"]["emit_chain_fine"] = True
        cfg["simulation"]["q"] = [[-0.5, 0.5], [0.5, -0.5]]
        p = tmp_path / "fine.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        s = cfg["simulation"]
        truth = Theta(np.array(s["b"]), s["lambda"], s["delta"])
        sc = SimulationConfig(
            truth, s["a"], validate_generator(s["q"]), s["horizon_t"], s["obs_step_h"],
            seed=s["seed"],
        )
        _, _, fine = simulate_path(sc)
        lines = read(out / "chain_fine.csv").splitlines()
        assert lines[0] == "t,alpha"
        assert lines[1:] == [
            f"{self.fmt(k * fine.step)},{int(a)}" for k, a in enumerate(fine.states)
        ]
        assert len(set(fine.states.tolist())) == 2  # both labels appear

    def test_probs_csv_starts_from_initial_filter_probs(self, cfg_file, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_file, "--out", str(sim)]) == 0
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["em"] = {"max_iters": 20, "theta0": [6.0, 3.0, 2.0, 1.0],
                     "initial_filter_probs": [0.0, 1.0]}
        cfg["experiment"] = {"emit_probs": True}
        p = tmp_path / "start.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(p), "--data", str(sim / "path.csv"),
                     "--out", str(out), "--stable-output"]) == 0
        # the fit filtered from regime 2, and so must the reported probabilities
        assert read(out / "probs.csv").splitlines()[1].split(",")[:2] == ["0", "0"]

    def test_probs_csv(self, cfg_file, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_file, "--out", str(sim)]) == 0
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["em"] = {"max_iters": 20, "update_q": True, "theta0": [6.0, 3.0, 2.0, 1.0]}
        cfg["experiment"] = {"emit_probs": True}
        p = tmp_path / "probs.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(p), "--data", str(sim / "path.csv"),
                     "--out", str(out), "--stable-output"]) == 0
        obs = TestStartingPoint.read_path(sim / "path.csv")
        em = EmConfig(max_iters=20, update_q=True, theta0=(6.0, 3.0, 2.0, 1.0))
        result = em_fit(obs, validate_generator(BASE_CONFIG["simulation"]["q"]), em)
        fs = forward_filter(CauchyTerms(result.theta, obs), result.generator)
        smoothed = backward_smooth(fs).smoothed
        lines = read(out / "probs.csv").splitlines()
        assert lines[0] == "t,p1,p2"
        assert lines[1:] == [
            ",".join(self.fmt(v) for v in [obs.t0 + j * obs.h, *row])
            for j, row in enumerate(smoothed.T)
        ]


def reference_csv(header, columns):
    """The CSV text of one format() or str() call per value."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [",".join(str(v) if isinstance(v, int) else format(v, ".9g") for v in row)
             for row in rows]
    return "\n".join([",".join(header), *lines]) + "\n"


class TestCsvText:
    """_csv_text formats whole blocks of rows at once; every row count,
    across the block edges, gives the text of one call per value."""

    HEADER = ["iter", "b1", "lambda", "H", "state", "elapsed_ms"]

    @pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_rows_across_block_edges(self, n):
        rng = np.random.default_rng(n)
        columns = [
            np.arange(1, n + 1),
            rng.standard_normal(n) * 10.0 ** rng.integers(-8, 12, n),
            rng.uniform(-1e-3, 1e3, n),
            -rng.exponential(1e4, n),
            rng.integers(-3, 10**10, n),
            np.zeros(n),
        ]
        assert _csv_text(self.HEADER, columns) == reference_csv(self.HEADER, columns).encode()

    def test_zeros_and_labels_need_no_fallback(self):
        v = np.array([[0.0, 0.0], [-0.0, 1.0], [2.5, 7.0]])
        _, exact = _csv_cells(v, np.array([np.inf, 1e9]))
        assert exact.all()

    def test_no_rows_is_the_header_line(self):
        # trace.csv of a fit that fails at its first iteration
        empty = [[] for _ in self.HEADER]
        assert _csv_text(self.HEADER, empty) == (",".join(self.HEADER) + "\n").encode()


class TestStartingPoint:
    """Without em.theta0 the CLI draws the EM start from the init ranges
    with the generator seeded by [seed, 1]; fit honours em.init_seed."""

    EM = EmConfig(epsilon=0.05, rho=0.0001, max_iters=120)

    @staticmethod
    def sim_truth():
        s = BASE_CONFIG["simulation"]
        return Theta(np.array(s["b"]), s["lambda"], s["delta"]), validate_generator(s["q"])

    @staticmethod
    def read_path(path):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return ObservationSeries(data[:, 1], float(data[1, 0] - data[0, 0]))

    def seeded(self, seed):
        return dataclasses.replace(self.EM, init_seed=(seed, 1))

    @staticmethod
    def estimate(result):
        return sort_regimes(result.theta).to_vector().tolist()

    def fit_cli(self, cfg_file, tmp_path, em_section):
        sim = tmp_path / "sim"
        main(["simulate", "--config", cfg_file, "--out", str(sim)])
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["em"] = em_section
        p = tmp_path / "fit.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(p), "--data", str(sim / "path.csv"),
                     "--out", str(out), "--stable-output"]) == 0
        est = json.loads(read(out / "result.json"))["estimate"]
        return est["b"] + [est["lambda"], est["delta"]], self.read_path(sim / "path.csv")

    def test_fit_draws_start_from_simulation_seed(self, cfg_file, tmp_path):
        got, obs = self.fit_cli(cfg_file, tmp_path, BASE_CONFIG["em"])
        _, g = self.sim_truth()
        want = em_fit(obs, g, self.seeded(42))
        assert got == self.estimate(want)

    def test_fit_honours_init_seed(self, cfg_file, tmp_path):
        got, obs = self.fit_cli(cfg_file, tmp_path, {**BASE_CONFIG["em"], "init_seed": 7})
        _, g = self.sim_truth()
        em = EmConfig(epsilon=0.05, rho=0.0001, max_iters=120, init_seed=7)
        assert got == self.estimate(em_fit(obs, g, em))
        assert got != self.estimate(em_fit(obs, g, self.seeded(42)))

    def test_experiment_draws_one_start_per_replication(self, cfg_file, tmp_path):
        out = tmp_path / "exp"
        assert main(["experiment", "--config", cfg_file, "--out", str(out),
                     "--jobs", "1", "--stable-output"]) == 0
        rows = read(out / "summary.csv").splitlines()[1:3]
        truth, g = self.sim_truth()
        s = BASE_CONFIG["simulation"]
        for r, row in enumerate(rows, start=1):
            seed = s["seed"] + r
            sc = SimulationConfig(truth, s["a"], g, s["horizon_t"], s["obs_step_h"], seed=seed)
            obs, _, _ = simulate_path(sc)
            want = self.estimate(em_fit(obs, g, self.seeded(seed)))
            assert row.split(",")[:6] == [str(r), str(seed)] + [format(v, ".9g") for v in want]


def test_cli_import_leaves_out_scipy_and_the_pool():
    # scipy and the process pool were about half of every command's
    # start-up.  Only the tests use scipy, and only experiment --jobs > 1
    # the pool.  The CSV writer formats with plain numpy arithmetic, not
    # numpy's string modules
    code = """
import sys
import switchem.cli
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process",
                         "numpy.strings", "numpy.char")
             if m in sys.modules))
from switchem import cli, ctmc, em, likelihood, nig, sde, smoother
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
                          check=True)
    assert proc.stdout.splitlines() == ["[]", "[]"]
