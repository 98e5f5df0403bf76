import json
import os

import numpy as np
import pytest

import switchem
import switchem.cli
import switchem.em
import switchem.smoother
from switchem import EmConfig, SimulationConfig, Theta, validate_generator
from tracing import Span, Tracer, layer_metrics, self_times


def span(sid, name, start, end, parent=None, pid=1, **info):
    return Span(sid, name, start, end, parent, "test", pid, info)


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", "cli.main", 0, 100),
        span("a", "em.em_fit", 10, 40, "root", pid=2),
        span("b", "em.em_fit", 30, 60, "root", pid=3),  # overlaps a
        span("c", "sde.simulate_path", 90, 120, "root", pid=2),  # clipped at 100
        span("g", "smoother.forward_filter", 15, 20, "a", pid=2),
    ]
    own = self_times(spans)
    assert own == {"root": 40, "a": 25, "b": 30, "c": 30, "g": 5}


def test_self_time_of_leaf_and_orphan_is_duration():
    spans = [span("x", "nig.sample_nig", 5, 9, "missing-parent")]
    assert self_times(spans) == {"x": 4}


def test_layer_metrics_on_synthetic_trace():
    ms = 1_000_000
    spans = [
        span("m", "cli.main", 0, 100 * ms),
        span("f", "em.em_fit", 10 * ms, 90 * ms, "m",
             iterations=4, ascent_violations=1, fallbacks=1),
        span("ff", "smoother.forward_filter", 10 * ms, 40 * ms, "f", steps=100),
        span("bs", "smoother.backward_smooth", 40 * ms, 70 * ms, "f", steps=100),
        span("k", "ctmc.transition_matrix_approx", 12 * ms, 13 * ms, "ff"),
        span("h", "likelihood.H_n", 70 * ms, 72 * ms, "f"),
        span("n1", "em.newton_step", 72 * ms, 73 * ms, "f"),
        span("n2", "em.newton_step", 73 * ms, 74 * ms, "f"),
    ]
    m = layer_metrics(spans, calls=1, jobs=1, bytes_written=500, fit_qes=[0.5])
    assert m["em.iterations"] == 4
    assert m["em.iter_ms"] == pytest.approx(20.0)
    assert m["em.estep_share"] == pytest.approx(60 / 80)
    # em_fit self: 80 - (30 + 30 + 2 + 1 + 1) = 16; newton steps add 2
    assert m["em.self_ms"] == pytest.approx(18.0)
    assert m["em.newton_accept_ratio"] == pytest.approx(0.5)
    assert m["smoother.steps"] == 200
    assert m["smoother.ns_per_step"] == pytest.approx((29 + 30) * ms / 200)
    assert m["ctmc.kernel_calls"] == 1
    assert m["cli.self_ms"] == pytest.approx(20.0)
    assert m["cli.worker_busy_frac"] == 0.0
    assert m["cli.bytes_written"] == 500
    assert m["em.fit_qe"] == 0.5


def test_worker_busy_fraction_counts_spans_parented_across_processes():
    spans = [
        span("m", "cli.main", 0, 100),
        span("w1", "em.em_fit", 0, 100, "m", pid=2),
        span("w2", "em.em_fit", 0, 50, "m", pid=3),
    ]
    m = layer_metrics(spans, calls=1, jobs=2, bytes_written=0, fit_qes=[])
    assert m["cli.worker_busy_frac"] == pytest.approx(0.75)


def _small_problem():
    g = validate_generator([[-0.009, 0.009], [0.005, -0.005]])
    truth = Theta(np.array([6.0, 3.0]), 2.0, 1.0)
    cfg = SimulationConfig(truth, 0.3, g, 20.0, 0.1, seed=7)
    return g, cfg


def _fit(g, cfg):
    # looked up on the package at call time, so the installed wrappers are used
    obs, chain, _ = switchem.simulate_path(cfg)
    res = switchem.em_fit(obs, g, EmConfig(epsilon=1e-9, max_iters=3, m_step="newton",
                                  update_q=True, theta0=(5.0, 2.0, 1.0, 0.5)))
    return obs, chain, res


def test_wrappers_leave_return_values_unchanged(tmp_path):
    g, cfg = _small_problem()
    obs0, chain0, res0 = _fit(g, cfg)
    original = switchem.smoother.forward_filter
    with Tracer("test", tmp_path) as tracer:
        assert switchem.em.forward_filter is not original
        assert switchem.em.forward_filter is switchem.smoother.forward_filter
        obs1, chain1, res1 = _fit(g, cfg)
    assert switchem.em.forward_filter is original
    assert switchem.forward_filter is original
    np.testing.assert_array_equal(obs0.x, obs1.x)
    np.testing.assert_array_equal(chain0.states, chain1.states)
    assert type(res1) is type(res0)
    np.testing.assert_array_equal(res0.theta.to_vector(), res1.theta.to_vector())
    np.testing.assert_array_equal(res0.generator.q, res1.generator.q)
    assert (res0.status, res0.iterations) == (res1.status, res1.iterations)
    assert [r.h_after for r in res0.trace] == [r.h_after for r in res1.trace]

    spans = tracer.collect()
    by_id = {s.id: s for s in spans}
    names = {s.name for s in spans}
    assert {"sde.simulate_path", "em.em_fit", "smoother.forward_filter",
            "likelihood.hessian_H", "em.update_generator"} <= names
    fit = next(s for s in spans if s.name == "em.em_fit")
    assert fit.info["iterations"] == 3
    for s in spans:
        if s.name == "smoother.forward_filter":
            assert by_id[s.parent].name == "em.em_fit"


def test_exceptions_pass_through_and_close_the_span(tmp_path):
    with Tracer("test", tmp_path) as tracer:
        with pytest.raises(switchem.ConfigError):
            switchem.ctmc.validate_generator([[1.0]])
    (s,) = tracer.collect()
    assert s.name == "ctmc.validate_generator" and s.info == {"raised": True}


def test_pool_worker_spans_are_collected(tmp_path):
    cfg = {
        "simulation": {
            "b": [6.0, 3.0], "lambda": 2.0, "delta": 1.0, "a": 0.3,
            "q": [[-0.009, 0.009], [0.005, -0.005]],
            "horizon_t": 10.0, "obs_step_h": 0.1, "seed": 3,
        },
        "em": {"epsilon": 0.05, "max_iters": 5, "theta0": [5.0, 2.0, 1.0, 0.5]},
        "experiment": {"replications": 4},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["experiment", "--config", str(path), "--out", str(tmp_path / "out"),
            "--jobs", "2"]
    with Tracer("test", tmp_path / "spans") as tracer:
        assert switchem.cli.main(argv) == 0
    spans = tracer.collect()
    main_pid = os.getpid()
    by_id = {s.id: s for s in spans}
    fits = [s for s in spans if s.name == "em.em_fit"]
    assert len(fits) == 4
    assert all(s.pid != main_pid for s in fits)
    # worker top-level spans hang under the experiment call of this process
    for s in fits:
        assert by_id[s.parent].name == "cli.cmd_experiment"
        assert by_id[s.parent].pid == main_pid
    assert len({s.id for s in spans}) == len(spans)
    m = layer_metrics(spans, calls=1, jobs=2, bytes_written=0, fit_qes=[])
    assert 0.0 < m["cli.worker_busy_frac"] <= 1.0
