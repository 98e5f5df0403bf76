"""Span recording around the public functions of the switchem modules.

``Tracer.install`` wraps every public function defined in the traced modules
and rebinds the wrapper wherever the package holds the original, because the
modules import each other's functions by name (``from .smoother import
forward_filter``).  Calls between layers are therefore seen without a line
of ``src/switchem`` changing; ``Tracer.uninstall`` restores the originals.

Spans are kept in memory.  A process forked from the traced one (a pool
worker of ``switchem experiment --jobs``) inherits the wrappers and the open
span stack.  Whenever the outermost span it opened itself ends, it appends
its spans to ``<spill_dir>/spans-<pid>.jsonl``; ``Tracer.collect`` merges
those files with the spans of the tracing process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Layer names are the switchem module names.
LAYERS = ("cli", "em", "smoother", "likelihood", "ctmc", "sde", "nig")


@dataclass
class Span:
    id: str
    name: str  # "<layer>.<function>"
    start_ns: int
    end_ns: int
    parent: str | None
    workload: str
    pid: int
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


def _fit_info(result) -> dict:
    return {
        "iterations": int(result.iterations),
        "ascent_violations": int(result.ascent_violations),
        "fallbacks": sum(bool(rec.used_fallback) for rec in result.trace),
        "status": str(result.status),
    }


# Work counts read from return values, keyed by span name.
_INFO = {
    "smoother.forward_filter": lambda r: {"steps": int(r.n)},
    "smoother.backward_smooth": lambda r: {"steps": int(r.n)},
    "em.em_fit": _fit_info,
    "sde.euler_path": lambda r: {"steps": int(r.shape[0]) - 1},
    "nig.sample_nig": lambda r: {"variates": int(r.size)},
}

_ACTIVE: "Tracer | None" = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._become_worker()


class Tracer:
    """Records one span per call of a public switchem function."""

    def __init__(self, workload: str, spill_dir: Path):
        self.workload = workload
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self._stack: list[tuple[str, int]] = []  # (span id, pid) of open spans
        self._pid = os.getpid()
        self._counter = 0
        self._is_worker = False
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        global _ACTIVE, _FORK_HOOK_REGISTERED
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        package = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "switchem" or n.startswith("switchem."))
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"switchem.{layer}")
            for fname, fn in list(vars(module).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for holder in package:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._originals.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for holder, attr, fn in reversed(self._originals):
            setattr(holder, attr, fn)
        self._originals.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        extract = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, sid, parent, start, {"raised": True})
                raise
            info = {}
            if extract is not None:
                try:
                    info = extract(result)
                except (AttributeError, TypeError):
                    info = {}
            self._close(name, sid, parent, start, info)
            return result

        return wrapper

    def _open(self) -> tuple[str, str | None, int]:
        self._counter += 1
        sid = f"{self._pid}:{self._counter}"
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, self._pid))
        return sid, parent, time.perf_counter_ns()

    def _close(self, name, sid, parent, start, info) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(
            Span(sid, name, start, end, parent, self.workload, self._pid, info)
        )
        if self._is_worker and (not self._stack or self._stack[-1][1] != self._pid):
            self._spill()

    def _become_worker(self) -> None:
        # the parent's finished spans stay with the parent; the inherited
        # stack keeps the parent's open spans as parents of this worker's
        self.spans = []
        self._pid = os.getpid()
        self._counter = 0
        self._is_worker = True

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Spans of this process plus those spilled by forked workers."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(Span(**json.loads(line)) for line in fh)
        return spans


# -- analysis ----------------------------------------------------------------


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[str, int]:
    """Self time per span id: its duration minus the time its children cover.

    Children of one span can overlap (pool workers run side by side), so the
    covered time is the length of the union of their intervals.
    """
    ids = {s.id for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in ids:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: s.dur_ns - _covered_ns(children[s.id], s.start_ns, s.end_ns)
        for s in spans
    }


# Per-layer metrics: name -> (unit, better).  Per-call figures are divided by
# the number of CLI calls the trace covers.
LAYER_METRICS = {
    "smoother.filter_ms": ("ms", "lower"),
    "smoother.backward_ms": ("ms", "lower"),
    "smoother.steps": ("count", "lower"),
    "smoother.ns_per_step": ("ns", "lower"),
    "likelihood.H_calls": ("count", "lower"),
    "likelihood.H_ms": ("ms", "lower"),
    "likelihood.grad_ms": ("ms", "lower"),
    "likelihood.hess_ms": ("ms", "lower"),
    "likelihood.density_ms": ("ms", "lower"),
    "em.self_ms": ("ms", "lower"),
    "em.iterations": ("count", "lower"),
    "em.iter_ms": ("ms", "lower"),
    "em.estep_share": ("ratio", "lower"),
    "em.newton_accept_ratio": ("ratio", "higher"),
    "em.ascent_violations": ("count", "lower"),
    "em.fit_qe": ("sq_err", "lower"),
    "ctmc.kernel_calls": ("count", "lower"),
    "ctmc.kernel_ms": ("ms", "lower"),
    "ctmc.validate_calls": ("count", "lower"),
    "ctmc.chain_ms": ("ms", "lower"),
    "sde.simulate_ms": ("ms", "lower"),
    "sde.euler_steps": ("count", "lower"),
    "sde.euler_ns_per_step": ("ns", "lower"),
    "nig.sample_ms": ("ms", "lower"),
    "nig.variates": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.worker_busy_frac": ("ratio", "higher"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    calls: int,
    jobs: int,
    bytes_written: int,
    fit_qes: list[float],
) -> dict[str, float]:
    """Reduce a trace of ``calls`` CLI calls to the LAYER_METRICS values."""
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        layer_self[s.layer] += own[s.id]
    by_id = {s.id: s for s in spans}

    def n(name):
        return len(by_name[name])

    def total_ns(name):
        return sum(s.dur_ns for s in by_name[name])

    def mean_ms(name):
        return _ratio(total_ns(name), n(name)) / 1e6

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    smoother_steps = info_sum("smoother.forward_filter", "steps") + info_sum(
        "smoother.backward_smooth", "steps"
    )
    fits = by_name["em.em_fit"]
    iterations = info_sum("em.em_fit", "iterations")
    fit_ns = total_ns("em.em_fit")
    estep_ns = sum(
        s.dur_ns
        for s in spans
        if s.layer == "smoother"
        and s.parent in by_id
        and by_id[s.parent].name == "em.em_fit"
    )
    attempts = n("em.newton_step")
    euler_steps = info_sum("sde.euler_path", "steps")
    # top-level spans of worker processes: their parent lives in another pid
    worker_ns = sum(
        s.dur_ns
        for s in spans
        if s.parent in by_id and by_id[s.parent].pid != s.pid
    )
    main_ns = total_ns("cli.main")
    return {
        "smoother.filter_ms": mean_ms("smoother.forward_filter"),
        "smoother.backward_ms": mean_ms("smoother.backward_smooth"),
        "smoother.steps": smoother_steps / calls,
        "smoother.ns_per_step": _ratio(layer_self["smoother"], smoother_steps),
        "likelihood.H_calls": n("likelihood.H_n") / calls,
        "likelihood.H_ms": mean_ms("likelihood.H_n"),
        "likelihood.grad_ms": mean_ms("likelihood.grad_H"),
        "likelihood.hess_ms": mean_ms("likelihood.hessian_H"),
        "likelihood.density_ms": mean_ms("likelihood.cauchy_density_matrix"),
        "em.self_ms": layer_self["em"] / 1e6 / calls,
        "em.iterations": _ratio(iterations, len(fits)),
        "em.iter_ms": _ratio(fit_ns, iterations) / 1e6,
        "em.estep_share": _ratio(estep_ns, fit_ns),
        "em.newton_accept_ratio": _ratio(
            attempts - info_sum("em.em_fit", "fallbacks"), attempts
        ),
        "em.ascent_violations": _ratio(
            info_sum("em.em_fit", "ascent_violations"), len(fits)
        ),
        "em.fit_qe": statistics.median(fit_qes) if fit_qes else 0.0,
        "ctmc.kernel_calls": n("ctmc.transition_matrix_approx") / calls,
        "ctmc.kernel_ms": mean_ms("ctmc.transition_matrix_approx"),
        "ctmc.validate_calls": n("ctmc.validate_generator") / calls,
        "ctmc.chain_ms": total_ns("ctmc.simulate_chain") / 1e6 / calls,
        "sde.simulate_ms": layer_self["sde"] / 1e6 / calls,
        "sde.euler_steps": euler_steps / calls,
        "sde.euler_ns_per_step": _ratio(total_ns("sde.euler_path"), euler_steps),
        "nig.sample_ms": total_ns("nig.sample_nig") / 1e6 / calls,
        "nig.variates": info_sum("nig.sample_nig", "variates") / calls,
        "cli.self_ms": layer_self["cli"] / 1e6 / calls,
        "cli.bytes_written": bytes_written / calls,
        "cli.worker_busy_frac": _ratio(worker_ns, jobs * main_ns),
    }
