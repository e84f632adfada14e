"""Spans around calls into orekf, recorded from outside the package.

``Tracer.installed()`` rebinds each name in ``PROBES`` in the namespace the
caller looks it up in (for example ``orekf.runner.propagate_batch``, which
the run loop imported by name) to a wrapper that records a span, and puts
the original object back afterwards. A span is ``(pid, id, parent id,
layer, function, start ns, end ns, info)``; spans are kept in memory and
aggregated when the run ends. A span's self time is its duration minus the
durations of its children, so the self times of one tree add up to the
duration of its root exactly.

Sweep tasks run in forked pool workers. The wrapper for
``orekf.cli._sweep_task`` is a module-level function, so the pool can pickle
it by name; in the worker it finds the tracer through ``_ACTIVE``, records
the task's spans and appends them to a spool file that the parent merges
after the sweep.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _steps(args, out):
    return len(args[2])                      # propagate_batch(state, cov, acc, ...)


def _pairs(args, out):
    return len(out[0])                       # match -> (pairs, unmatched)


def _blocks_kept(args, out):
    return int(out.keeps_position()) + int(out.keeps_rotation())


def _update_shape(args, out):
    stacked, cov = args[2], args[1]          # ekf_update(state, cov, stacked)
    return [int(stacked.residual.size), int(cov.shape[0]), out[1] is cov]


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _dir_bytes(args, out):
    return sum(p.stat().st_size for p in Path(args[0]).iterdir())


# (module, attribute, layer, info taken from the arguments and result)
PROBES = (
    ("orekf.cli", "simulate_streams", "sim", None),
    ("orekf.cli", "run_filter", "runner", None),
    ("orekf.cli", "run_sweep_cells", "sweep", None),
    ("orekf.cli", "read_log", "replay.read", _file_bytes),
    ("orekf.cli", "write_log", "replay.write", _file_bytes),
    ("orekf.cli", "write_run_csv", "output", _file_bytes),
    ("orekf.cli", "write_summary_csv", "output", _file_bytes),
    ("orekf.cli", "write_sweep_outputs", "output", _dir_bytes),
    ("orekf.runner", "propagate_batch", "propagation", _steps),
    ("orekf.runner", "project_measurement", "matching", None),
    ("orekf.runner", "match", "matching", _pairs),
    ("orekf.runner", "initialize_object", "matching", None),
    ("orekf.update_direct", "residual_position", "model", None),
    ("orekf.update_direct", "residual_rotation", "model", None),
    ("orekf.update_direct", "jacobians", "model", None),
    ("orekf.update_inverse", "invert_measurement", "model", None),
    ("orekf.update_inverse", "residual_position", "model", None),
    ("orekf.update_inverse", "residual_rotation", "model", None),
    ("orekf.update_inverse", "jacobians", "model", None),
    ("orekf.gating", "chi2_full", "gating", _blocks_kept),
    ("orekf.gating", "chi2_partial", "gating", _blocks_kept),
    ("orekf.gating", "aor", "gating", _blocks_kept),
    ("orekf.gating", "aorp", "gating", _blocks_kept),
    ("orekf.update_direct", "build_stacked", "stack", None),
    ("orekf.update_inverse", "build_stacked", "stack", None),
    ("orekf.update_direct", "ekf_update", "ekf_update", _update_shape),
    ("orekf.update_direct", "inject_error", "state", None),
    ("orekf.matching", "add_object", "state", None),
    ("orekf.metrics", "rmse_position", "metrics", None),
    ("orekf.metrics", "rmse_orientation", "metrics", None),
    ("orekf.metrics", "max_position_error", "metrics", None),
    ("orekf.metrics", "anees", "metrics", None),
)
SWEEP_TASK = ("orekf.cli", "_sweep_task")

# The installed tracer. Forked pool workers inherit it and have no other
# way to reach it from the task function the pool unpickles by name.
_ACTIVE = None


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._originals = {}
        for module, attr, *_ in PROBES + (SWEEP_TASK,):
            self._originals[(module, attr)] = getattr(
                importlib.import_module(module), attr)

    @contextmanager
    def span(self, layer: str, fn: str = ""):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.pid, sid, parent, layer, fn, t0, t1, None))

    def _wrap(self, layer, fn_name, fn, info):
        # The probe runs on every call of a hot function: it binds what it
        # needs up front, and the lists it appends to are never replaced.
        tracer, ids, stack, spans = self, self._ids, self._stack, self.spans
        clock = time.perf_counter_ns

        def probe(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((tracer.pid, sid, parent, layer, fn_name, t0, t1,
                              None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((tracer.pid, sid, parent, layer, fn_name, t0, t1,
                          info(args, out) if info else None))
            return out

        probe.__wrapped__ = fn
        return probe

    def original(self, module: str, attr: str):
        return self._originals[(module, attr)]

    def rebound(self) -> list:
        """Names whose current object is not the original one."""
        return [f"{module}.{attr}"
                for (module, attr), orig in self._originals.items()
                if getattr(importlib.import_module(module), attr) is not orig]

    @contextmanager
    def installed(self):
        global _ACTIVE
        stale = self.rebound()
        if stale:
            raise RuntimeError(f"names already rebound: {stale}")
        try:
            for module, attr, layer, info in PROBES:
                setattr(importlib.import_module(module), attr,
                        self._wrap(layer, attr, self.original(module, attr),
                                   info))
            setattr(importlib.import_module(SWEEP_TASK[0]), SWEEP_TASK[1],
                    traced_sweep_task)
            _ACTIVE = self
            yield self
        finally:
            _ACTIVE = None
            for (module, attr), orig in self._originals.items():
                setattr(importlib.import_module(module), attr, orig)

    def enter_process(self):
        """Drop the state a forked worker inherited from its parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans.clear()
            self._stack.clear()

    def spool(self):
        """In a worker, append the recorded spans to this process's file."""
        if self.pid == self.main_pid:
            return
        with open(self.spool_dir / f"{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans.clear()

    def merge_spool(self):
        """In the parent, take over the spans the workers spooled."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def traced_sweep_task(args):
    """Sweep task with its spans recorded, for the pool to run."""
    tracer = _ACTIVE
    if tracer is None:
        raise RuntimeError("traced sweep tasks need pool workers forked "
                           "from the traced process")
    tracer.enter_process()
    with tracer.span("sweep.task", "_sweep_task"):
        out = tracer.original(*SWEEP_TASK)(args)
    tracer.spool()
    return out


def ekf_update_flops(m: int, n: int, skipped: bool) -> int:
    """Flops of the dense products in ekf_update, computed from the stacked
    row count m and the error-state dimension n (not measured)."""
    innovation = 2 * m * n * n + 2 * m * m * n         # H P H^T
    if skipped:
        return innovation
    gain = 2 * m * n * n + 2 * m ** 3 // 3 + 2 * m * m * n   # solve(S, H P)
    correction = 2 * n * m + 2 * n * n * m             # K z, K H
    joseph = 4 * n ** 3 + 2 * n * m * m + 2 * n * n * m  # Joseph form
    return innovation + gain + correction + joseph


def aggregate(spans, main_pid: int):
    """Self time per (root layer, lane, layer) and counts per function.

    The root layer tells operations ("op", and "sweep.task" in workers)
    from set-up ("setup"); the lane is "main" or "worker".
    """
    spans = sorted(spans, key=lambda s: (s[0], s[1]))
    child_ns = defaultdict(int)
    for pid, _, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child_ns[(pid, parent)] += t1 - t0
    root = {}
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for pid, sid, parent, layer, fn, t0, t1, info in spans:
        group = layer if parent is None else root.get((pid, parent), layer)
        root[(pid, sid)] = group
        if group == "sweep.task":
            group = "op"
        lane = "main" if pid == main_pid else "worker"
        self_ns[(group, lane, layer)] += t1 - t0 - child_ns[(pid, sid)]
        calls[(group, fn)] += 1
        if info is not None:
            infos[(group, fn)].append(info)
    return self_ns, calls, infos


def layer_metrics(spans, main_pid: int, workers: int, traced_s: float,
                  untraced_s: float):
    """Per-layer metrics of the operations, and the accounting behind them."""
    self_ns, calls, infos = aggregate(spans, main_pid)

    def self_s(layer, group="op", lanes=("main", "worker")):
        return sum(self_ns.get((group, lane, layer), 0) for lane in lanes) / 1e9

    def n_calls(*fns):
        return sum(calls[("op", fn)] for fn in fns)

    def total(fn, group="op"):
        return sum(infos[(group, fn)])

    steps = total("propagate_batch")
    gating_fns = ("chi2_full", "chi2_partial", "aor", "aorp")
    tested = 2 * n_calls(*gating_fns)
    kept = sum(total(fn) for fn in gating_fns)
    updates = infos[("op", "ekf_update")]
    wait_s = self_s("sweep", lanes=("main",))
    sweep_s = sum(t1 - t0 for pid, _, _, layer, _, t0, t1, _ in spans
                  if layer == "sweep" and pid == main_pid) / 1e9
    busy_s = sum(t1 - t0 for _, _, _, layer, _, t0, t1, _ in spans
                 if layer == "sweep.task") / 1e9
    root_ns = defaultdict(int)   # operation time per lane
    for pid, _, parent, layer, _, t0, t1, _ in spans:
        if parent is None and layer != "setup":
            root_ns["main" if pid == main_pid else "worker"] += t1 - t0
    metrics = {
        "sim.s": self_s("sim"),
        "sim.calls": n_calls("simulate_streams"),
        "propagation.s": self_s("propagation"),
        "propagation.calls": n_calls("propagate_batch"),
        "propagation.steps": steps,
        "propagation.us_per_step": (1e6 * self_s("propagation") / steps
                                    if steps else 0.0),
        "matching.s": self_s("matching"),
        "matching.pairs": total("match"),
        "matching.inits": n_calls("initialize_object"),
        "model.s": self_s("model"),
        "model.calls": n_calls("residual_position", "residual_rotation",
                               "jacobians", "invert_measurement"),
        "gating.s": self_s("gating"),
        "gating.calls": n_calls(*gating_fns),
        "gating.keep_frac": kept / tested if tested else 0.0,
        "stack.s": self_s("stack"),
        "ekf_update.self_s": self_s("ekf_update"),
        "ekf_update.calls": len(updates),
        "ekf_update.skipped": sum(1 for _, _, skipped in updates if skipped),
        "ekf_update.rows_mean": (sum(m for m, _, _ in updates) / len(updates)
                                 if updates else 0.0),
        "ekf_update.dim_mean": (sum(n for _, n, _ in updates) / len(updates)
                                if updates else 0.0),
        "ekf_update.mflop_computed": sum(
            ekf_update_flops(m, n, s) for m, n, s in updates) / 1e6,
        "state.s": self_s("state"),
        "runner.self_s": self_s("runner"),
        "metrics.s": self_s("metrics"),
        "replay.read_s": self_s("replay.read"),
        "replay.write_s": self_s("replay.write", group="setup"),
        "replay.bytes": total("read_log"),
        "output.s": self_s("output"),
        "output.bytes": sum(total(fn) for fn in (
            "write_run_csv", "write_summary_csv", "write_sweep_outputs")),
        "sweep.busy_frac": busy_s / (workers * sweep_s) if sweep_s else 0.0,
        "sweep.wait_s": wait_s,
        "tracing.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.wall_s": traced_s,
        "unattributed.s": self_s("op") + self_s("sweep.task"),
    }
    accounting = {}
    for lane in ("main", "worker"):
        parts = {layer: ns / 1e9 for (group, span_lane, layer), ns
                 in self_ns.items() if group == "op" and span_lane == lane}
        accounting[lane] = {"span_s": root_ns[lane] / 1e9, "self_s": parts,
                            "sum_self_s": sum(parts.values())}
    return metrics, accounting
