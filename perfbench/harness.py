"""One benchmark run: set-up, a closed loop of operations, output checks and
either the end-to-end metrics (trace off) or the per-layer metrics (trace on).

With trace on, every operation runs twice on the same input, first plain
and then with the probes installed, so the tracing overhead is measured on
identical work and the two output digests must agree.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from . import tracing
from .workloads import FULL, REFERENCE_SEED, WORKLOADS, Size, quality

SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import orekf.cli; "
                "print(time.perf_counter() - t)")


class Tally:
    """Operations attempted and the checks they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []

    def fail(self, op: str, message: str):
        self.failed_ops.add(op)
        self.messages.append(f"{op}: {message}")

    def check(self, op: str, ok: bool, message: str):
        """A check of the whole run counts as one more operation."""
        self.attempted += 1
        if not ok:
            self.fail(op, message)

    def run(self, op: str, fn):
        """Call fn at the boundary that must keep running; None on error."""
        self.attempted += 1
        try:
            res = fn()
        except Exception:  # noqa: BLE001 - recorded and counted as failed
            traceback.print_exc(file=sys.stderr)
            self.fail(op, "raised " + traceback.format_exc().splitlines()[-1])
            return None
        for message in res.failures:
            self.fail(op, message)
        return res


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def environment(workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "workers": workers}


def import_seconds(src: Path) -> float:
    """Time to import orekf in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


def tail(samples: list) -> tuple:
    """(value, percentile, sample count) at the highest percentile that has
    at least ten samples beyond it. With 20 samples or fewer that percentile
    is at or below the median, so the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 20 else n
    return ordered[rank - 1], 100.0 * rank / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def closed_loop(seconds: float, step):
    """Call step(n) for n = 0, 1, ... until `seconds` have passed; the
    first call always happens."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        step(n)
        n += 1


def timed(fn):
    t0 = time.perf_counter()
    res = fn()
    return res, time.perf_counter() - t0


def _verify(wl, plain: list, seed: int, tally: Tally):
    done = [(n, res) for n, res, _ in plain if res is not None]
    if done:
        for n, messages in wl.verify(done, seed).items():
            for message in messages:
                tally.fail(f"op{n}", message)


def end_to_end(cls, seed, seconds, size, root, work, workers, tally, report):
    src = root / "src"
    setup_s = []
    for rep in range(SETUP_REPEATS):
        wl = cls(size, workers, work / f"setup{rep}")
        t_import = import_seconds(src)
        _, t_setup = timed(lambda: wl.setup(seed))
        setup_s.append(t_import + t_setup)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(wl.dir)

    plain = []

    def step(n):
        op_seed = wl.op_seed(seed, n)
        res, dt = timed(lambda: tally.run(f"op{n}", lambda: wl.run_op(op_seed)))
        plain.append((n, res, dt))

    closed_loop(seconds, step)
    _verify(wl, plain, seed, tally)

    ref = cls(size, workers, work / "reference")
    ref.setup(REFERENCE_SEED)
    reference = tally.run("reference", lambda: ref.run_op(
        ref.op_seed(REFERENCE_SEED, 0)))

    done = [(res, dt) for _, res, dt in plain if res is not None]
    if not done or reference is None:
        return None
    runs = sum(res.runs for res, _ in done)
    per_run = [dt / res.runs for res, dt in done]
    tail_s, tail_pct, tail_n = tail(per_run)
    # Medians over operations, not totals: a burst of load from outside
    # the benchmark then moves the figures less.
    values = {"runs_per_s": statistics.median(res.runs / dt
                                              for res, dt in done),
              "run_s.p50": statistics.median(per_run),
              "run_s.tail": tail_s,
              "setup_s": statistics.median(setup_s),
              "peak_rss_mb": peak_rss_mb()}
    values.update(quality(reference.run_metrics))
    report.update({
        "ops": len(plain), "runs": runs,
        "diverged_runs": sum(m["diverged"] for res, _ in done
                             for m in res.run_metrics),
        "run_s.tail": {"percentile": tail_pct, "samples": tail_n},
        "setup_s.samples": setup_s,
        "digest": plain[0][1].digest if plain[0][1] else None,
        "reference_digest": reference.digest})
    return values


def per_layer(cls, seed, seconds, size, root, work, workers, tally, report):
    tracer = tracing.Tracer(work / "spool")
    wl = cls(size, workers, work / "ops")
    with tracer.installed(), tracer.span("setup"):
        wl.setup(seed)
    plain, traced = [], []

    def step(n):
        op_seed = wl.op_seed(seed, n)
        res, dt = timed(lambda: tally.run(f"op{n}", lambda: wl.run_op(op_seed)))
        plain.append((n, res, dt))
        with tracer.installed():
            with tracer.span("op"):
                res_t, dt_t = timed(lambda: tally.run(
                    f"op{n}-traced", lambda: wl.run_op(op_seed)))
        tracer.merge_spool()
        traced.append((n, res_t, dt_t))
        if res and res_t and res.digest != res_t.digest:
            tally.fail(f"op{n}-traced", "outputs differ from the untraced run")

    closed_loop(seconds, step)
    stale = tracer.rebound()
    tally.check("tracer", not stale, f"names still rebound: {stale}")
    _verify(wl, plain, seed, tally)

    pairs = [(dt, dt_t) for (_, res, dt), (_, res_t, dt_t)
             in zip(plain, traced) if res is not None and res_t is not None]
    if not pairs:
        return None
    values, accounting = tracing.layer_metrics(
        tracer.spans, tracer.main_pid, workers,
        traced_s=sum(t for _, t in pairs), untraced_s=sum(u for u, _ in pairs))
    tracer.write(work.parent / f"last-trace-{cls.name}.jsonl")
    report.update({"ops": len(plain), "accounting": accounting,
                   "digest": plain[0][1].digest if plain[0][1] else None})
    return values


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  root: Path, size: Size = FULL):
    """Run one workload; returns (result, report) or (None, report) when no
    operation could be measured."""
    cls = WORKLOADS[name]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    workers = worker_count()
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    tally = Tally()
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(workers)}
    measure = per_layer if trace else end_to_end
    try:
        values = measure(cls, seed, seconds, size, root, work, workers, tally,
                         report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values is not None:
        bad = [key for key, value in values.items() if not math.isfinite(value)]
        tally.check("metrics", not bad, f"not finite: {bad}")
    report.update({"failed_frac": len(tally.failed_ops) / tally.attempted,
                   "failures": tally.messages[:20]})
    if values is None:
        return None, report
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value if math.isfinite(value)
                              else sys.float_info.max, "unit": m["unit"]}
    result = {"correct": not tally.failed_ops, "attempted": tally.attempted,
              "failed": len(tally.failed_ops), "metrics": metrics}
    return result, report
