#!/usr/bin/env python3
"""Layered benchmark: three workloads, end-to-end metrics, a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload apps_sweep --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``apps_sweep``, ``ranks384`` or ``campaign`` (see
:mod:`workloads` for what each exercises and why).  ``--seed`` generates
the inputs and nothing else.  The timed section runs repetitions of a
cold pass and an extend pass until ``--seconds`` have elapsed (at least
one repetition).  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` spends half the time untraced and half with wrappers around every
covered layer's public calls, and reports the per-layer metrics of
:mod:`layers` plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a full
summary are written under ``.perfbench_out/`` in the repository root.

``BENCHMARK.json`` gates ``apps_sweep`` and ``campaign``.  ``ranks384``
runs the same way but stays out of the gated set: its 384 rank threads
make every figure follow the host's thread-scheduling latency, and on a
shared 2-vCPU host its run-to-run spread reached 0.3 of the median.

This benchmark supersedes ``benchmarks/bench_wallclock.py`` as the
performance yardstick; that script still runs in CI, unchanged.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.util
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T_IMPORT = time.perf_counter()

import layers  # noqa: E402 - after the clock read above
import tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
#: Engine settings that would silently change what the workloads measure.
ENV_KNOBS = ("REPRO_SPMD_BACKEND", "REPRO_SPMD_WORKERS")
#: Fresh interpreters that repeat the set-up, so setup_s is a median of three.
SETUP_CHILDREN = 2
#: run() walls a timed section collects at least: the tail percentile needs
#: ten samples beyond it.
MIN_SAMPLES = 11
#: Longest temp directory that keeps the worker pool's AF_UNIX socket paths
#: (up to 32 characters below it) within their 107-byte limit.
_MAX_TMP_PREFIX = 75


def process_age() -> float:
    """Seconds since this interpreter's process started."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)`` with nearest-rank percentiles; with
    fewer than eleven samples no percentile qualifies and the maximum is
    returned at percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def host_fingerprint() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live child process (MB)."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def timed_section(wl, tally, seconds: float, recorder=None) -> list:
    """Repetitions of (cold pass, extend pass) until ``seconds`` elapse and
    there are enough run() walls for run_wall_s.tail to have a percentile."""
    passes: list = []
    end = time.perf_counter() + seconds
    while True:
        cold = wl.run_pass("cold", tally, recorder)
        ext = wl.run_pass("extend", tally, recorder)
        passes += [cold, ext]
        if not (cold.op_walls or ext.op_walls):
            return passes  # nothing completes; more time would repeat the failures
        walls = sum(len(p.op_walls) for p in passes)
        if time.perf_counter() >= end and walls >= MIN_SAMPLES:
            return passes


def median(values) -> float:
    """The median, or 0.0 when every operation failed and there is nothing."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def repetitions(passes: list) -> list[tuple]:
    """The (cold, extend) pass pairs, in order."""
    return list(zip(passes[0::2], passes[1::2]))


def runs_per_s(passes: list) -> float:
    """Median over repetitions of operations completed per wall second."""
    return median(
        (cold.ops + ext.ops) / (cold.wall + ext.wall)
        for cold, ext in repetitions(passes)
        if cold.wall + ext.wall > 0
    )


def end_to_end(passes: list, setups: list[float], rss: float) -> tuple[dict, dict]:
    walls = [w for p in passes for w in p.op_walls]
    value, pct, n = tail(walls)
    reps = repetitions(passes)
    metrics = {
        "setup_s": median(setups),
        "runs_per_s": runs_per_s(passes),
        # Each repetition holds the same mix of operations; the median of
        # the per-repetition medians stays put when that mix is bimodal.
        "run_wall_s.p50": median(
            median(cold.op_walls + ext.op_walls) for cold, ext in reps
            if cold.op_walls + ext.op_walls
        ),
        "run_wall_s.tail": value,
        "cold_pass_s": median(cold.wall for cold, _ in reps),
        "extend_pass_s": median(ext.wall for _, ext in reps),
        "peak_rss_mb": rss,
    }
    notes = {
        "run_wall_s.tail": f"p{pct:.1f} of {n} samples",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "runs_per_s": f"median over {len(reps)} repetitions",
        "passes": " ".join(f"{p.kind}:{p.wall:.3f}s/{p.ops}" for p in passes),
    }
    return metrics, notes


def child_setups(args, tally) -> list[float]:
    """Set up again in fresh interpreters; each prints its own setup_s."""
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("setup_s ")]
        if proc.returncode != 0 or not lines:
            tally.fail(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        out.append(float(lines[-1].split()[1]))
    return out


def memo_counts(wl) -> tuple[int, int]:
    """Dataset memo (hits, misses) so far, across the cold passes' clears."""
    from repro.data.points import points_cache_stats

    stats = points_cache_stats()
    return (stats["hits"] + getattr(wl, "memo_hits", 0),
            stats["misses"] + getattr(wl, "memo_misses", 0))


def layer_extras(wl, before: tuple[int, int], passes: list, untraced: list, recorder) -> dict:
    """Per-layer metrics read outside the spans: counters, rows, job stamps."""
    from repro.sim.engine import rank_pool_stats
    from repro.sim.procpool import process_pool_stats

    hits, misses = memo_counts(wl)
    hits -= before[0]
    lookups = hits + misses - before[1]
    rows = getattr(wl, "rows", [])
    executed = [r for r in rows if r["state"] == "done" and not r["cached"]]
    waits = [j.started_at - j.submitted_at for j in recorder.jobs
             if not j.cached and j.started_at is not None]
    dedup = getattr(wl, "dedup", [])
    traced_rate = runs_per_s(passes)
    untraced_rate = runs_per_s(untraced)
    return {
        "data.points_memo_hit_ratio": hits / lookups if lookups else 0.0,
        "faults.drops": sum(r.get("fault_drops") or 0 for r in executed),
        "faults.crashes_consumed": sum(r.get("fault_crashes") or 0 for r in executed),
        "sim.rank_threads_spawned": rank_pool_stats()["spawned"],
        "sim.procpool.workers_spawned": process_pool_stats()["spawned"],
        "serve.queue_wait_s.p50": median(waits),
        "serve.rank_utilization": median(getattr(wl, "utilization", [])),
        "serve.jobs_failed": sum(1 for r in rows if r["state"] != "done"),
        "campaign.dedup_ratio": (
            sum(d for d, _ in dedup) / sum(n for _, n in dedup) if dedup else 0.0),
        "trace.untraced_runs_per_s": untraced_rate,
        "trace.traced_runs_per_s": traced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
    }


def traced_run(args, wl, tally) -> tuple[dict, dict]:
    untraced = timed_section(wl, tally, args.seconds / 2)
    for name in ("rows", "utilization", "dedup"):
        if hasattr(wl, name):
            getattr(wl, name).clear()
    recorder = tracer.Tracer()
    covered = layers.TRACED_LAYERS[args.workload]
    before = memo_counts(wl)
    patches = tracer.install(recorder, covered)
    try:
        passes = timed_section(wl, tally, args.seconds / 2, recorder)
    finally:
        patches.restore()
    spans = recorder.spans()
    metrics = tracer.summarize(spans, layer_extras(wl, before, passes, untraced, recorder))
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"), spans)
    notes = {"covered": ", ".join(covered)}
    if "apps" in covered:
        busy = sum(metrics[f"layer.{x}.self_s"] for x in ("apps", "core", "device"))
        talk = sum(metrics[f"layer.{x}.self_s"] for x in ("comm", "sim"))
        notes["split"] = f"apps+core+device self CPU {busy:.3f} s vs comm+sim {talk:.3f} s"
    else:
        notes["covered"] += (" (rank-level layers run in worker processes, beyond the "
                             "tracer; their metrics read 0 here)")
    return metrics, notes


def _use_local_tmp(work: Path) -> None:
    """Keep worker-pool sockets and temp files inside the checkout when the
    path is short enough for AF_UNIX; otherwise leave the system default."""
    if len(str(work)) <= _MAX_TMP_PREFIX:
        os.environ["TMPDIR"] = str(work)
        import tempfile

        tempfile.tempdir = None


def _stop_processes(work: Path) -> None:
    """Stop the worker pool and the forkserver; wait for both to end."""
    import multiprocessing.forkserver as forkserver
    import multiprocessing.resource_tracker as resource_tracker

    from repro.sim.procpool import shutdown_pool

    shutdown_pool()
    server = forkserver._forkserver
    if getattr(server, "_forkserver_pid", None) is not None:
        server._stop()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    # Worker processes leave their socket directories behind.
    for leftover in work.glob("repro-spmd-*"):
        shutil.rmtree(leftover, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("apps_sweep", "ranks384", "campaign"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    knobs = [k for k in ENV_KNOBS if os.environ.get(k)]
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; unset to measure the "
              "engine defaults", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program source under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    work = WORK / f"t{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # At exit, after multiprocessing's own finalizers (priority -100 removes
    # its temp directory, which lives inside ``work``).
    multiprocessing.util.Finalize(None, shutil.rmtree, args=(work, True), exitpriority=-200)
    _use_local_tmp(work)

    try:
        tally = Tally()
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.warm_up(tally)
        setup_main = process_age() - tally.check_s
        if args.setup_only:
            print(f"setup_s {setup_main!r}")
            return 0
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("host " + json.dumps(host_fingerprint()))
        if args.trace:
            metrics, notes = traced_run(args, wl, tally)
            table = layers.PER_LAYER
        else:
            setups = [setup_main] + child_setups(args, tally)
            passes = timed_section(wl, tally, args.seconds)
            metrics, notes = end_to_end(passes, setups, peak_rss_mb())
            table = layers.END_TO_END
        wl.finish(tally)
    finally:
        _stop_processes(work)

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"makespan_digest {args.workload} seed={args.seed}: {tally.digest()} "
          f"({len(tally.makespans)} distinct operations)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, (unit, _better, _what) in table.items():
        note = notes.get(name)
        print(f"metric {name} = {metrics[name]!r} {unit}" + (f"  ({note})" if note else ""))
    name, unit, _what = layers.FAILED_FRAC
    print(f"metric {name} = {failed_frac!r} {unit}  ({tally.failed} of {tally.attempted})")
    for key in ("covered", "split"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    if args.trace:
        for prefix, moves in layers.MOVES.items():
            print(f"moves {prefix}* -> {moves}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": table[n][0]} for n in table},
    }
    OUT.mkdir(exist_ok=True)
    summary = dict(result, notes=notes, problems=tally.problems, host=host_fingerprint(),
                   failed_frac=failed_frac, makespan_digest=tally.digest())
    (OUT / f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
