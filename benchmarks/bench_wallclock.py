#!/usr/bin/env python
"""Same-host wall-clock A/B checks.

``perfbench/run.py`` is the repo's wall-clock benchmark.  This script
keeps only the three checks whose verdict is portable because each
compares two arms timed on the same host, interleaved, best-of-N:

- ``obs_overhead`` — a single-rank heat3d run with and without per-rank
  :class:`repro.obs.Recorder` instances; instrumented over plain must be
  at most ``1 + OBS_OVERHEAD_THRESHOLD``.
- ``threads_vs_processes`` — the 384-rank MPI Kmeans baseline on both
  SPMD backends; processes must not be slower than threads on a host
  with more than one core.
- ``campaign_throughput`` — a small sweep through
  :class:`~repro.campaign.runner.CampaignRunner` against the same specs
  run one ``execute_job`` at a time; batched must not be slower than
  sequential on more than one core, and a warm re-run over a persistent
  store must execute zero jobs.

Each check also asserts its virtual-time contract (obs on/off makespans
equal, backend makespans equal, campaign makespans equal to direct runs)
and raises ``AssertionError`` if it breaks.  The script takes no options::

    PYTHONPATH=src python benchmarks/bench_wallclock.py

It prints a JSON record of every arm's walls with a host fingerprint,
then one ``FAIL`` line per failed gate, and exits 1 if any gate failed.
Absolute walls are a record of this host only and are never gated.
The virtual outputs of the workloads are pinned separately and replayed
exactly by ``tests/integration/test_bench_wallclock.py``.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time

import numpy as np

from repro.apps import heat3d, kmeans
from repro.cluster.presets import ohio_cluster

#: Allowed instrumented-over-uninstrumented wall-clock ratio overhead.
OBS_OVERHEAD_THRESHOLD = 0.05

#: One rank (the engine's inline path) on a grid large enough that the
#: run sits well above the timer noise floor: multi-rank runs carry
#: thread-rendezvous jitter far above 5%, which would make the gate flaky.
OBS_CONFIG = heat3d.Heat3DConfig(functional_shape=(96, 96, 96), simulated_steps=8)

#: The paper-scale per-core MPI baseline: 32 nodes x 12 ranks per node.
BASELINE_NODES = 32
BASELINE_CONFIG = kmeans.KmeansConfig(functional_points=96_000, iterations=2)


def campaign_spec():
    """The campaign A/B sweep: small points, so dispatch dominates."""
    from repro.campaign import CampaignSpec

    return CampaignSpec.from_dict(
        {
            "name": "bench",
            "axes": {
                "app": ["heat3d", "kmeans"],
                "preset": "laptop",
                "mix": "cpu",
                "nodes": [1, 2],
                "seed": [0, 1],
            },
            "app_params": {
                "heat3d": {"functional_shape": [24, 24, 24], "simulated_steps": 2},
                "kmeans": {"functional_points": 20_000, "iterations": 1},
            },
            "backend": None,  # identical engine path in both arms
        }
    )


def _interleaved(repeats: int, **arms):
    """Run every arm once per round for ``repeats`` rounds.

    Interleaving makes machine noise hit all arms alike.  Returns each
    arm's best wall seconds and its last result.
    """
    walls = dict.fromkeys(arms, float("inf"))
    results = {}
    for _ in range(repeats):
        for name, fn in arms.items():
            t0 = time.perf_counter()
            results[name] = fn()
            walls[name] = min(walls[name], time.perf_counter() - t0)
    return walls, results


def check_obs_overhead() -> dict:
    """Instrumented vs uninstrumented heat3d, interleaved best-of-7."""
    from repro.obs import Recorder

    cluster = ohio_cluster(1)
    walls, runs = _interleaved(
        7,
        plain=lambda: heat3d.run(cluster, OBS_CONFIG),
        instrumented=lambda: heat3d.run(cluster, OBS_CONFIG, recorder_factory=Recorder),
    )
    plain, inst = runs["plain"].makespan, runs["instrumented"].makespan
    if inst != plain:
        raise AssertionError(
            f"instrumentation changed the virtual makespan: {plain!r} -> {inst!r}"
        )
    return {
        "plain_wall_s": round(walls["plain"], 4),
        "instrumented_wall_s": round(walls["instrumented"], 4),
        "overhead_ratio": round(walls["instrumented"] / max(walls["plain"], 1e-9), 4),
    }


def check_threads_vs_processes() -> dict:
    """Both SPMD backends on the 384-rank Kmeans baseline, interleaved best-of-3.

    The process backend is forced to at least two workers so the
    cross-process bridge is really measured; on a single-core host that
    shows the bridge's overhead without the parallelism that pays for
    it, so the speed gate applies only with more than one core.
    """
    from repro.apps.baselines import mpi_kmeans

    cluster = ohio_cluster(BASELINE_NODES)
    workers = max(2, os.cpu_count() or 1)
    walls, runs = _interleaved(
        3,
        threads=lambda: mpi_kmeans.run(cluster, BASELINE_CONFIG, backend="threads"),
        processes=lambda: mpi_kmeans.run(
            cluster, BASELINE_CONFIG, backend="processes", workers=workers
        ),
    )
    t_span, p_span = runs["threads"].makespan, runs["processes"].makespan
    if repr(t_span) != repr(p_span):
        raise AssertionError(
            f"backends disagree on the virtual makespan: "
            f"threads {t_span!r} vs processes {p_span!r}"
        )
    return {
        "threads_wall_s": round(walls["threads"], 4),
        "processes_wall_s": round(walls["processes"], 4),
        "speedup": round(walls["threads"] / max(walls["processes"], 1e-9), 4),
        "workers": workers,
    }


def check_campaign_throughput() -> dict:
    """Batched campaign vs sequential ``execute_job``, interleaved best-of-3.

    Then a cold fill and a warm re-run over one persistent store: the
    warm run must be answered entirely from the store.
    """
    from repro.campaign import CampaignRunner
    from repro.serve import execute_job

    campaign = campaign_spec()
    specs = campaign.expand()
    walls, runs = _interleaved(
        3,
        sequential=lambda: [execute_job(spec) for spec in specs],
        batched=lambda: CampaignRunner(campaign, store=None, rank_budget=64).run(),
    )
    batched = runs["batched"]
    if not batched.ok:
        raise AssertionError(f"campaign arm failed: {batched.failures()}")
    seq_spans = [r["makespan"] for r in runs["sequential"]]
    bat_spans = [row["makespan"] for row in batched.rows]
    if repr(seq_spans) != repr(bat_spans):
        raise AssertionError(
            f"campaign makespans drifted from direct execution: "
            f"{seq_spans!r} vs {bat_spans!r}"
        )

    with tempfile.TemporaryDirectory() as store:
        cold = CampaignRunner(campaign, store=store, rank_budget=64).run()
        warm = CampaignRunner(campaign, store=store, rank_budget=64).run()
    if cold.stats["executed"] != len(specs):
        raise AssertionError(
            f"cold campaign executed {cold.stats['executed']} of {len(specs)}"
        )
    return {
        "sequential_wall_s": round(walls["sequential"], 4),
        "batched_wall_s": round(walls["batched"], 4),
        "speedup": round(walls["sequential"] / max(walls["batched"], 1e-9), 4),
        "jobs": len(specs),
        "warm_rerun_executed": warm.stats["executed"],
        "warm_store_hits": warm.stats["store_hits"],
    }


def collect() -> dict:
    return {
        "host": {
            "cpus": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "checks": {
            # The 5%-gated obs check runs before the 384-thread backend A/B
            # so the many-rank churn cannot perturb its measurement.
            "obs_overhead": check_obs_overhead(),
            "threads_vs_processes": check_threads_vs_processes(),
            "campaign_throughput": check_campaign_throughput(),
        },
    }


def gate_failures(record: dict) -> list[str]:
    """The same-host gates over a :func:`collect` record, as failure lines.

    The two speed gates apply only on a host with more than one core:
    with one core the concurrent arm shows its overhead without the
    parallelism that pays for it.
    """
    cpus = record["host"]["cpus"]
    checks = record["checks"]
    failures = []
    obs = checks["obs_overhead"]
    if obs["overhead_ratio"] > 1.0 + OBS_OVERHEAD_THRESHOLD:
        failures.append(
            f"obs_overhead: instrumented run {obs['instrumented_wall_s']}s vs "
            f"{obs['plain_wall_s']}s plain ({obs['overhead_ratio']:.3f}x, "
            f"threshold {1.0 + OBS_OVERHEAD_THRESHOLD:.2f}x)"
        )
    ab = checks["threads_vs_processes"]
    if cpus > 1 and ab["processes_wall_s"] > ab["threads_wall_s"]:
        failures.append(
            f"threads_vs_processes: process backend slower than threads on a "
            f"{cpus}-core host ({ab['processes_wall_s']}s vs "
            f"{ab['threads_wall_s']}s, {ab['speedup']:.2f}x)"
        )
    camp = checks["campaign_throughput"]
    if camp["warm_rerun_executed"] != 0:
        failures.append(
            f"campaign_throughput: warm re-run executed "
            f"{camp['warm_rerun_executed']} job(s); the persistent store "
            "must answer every repeated point"
        )
    if cpus > 1 and camp["batched_wall_s"] > camp["sequential_wall_s"]:
        failures.append(
            f"campaign_throughput: batched campaign slower than sequential "
            f"execution on a {cpus}-core host ({camp['batched_wall_s']}s vs "
            f"{camp['sequential_wall_s']}s, {camp['speedup']:.2f}x)"
        )
    return failures


def main() -> int:
    record = collect()
    print(json.dumps(record, indent=2))
    if record["host"]["cpus"] <= 1:
        print("SKIP speed gates: single-core host (speedups recorded, not gated)")
    failures = gate_failures(record)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
