"""Metric definitions: what the benchmark reports, in which unit, and why.

``END_TO_END`` and ``PER_LAYER`` are the single source of truth for metric
names, units and directions; ``BENCHMARK.json`` at the repository root
mirrors them (a self-test keeps the two in step).  ``MOVES`` records,
before any optimisation is measured, which end-to-end metric each layer
metric should move and on which workload.
"""

from __future__ import annotations

#: name -> (unit, better, definition).  Every workload reports every one.
END_TO_END: dict[str, tuple[str, str, str]] = {
    "setup_s": (
        "s",
        "lower",
        "interpreter start to the first timed operation: imports, pool warm-up, "
        "dataset memo fill and one untimed warm-up operation, oracle work "
        "excluded; median over three set-ups (this process plus two fresh ones)",
    ),
    "runs_per_s": (
        "1/s",
        "higher",
        "operations completed per wall second, median over repetitions; an "
        "operation is one simulated app run, or on campaign one resolved point",
    ),
    "run_wall_s.p50": (
        "s",
        "lower",
        "median wall time of one run() call (an app run on apps_sweep and "
        "ranks384, a CampaignRunner.run() pass on campaign): the median over "
        "repetitions of each repetition's median",
    ),
    "run_wall_s.tail": (
        "s",
        "lower",
        "highest percentile of the run() walls with at least ten samples beyond "
        "it (the maximum when there are fewer than eleven); percentile and "
        "sample count are printed beside it",
    ),
    "cold_pass_s": (
        "s",
        "lower",
        "median wall of a pass that starts with empty caches: on campaign a fresh "
        "on-disk ResultStore, so every point executes; on apps_sweep and "
        "ranks384 an emptied dataset memo",
    ),
    "extend_pass_s": (
        "s",
        "lower",
        "median wall of the pass that follows over warm caches: on campaign the "
        "extending sweep (half its points from the store, half executed); on "
        "apps_sweep and ranks384 the same operations with the memo warm",
    ),
    "peak_rss_mb": (
        "MB",
        "lower",
        "peak resident set of the benchmark process plus its live worker processes",
    ),
}

#: Printed beside the end-to-end metrics but carried in the result's
#: ``failed``/``attempted`` fields: it reads 0 on a correct run, so it
#: cannot be bounded as a share of its own median.
FAILED_FRAC = ("failed_frac", "ratio", "failed or wrong operations / attempted")

#: name -> (unit, better, definition).  Reported by the traced run.  Times
#: are thread CPU seconds ("self": minus same-thread child spans) unless the
#: definition says wall: rank threads queue for the interpreter lock, and
#: wall time would bill that queueing to whatever layer a thread was in.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "data.gen_calls": ("count", "lower", "calls into repro.data input generators"),
    "data.gen_s": ("s", "lower", "self CPU in repro.data input generators"),
    "data.points_memo_hit_ratio": (
        "ratio", "higher", "clustered_points memo hits / lookups (points_cache_stats)"),
    "apps.kernel_calls": (
        "count", "lower", "calls of the callables the apps' kernel factories return"),
    "apps.kernel_s": ("s", "lower", "self CPU in those kernel callables"),
    "core.stencil.step_calls": ("count", "lower", "StencilRuntime.step() and run() calls"),
    "core.stencil.step_s": ("s", "lower", "self CPU of StencilRuntime.step() and run()"),
    "core.stencil.speculation_cancel_ratio": (
        "ratio", "lower", "cancel_begun_step calls / begin_step_early calls"),
    "core.stencil_reduce.run_until_s": (
        "s", "lower", "self CPU of StencilReduceRuntime.run_until()"),
    "core.irregular.start_calls": ("count", "lower", "IrregularReductionRuntime.start() calls"),
    "core.irregular.start_s": ("s", "lower", "self CPU of IrregularReductionRuntime.start()"),
    "core.generalized.start_s": (
        "s", "lower", "self CPU of GeneralizedReductionRuntime.start()"),
    "core.generalized.global_reduction_s": (
        "s", "lower", "self CPU of GeneralizedReductionRuntime.get_global_reduction()"),
    "core.reduction_object.insert_many_calls": (
        "count", "lower", "Dense/HashReductionObject.insert_many() calls"),
    "core.reduction_object.insert_many_s": (
        "s", "lower", "self CPU of Dense/HashReductionObject.insert_many()"),
    "core.checkpoint.s": (
        "s", "lower", "self CPU of CheckpointManager.run_iterations()/run_convergence()"),
    "device.charge_calls": (
        "count", "lower",
        "elem_time/kernel_time/submit_chunk/transfer_time calls on CPU and GPU devices"),
    "device.charge_s": ("s", "lower", "self CPU of those cost-model calls"),
    "comm.msgs": ("count", "lower", "point-to-point sends through SimComm.send"),
    "comm.bytes_computed": (
        "bytes", "lower", "bytes sent, computed from the sent arrays' sizes (not measured)"),
    "comm.send_s": ("s", "lower", "CPU in SimComm.send, children included"),
    "comm.recv_wait_s": (
        "s", "lower", "wall time in Fabric.match calls that found no message queued: "
        "blocked waiting on other ranks"),
    "comm.collective_calls": ("count", "lower", "outermost SimComm collective calls"),
    "comm.collective_s": ("s", "lower", "CPU in outermost collectives, children included"),
    "comm.fabric.transmit_calls": ("count", "lower", "Fabric.transmit calls"),
    "comm.fabric.match_calls": ("count", "lower", "Fabric.match calls"),
    "comm.fabric.match_s": ("s", "lower", "CPU in Fabric.match"),
    "faults.drops": ("count", "lower", "messages dropped, from executed jobs' fault_stats"),
    "faults.crashes_consumed": (
        "count", "lower", "rank crashes consumed, from executed jobs' fault_stats"),
    "sim.spmd_runs": ("count", "lower", "spmd_run calls"),
    "sim.launch_s": (
        "s", "lower",
        "wall: sum over in-process spmd_run calls of the call minus its slowest rank program"),
    "sim.rank_skew_s": (
        "s", "lower",
        "wall: sum over in-process spmd_run calls of slowest minus median rank program"),
    "sim.rank_threads_spawned": (
        "count", "lower", "rank threads the process-wide pool has spawned, set-up included"),
    "sim.procpool.workers_spawned": (
        "count", "lower", "worker processes the process-wide pool has spawned, set-up included"),
    "serve.execute_job_calls": ("count", "lower", "execute_job calls"),
    "serve.execute_job_s": ("s", "lower", "wall in execute_job, summed over jobs"),
    "serve.queue_wait_s.p50": (
        "s", "lower", "wall: median started_at - submitted_at of executed jobs (Job stamps)"),
    "serve.admission_s": ("s", "lower", "self CPU of JobScheduler.submit"),
    "serve.cache_hit_ratio": ("ratio", "higher", "ResultCache.get hits / calls"),
    "serve.store.get_calls": ("count", "lower", "ResultStore.get calls"),
    "serve.store.get_s": ("s", "lower", "CPU in ResultStore.get"),
    "serve.store.put_calls": ("count", "lower", "ResultStore.put calls"),
    "serve.store.put_s": ("s", "lower", "CPU in ResultStore.put"),
    "serve.store.bytes_written": ("bytes", "lower", "size of the entries ResultStore.put wrote"),
    "serve.rank_utilization": (
        "ratio", "higher", "median over passes of the scheduler's average rank-budget use"),
    "serve.jobs_failed": ("count", "lower", "campaign rows not in state done"),
    "campaign.expand_s": ("s", "lower", "CPU in CampaignSpec.expand"),
    "campaign.prewarm_s": ("s", "lower", "CPU in prewarm_datasets"),
    "campaign.dedup_ratio": ("ratio", "higher", "deduplicated points / points"),
    "layer.data.self_s": ("s", "lower", "self CPU of every data span"),
    "layer.apps.self_s": (
        "s", "lower", "self CPU of every apps span: kernels and rank-program code"),
    "layer.core.self_s": ("s", "lower", "self CPU of every core span"),
    "layer.device.self_s": ("s", "lower", "self CPU of every device span"),
    "layer.comm.self_s": ("s", "lower", "self CPU of every comm span"),
    "layer.sim.self_s": ("s", "lower", "self CPU of every sim span"),
    "layer.serve.self_s": ("s", "lower", "self CPU of every serve span"),
    "layer.campaign.self_s": ("s", "lower", "self CPU of every campaign span"),
    "trace.spans": ("count", "lower", "spans recorded by the traced section"),
    "trace.untraced_runs_per_s": (
        "1/s", "higher", "runs_per_s of the untraced half of the traced run"),
    "trace.traced_runs_per_s": ("1/s", "higher", "runs_per_s of the traced half"),
    "trace.overhead_ratio": (
        "ratio", "lower", "untraced / traced runs_per_s: the cost of the wrappers"),
}

#: Layer-metric prefix -> the end-to-end metrics and workloads it should move.
MOVES: dict[str, str] = {
    "data.": "setup_s and run_wall_s.p50 on apps_sweep; cold_pass_s on campaign",
    "apps.": "runs_per_s and run_wall_s.p50 on apps_sweep",
    "core.": "run_wall_s.p50 on apps_sweep",
    "device.": "run_wall_s.p50 on apps_sweep",
    "comm.": "runs_per_s and run_wall_s.tail on ranks384",
    "faults.": "cold_pass_s on campaign",
    "sim.": "run_wall_s.tail and setup_s on ranks384; setup_s on campaign",
    "serve.": "cold_pass_s (execution, puts) and extend_pass_s (gets, hit ratio) on campaign",
    "campaign.": "cold_pass_s and extend_pass_s on campaign",
    "layer.": "the self-time split behind every end-to-end metric",
    "trace.": "none: the tracing overhead itself",
}

#: Layers whose wrappers each workload's traced run installs.  On campaign
#: the rank-level layers run in worker processes, out of reach.
TRACED_LAYERS: dict[str, tuple[str, ...]] = {
    "apps_sweep": ("data", "apps", "core", "device", "comm", "sim"),
    "ranks384": ("data", "apps", "core", "device", "comm", "sim"),
    "campaign": ("data", "sim", "serve", "campaign"),
}
