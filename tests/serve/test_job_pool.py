"""The warm job pool: pooled results equal in-process ones, failures stay put.

Jobs run as a whole in worker processes (:mod:`repro.serve.jobpool`).
These tests pin the contracts that move makes: a pooled job's payload is
the in-process payload (repr-equal makespans, equal digests and fault
statistics), a worker that dies fails only its own job and is replaced,
``shutdown_pool()`` leaves no job worker alive, and the scheduler's
lifecycle timings cover pooled jobs but never cache hits.  The pools here
are private two-worker pools, so every test exercises worker processes on
any host.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

import repro.serve.jobpool as jobpool
import repro.serve.scheduler as scheduler_mod
from repro.faults import FaultPlan, RankCrash
from repro.serve.cache import ResultCache
from repro.serve.jobpool import JobPool, RemoteJobError, WorkerDiedError, run_job
from repro.serve.scheduler import JobScheduler
from repro.serve.spec import JobSpec, execute_job, served_app_names
from repro.sim.procpool import shutdown_pool

#: Small configs per served app (jacobi2d's quick config is already small).
_SMALL = {
    "heat3d": {"functional_shape": [10, 10, 10], "simulated_steps": 2},
    "kmeans": {"functional_points": 500, "iterations": 1},
    "moldyn": {"functional_nodes": 300, "simulated_steps": 2},
    "minimd": {"functional_cells": 3, "simulated_steps": 2},
    "sobel": {"functional_shape": [32, 32], "simulated_steps": 2},
    "jacobi2d": {},
}


def _app_spec(app: str) -> JobSpec:
    return JobSpec(app=app, nodes=2, preset="laptop", mix="cpu", params=dict(_SMALL[app]))


def _lossy_spec() -> JobSpec:
    plan = FaultPlan.lossy(
        seed=3, drop=0.1, dup=0.01, delay=0.02, max_delay=1e-4,
        crashes=[RankCrash(rank=1, at_time=0.05, restart_cost=0.5)],
    )
    return JobSpec(
        app="heat3d", nodes=2, preset="laptop", mix="cpu",
        params={"functional_shape": [12, 12, 12], "simulated_steps": 4, "seed": 3},
        options={"reliable": True, "checkpoint_every": 2},
        fault_plan=plan.to_dict(),
    )


@pytest.fixture(scope="module")
def pool():
    p = JobPool(2)
    yield p
    p.shutdown()


@pytest.fixture
def pooled_scheduler(pool, monkeypatch):
    """A default-executor scheduler whose jobs run on the private pool."""
    monkeypatch.setattr(scheduler_mod, "job_pool", lambda: pool)
    scheduler = JobScheduler(rank_budget=8, cache=ResultCache(16))
    assert scheduler.pooled
    yield scheduler
    scheduler.shutdown()


@pytest.mark.parametrize(
    "spec",
    [_app_spec(app) for app in served_app_names()] + [_lossy_spec()],
    ids=served_app_names() + ["heat3d-lossy"],
)
def test_pooled_payload_equals_in_process(pool, spec):
    pooled, exec_s = pool.submit(run_job, spec).result(timeout=120)
    direct = execute_job(spec)
    assert exec_s > 0
    assert repr(pooled["makespan"]) == repr(direct["makespan"])
    assert pooled["result_digest"] == direct["result_digest"]
    assert pooled["fault_stats"] == direct["fault_stats"]
    if spec.fault_plan is not None:
        assert pooled["fault_stats"]["drops"] > 0
        assert pooled["fault_stats"]["crashes_consumed"] == 1


def test_concurrent_pooled_jobs_match_direct(pooled_scheduler):
    specs = [_app_spec(app) for app in ("heat3d", "kmeans", "sobel")] + [_lossy_spec()]
    jobs = [pooled_scheduler.submit(spec) for spec in specs]
    for spec, job in zip(specs, jobs):
        done = pooled_scheduler.wait(job.id, timeout=120)
        assert done.state == "done", done.error
        assert repr(done.result["makespan"]) == repr(execute_job(spec)["makespan"])


def test_task_error_names_its_type(pool):
    future = pool.submit(int, "not a number")
    with pytest.raises(RemoteJobError, match=r"^ValueError: invalid literal"):
        future.result(timeout=60)


def test_concurrent_submitters_lose_no_task():
    # More workers than cores, several submitting threads, frequent thread
    # switches: every task settles exactly once with its own result.
    pool = JobPool(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batches: list[list] = [[] for _ in range(4)]

        def submit_range(k: int) -> None:
            batches[k] = [(i, pool.submit(abs, -i)) for i in range(k * 50, k * 50 + 50)]

        threads = [threading.Thread(target=submit_range, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        futures = [entry for batch in batches for entry in batch]
        assert sorted(f.result(timeout=60) for _, f in futures) == list(range(200))
        assert all(f.result() == i for i, f in futures)
        stats = pool.stats()
        assert stats["completed"] == 200 and stats["queued"] == 0 and stats["busy"] == 0
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


def test_dead_worker_fails_only_its_task_and_is_replaced():
    pool = JobPool(2)
    try:
        survivor = pool.submit(time.sleep, 0.5)  # occupies one worker
        doomed = pool.submit(os._exit, 3)  # kills the other
        with pytest.raises(WorkerDiedError, match=r"died mid-job \(exit code 3\)"):
            doomed.result(timeout=60)
        assert survivor.result(timeout=60) is None
        # Two tasks at once need two workers again: the dead one is replaced.
        pair = [pool.submit(time.sleep, 0.2) for _ in range(2)]
        assert [f.result(timeout=60) for f in pair] == [None, None]
        stats = pool.stats()
        assert stats["died"] == 1 and stats["spawned"] == 3 and stats["workers"] == 2
        payload, _ = pool.submit(run_job, _app_spec("heat3d")).result(timeout=120)
        assert payload["makespan"] > 0
    finally:
        pool.shutdown()


def test_scheduler_job_on_dead_worker_fails_and_next_completes(pool, pooled_scheduler):
    submit = pool.submit
    pool.submit = lambda fn, arg: submit(os._exit, 9)  # the job's worker dies
    try:
        doomed = pooled_scheduler.submit(_app_spec("heat3d"))
        doomed = pooled_scheduler.wait(doomed.id, timeout=60)
    finally:
        del pool.submit
    assert doomed.state == "failed"
    assert doomed.error.startswith("WorkerDiedError: ") and "died mid-job" in doomed.error
    nxt = pooled_scheduler.submit(_app_spec("kmeans"))
    nxt = pooled_scheduler.wait(nxt.id, timeout=120)
    assert nxt.state == "done", nxt.error
    assert pooled_scheduler.stats()["ranks_in_use"] == 0


def test_shutdown_pool_stops_every_job_worker(monkeypatch):
    others = multiprocessing.active_children()
    pool = JobPool(2)
    monkeypatch.setattr(jobpool, "_pool", pool)  # the pool shutdown_pool() stops
    idle = pool.submit(abs, -1)
    busy = pool.submit(time.sleep, 30)
    assert idle.result(timeout=60) == 1
    deadline = time.monotonic() + 30
    while pool.stats()["busy"] == 0:
        assert time.monotonic() < deadline, "the sleeping task never started"
        time.sleep(0.01)
    procs = [p for p in multiprocessing.active_children() if p not in others]
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    shutdown_pool()
    assert not any(p.is_alive() for p in procs)
    assert pool.stats()["workers"] == 0
    with pytest.raises(Exception, match="shutdown"):
        busy.result(timeout=10)


def test_lifecycle_timings_on_pooled_jobs_only(pooled_scheduler):
    spec = _app_spec("sobel")
    job = pooled_scheduler.wait(pooled_scheduler.submit(spec).id, timeout=120)
    assert job.state == "done", job.error
    view = job.describe()
    for name in ("queue_wait_s", "exec_s", "store_put_s"):
        assert isinstance(view[name], float) and view[name] >= 0, name
    assert job.exec_s > 0
    for name in ("queue_wait_s", "exec_s", "store_put_s"):
        assert name not in job.result  # never part of the stored payload
    hit = pooled_scheduler.submit(spec)
    assert hit.cached
    assert hit.queue_wait_s is hit.exec_s is hit.store_put_s is None
    lifecycle = pooled_scheduler.stats()["lifecycle"]
    assert lifecycle["jobs"] == 1
    assert lifecycle["p50"]["exec_s"] == job.exec_s


def test_one_cpu_host_runs_jobs_in_process(monkeypatch):
    monkeypatch.setattr(jobpool.os, "cpu_count", lambda: 1)
    assert jobpool.job_pool() is None
    scheduler = JobScheduler(rank_budget=4)
    try:
        assert not scheduler.pooled
        spec = _app_spec("heat3d")
        job = scheduler.wait(scheduler.submit(spec).id, timeout=120)
        assert job.state == "done", job.error
        assert job.exec_s > 0
        assert repr(job.result["makespan"]) == repr(execute_job(spec)["makespan"])
        assert scheduler.stats()["job_pool"] is None
    finally:
        scheduler.shutdown()

