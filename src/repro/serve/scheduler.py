"""Concurrent job scheduler: priority queues, rank budgets, admission control.

The scheduler owns the server's concurrency policy:

- **Admission control.**  Every job costs ``spec.ranks`` rank threads (one
  per simulated node).  A job that could *never* fit — more ranks than the
  whole budget — is rejected at submission (:class:`AdmissionError`); a job
  that merely doesn't fit *right now* is queued.  The running set's
  aggregate rank cost never exceeds ``rank_budget``, which bounds how many
  rank threads the shared :class:`~repro.sim.engine._RankThreadPool` is
  asked to hold live at once.
- **Priority queue.**  Higher ``spec.priority`` dispatches first; ties
  break in submission order.  Dispatch is *first-fit in priority order*: if
  the highest-priority job doesn't fit the remaining budget, a smaller,
  lower-priority job may start ahead of it (no head-of-line blocking behind
  wide jobs; wide jobs still win as soon as the budget drains).
- **Anti-starvation aging.**  Pure first-fit backfill can starve a wide
  high-priority job forever: it fits the *total* budget but a steady
  stream of narrow jobs keeps the *instantaneous* remainder too small.
  Every time a queued job is jumped by a later-ordered job that fits, its
  ``passed_over`` count ages; once it reaches ``starvation_limit`` the
  dispatcher reserves the budget for it — nothing ordered behind it starts
  until the running set drains enough for it to fit.
- **Result cache.**  Submission consults the content-addressed
  :class:`~repro.serve.cache.ResultCache` first; a hit completes the job
  instantly (``cached=True``) without touching the queue.  With a
  persistent :class:`~repro.serve.store.ResultStore` layered beneath the
  cache, hits survive server restarts.
- **Batch submission.**  :meth:`JobScheduler.submit_many` admits a whole
  spec list in one call, returning a per-spec outcome (job, cached result,
  or admission error) without failing the rest of the batch — the
  round-trip shape campaigns need.

- **Job lifecycle timings.**  Every executed job records its queue wait
  (submission to dispatch), its execution wall (measured where it ran)
  and the seconds its result took to write through the cache and store.
  They appear in :meth:`Job.describe` and, as medians, under ``stats()``
  -> ``"lifecycle"``; they never enter the result payload, so stored
  entries stay byte-identical.

Execution: by default each dispatched job runs as a whole in the
process-wide warm :mod:`~repro.serve.jobpool` of worker processes, its
ranks on threads there; a completion callback settles the job and writes
its result through the cache in this process.  On a one-CPU host, or with
a custom ``executor`` callable (tests), each job runs in-process on its
own daemon thread instead, which is safe because
:func:`~repro.sim.engine.spmd_run` is re-entrant — concurrent runs only
share lock-protected pools.  Either way a job holds its ranks from
dispatch to completion, so the rank budget bounds jobs in flight.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
import uuid
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.serve.cache import ResultCache
from repro.serve.jobpool import RemoteJobError, job_pool, run_job
from repro.serve.spec import JobSpec, execute_job
from repro.util.errors import ValidationError


class AdmissionError(ValidationError):
    """The scheduler refused a job at submission time."""


#: Terminal job states (no further transitions).
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted job and everything the API reports about it."""

    id: str
    spec: JobSpec
    spec_hash: str
    seq: int
    state: str = "queued"  # queued | running | done | failed | cancelled
    cached: bool = False
    result: dict[str, Any] | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    passed_over: int = 0  # dispatches that jumped this job while queued
    # Lifecycle timings of an executed job (None for cache hits).
    queue_wait_s: float | None = None  # submission to dispatch
    exec_s: float | None = None  # execution wall, where the job ran
    store_put_s: float | None = None  # result write-through to cache and store

    @property
    def ranks(self) -> int:
        return self.spec.ranks

    def describe(self, *, with_spec: bool = True) -> dict[str, Any]:
        """JSON-able status view (results are fetched separately)."""
        out = {
            "id": self.id,
            "app": self.spec.app,
            "state": self.state,
            "priority": self.spec.priority,
            "ranks": self.ranks,
            "cached": self.cached,
            "spec_hash": self.spec_hash,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_s": self.queue_wait_s,
            "exec_s": self.exec_s,
            "store_put_s": self.store_put_s,
        }
        if with_spec:
            out["spec"] = self.spec.to_dict()
        if self.result is not None:
            out["makespan"] = self.result.get("makespan")
        return out


def _error_text(exc: BaseException) -> str:
    """``"Type: message"``, as the job saw it wherever it ran."""
    if isinstance(exc, RemoteJobError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


class JobScheduler:
    """Run jobs concurrently on the warm job pool, within a rank budget."""

    def __init__(
        self,
        executor: Callable[[JobSpec], dict[str, Any]] | None = None,
        *,
        rank_budget: int = 64,
        cache: ResultCache | None = None,
        max_queued: int = 1024,
        starvation_limit: int = 4,
    ) -> None:
        if rank_budget < 1:
            raise ValidationError(f"rank_budget must be >= 1, got {rank_budget}")
        if max_queued < 0:
            raise ValidationError(f"max_queued must be >= 0, got {max_queued}")
        if starvation_limit < 1:
            raise ValidationError(
                f"starvation_limit must be >= 1, got {starvation_limit}"
            )
        self.rank_budget = rank_budget
        self.max_queued = max_queued
        self.starvation_limit = starvation_limit
        self.cache = cache if cache is not None else ResultCache()
        self._executor = executor
        # None: jobs run in-process (custom executor, or a one-CPU host).
        self._pool = job_pool() if executor is None else None
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._queue: list[Job] = []  # queued jobs, submission order
        self._ranks_in_use = 0
        self._seq = 0
        self._executed = 0
        self._cache_hits = 0
        self._batches = 0
        self._pass_overs = 0
        self._reservations = 0
        # Rank-budget utilization: integral of ranks_in_use over wall time.
        self._util_started = time.monotonic()
        self._util_marked = self._util_started
        self._busy_rank_seconds = 0.0
        self._shutdown = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def _change_ranks_locked(self, delta: int) -> None:
        """Adjust ``_ranks_in_use``, accruing the utilization integral."""
        now = time.monotonic()
        self._busy_rank_seconds += (now - self._util_marked) * self._ranks_in_use
        self._util_marked = now
        self._ranks_in_use += delta

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admit one job: cache hit, queue it, or raise :class:`AdmissionError`."""
        if spec.ranks > self.rank_budget:
            raise AdmissionError(
                f"job needs {spec.ranks} ranks but the server's budget is "
                f"{self.rank_budget}; it can never be scheduled"
            )
        spec_hash = spec.content_hash()
        # Outside the lock: a store fall-through is a disk read.
        cached = self.cache.get(spec_hash)
        with self._cond:
            if self._shutdown:
                raise AdmissionError("scheduler is shut down")
            self._seq += 1
            job = Job(
                id=f"j{self._seq:05d}-{uuid.uuid4().hex[:6]}",
                spec=spec,
                spec_hash=spec_hash,
                seq=self._seq,
            )
            if cached is not None:
                now = time.time()
                job.state = "done"
                job.cached = True
                job.result = cached
                job.started_at = now
                job.finished_at = now
                self._cache_hits += 1
                self._jobs[job.id] = job
                self._cond.notify_all()
                return job
            if len(self._queue) >= self.max_queued:
                raise AdmissionError(
                    f"queue is full ({self.max_queued} jobs waiting); retry later"
                )
            self._jobs[job.id] = job
            self._queue.append(job)
            self._cond.notify_all()
        return job

    def submit_many(self, specs: list[JobSpec]) -> list[dict[str, Any]]:
        """Admit a whole batch; per-spec outcomes, no all-or-nothing.

        Returns one entry per spec, in order:

        - ``{"ok": True, "job": Job}`` — admitted (possibly already done
          via the result cache/store; check ``job.cached``), or
        - ``{"ok": False, "error": str}`` — this spec was refused
          (over-budget forever, queue full, scheduler shut down) without
          affecting the rest of the batch.
        """
        out: list[dict[str, Any]] = []
        for spec in specs:
            try:
                out.append({"ok": True, "job": self.submit(spec)})
            except AdmissionError as exc:
                out.append({"ok": False, "error": str(exc)})
        with self._cond:
            self._batches += 1
        return out

    # -- dispatch ---------------------------------------------------------
    def _pick_locked(self) -> Job | None:
        """Best queued job that fits the remaining budget (first fit in
        priority order), or None.

        First fit is tempered by aging: walking the queue best-first, a
        job that doesn't fit is normally jumped (and its ``passed_over``
        aged — only when the walk really dispatches someone later), but a
        job that has already been jumped ``starvation_limit`` times closes
        the gate: nothing ordered behind it dispatches until the running
        set drains enough for it to fit.  That reserves the freed budget
        for the starved job instead of letting backfill nibble it away.
        """
        available = self.rank_budget - self._ranks_in_use
        skipped: list[Job] = []
        for job in sorted(self._queue, key=lambda j: (-j.spec.priority, j.seq)):
            if job.ranks <= available:
                if skipped:
                    self._pass_overs += len(skipped)
                    for jumped in skipped:
                        jumped.passed_over += 1
                return job
            if job.passed_over >= self.starvation_limit:
                # Budget reservation: this job has waited long enough.
                self._reservations += 1
                return None
            skipped.append(job)
        return None

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                job = self._pick_locked()
                while job is None and not self._shutdown:
                    self._cond.wait()
                    job = self._pick_locked()
                if job is None:  # shutdown with nothing dispatchable
                    return
                self._queue.remove(job)
                job.state = "running"
                job.started_at = time.time()
                job.queue_wait_s = job.started_at - job.submitted_at
                self._change_ranks_locked(job.ranks)
            self._launch(job)

    @property
    def pooled(self) -> bool:
        """Whether jobs run on the process-wide job pool (else in-process)."""
        return self._pool is not None

    def _launch(self, job: Job) -> None:
        if self._pool is None:
            threading.Thread(
                target=self._run_inline, args=(job,), name=f"serve-{job.id}", daemon=True
            ).start()
            return
        try:
            future = self._pool.submit(run_job, job.spec)
        except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable spec
            self._finish(job, error=_error_text(exc))
            return
        future.add_done_callback(functools.partial(self._pooled_done, job))

    def _run_inline(self, job: Job) -> None:
        executor = self._executor if self._executor is not None else execute_job
        t0 = time.perf_counter()
        try:
            result = executor(job.spec)
        except BaseException as exc:  # noqa: BLE001 - job failures are data
            self._finish(job, error=_error_text(exc))
        else:
            self._finish(job, result=result, exec_s=time.perf_counter() - t0)

    def _pooled_done(self, job: Job, future: Future) -> None:
        try:
            result, exec_s = future.result()
        except Exception as exc:  # noqa: BLE001 - job failures are data
            self._finish(job, error=_error_text(exc))
        else:
            self._finish(job, result=result, exec_s=exec_s)

    def _finish(
        self,
        job: Job,
        *,
        result: dict[str, Any] | None = None,
        exec_s: float | None = None,
        error: str | None = None,
    ) -> None:
        """Settle a running job: write its result through, free its ranks."""
        put_s = None
        if error is None:
            t0 = time.perf_counter()
            try:
                self.cache.put(job.spec_hash, result)
            except Exception as exc:  # noqa: BLE001 - a failed write fails the job
                error = f"result write failed: {_error_text(exc)}"
            put_s = time.perf_counter() - t0
        with self._cond:
            job.exec_s = exec_s
            if error is None:
                job.result = result
                job.store_put_s = put_s
                job.state = "done"
            else:
                job.error = error
                job.state = "failed"
            job.finished_at = time.time()
            self._change_ranks_locked(-job.ranks)
            self._executed += 1
            self._cond.notify_all()

    # -- queries ----------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def jobs(self) -> list[Job]:
        """All known jobs, in submission order."""
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def wait(self, job_id: str, timeout: float = 120.0) -> Job:
        """Block until ``job_id`` reaches a terminal state (or time out)."""
        job = self.get(job_id)
        deadline = time.monotonic() + timeout
        with self._cond:
            while job.state not in TERMINAL_STATES:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state} after {timeout}s"
                    )
                self._cond.wait(timeout=left)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job.  Running/terminal jobs return False —
        a running SPMD program has no safe preemption point."""
        job = self.get(job_id)
        with self._cond:
            if job.state != "queued":
                return False
            self._queue.remove(job)
            job.state = "cancelled"
            job.finished_at = time.time()
            self._cond.notify_all()
            return True

    def stats(self) -> dict[str, Any]:
        with self._cond:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            now = time.monotonic()
            elapsed = max(now - self._util_started, 1e-9)
            busy = self._busy_rank_seconds + (now - self._util_marked) * self._ranks_in_use
            counters = {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "queued": len(self._queue),
                "ranks_in_use": self._ranks_in_use,
                "rank_budget": self.rank_budget,
                "executed": self._executed,
                "cache_hits": self._cache_hits,
                "batches": self._batches,
                "fairness": {
                    "starvation_limit": self.starvation_limit,
                    "pass_overs": self._pass_overs,
                    "reservations": self._reservations,
                    "max_queued_passed_over": max(
                        (j.passed_over for j in self._queue), default=0
                    ),
                },
                "lifecycle": self._lifecycle_locked(),
                "utilization": {
                    "ranks_in_use": self._ranks_in_use,
                    "rank_budget": self.rank_budget,
                    "instantaneous": self._ranks_in_use / self.rank_budget,
                    "busy_rank_seconds": busy,
                    "elapsed_s": elapsed,
                    "average": busy / (elapsed * self.rank_budget),
                },
            }
        counters["cache"] = self.cache.stats()
        counters["job_pool"] = None if self._pool is None else self._pool.stats()
        return counters

    def _lifecycle_locked(self) -> dict[str, Any]:
        """Medians of the executed jobs' lifecycle timings."""
        done = [j for j in self._jobs.values() if j.state == "done" and not j.cached]
        p50 = {}
        for name in ("queue_wait_s", "exec_s", "store_put_s"):
            values = [getattr(j, name) for j in done]
            p50[name] = statistics.median(values) if values else None
        return {"jobs": len(done), "p50": p50}

    def shutdown(self, *, wait_running: float = 0.0) -> None:
        """Stop dispatching; queued jobs are cancelled.

        ``wait_running`` gives in-flight jobs that many wall-clock seconds
        to finish (they keep running on the job pool or on daemon threads
        either way; the job pool itself is process-wide and stays warm).
        """
        with self._cond:
            self._shutdown = True
            for job in self._queue:
                job.state = "cancelled"
                job.finished_at = time.time()
            self._queue.clear()
            self._cond.notify_all()
        self._dispatcher.join(timeout=5.0)
        if wait_running > 0:
            deadline = time.monotonic() + wait_running
            with self._cond:
                while self._ranks_in_use > 0 and time.monotonic() < deadline:
                    self._cond.wait(timeout=max(0.0, deadline - time.monotonic()))
