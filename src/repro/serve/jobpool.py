"""Warm pool of job worker processes: whole jobs run off the parent's GIL.

Campaign and serve jobs are independent, and :func:`run_job` is a pure
function from a :class:`~repro.serve.spec.JobSpec` to a JSON-able payload,
so the scheduler runs each dispatched job as a whole in a worker process
instead of on a GIL-bound thread of its own process.  Job-level
parallelism replaces rank-level parallelism here: inside a worker the
job's ranks always run on the threads backend, so the rank-level worker
pool of :mod:`repro.sim.procpool` is never nested inside a job worker.

- **Warm and process-wide.**  One pool of ``os.cpu_count()`` workers,
  started on demand from the forkserver context and reused by every
  scheduler in the process; a worker pays its imports once, on its first
  job.  Hosts with one CPU get no pool (:func:`job_pool` returns None) and
  the scheduler runs jobs in-process, mirroring the rank-level pool's
  single-worker fallback.
- **By reference.**  A task is a module-level function plus its argument,
  pickled together; the worker imports the function itself.  Nothing of
  the parent's state travels, so wrappers installed around the parent's
  functions (tracers, test doubles) neither break nor follow the task.
- **One pipe and one feeder thread per worker.**  The feeder hands its
  worker one queued task at a time and settles the task's
  :class:`~concurrent.futures.Future` when the reply arrives; the future's
  callbacks (result-store writes) run on that thread.
- **Failure isolation.**  A task that raises fails with
  :class:`RemoteJobError`.  A worker that dies fails only the task it was
  running, with :class:`WorkerDiedError`; the next queued task starts a
  replacement.
- **Shutdown.**  :func:`repro.sim.procpool.shutdown_pool` stops these
  workers along with the rank-level ones.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import Connection
from typing import Any, Callable

from repro.sim.procpool import register_pool_shutdown, worker_context
from repro.util.errors import CommunicationError


class RemoteJobError(Exception):
    """A task raised in its worker; ``str()`` is the worker's ``"Type: message"``."""


class WorkerDiedError(CommunicationError):
    """The worker process running a task exited before replying."""


def run_job(spec: Any) -> tuple[dict[str, Any], float]:
    """Worker-side entry point: execute one job with its ranks on threads.

    Returns the :func:`~repro.serve.spec.execute_job` payload and the wall
    seconds the execution took inside the worker.  The backend is not part
    of a job's identity (virtual makespans are backend-invariant), so
    forcing threads never changes a result.
    """
    from repro.serve.spec import execute_job

    if spec.backend != "threads":
        spec = dataclasses.replace(spec, backend="threads")
    t0 = time.perf_counter()
    payload = execute_job(spec)
    return payload, time.perf_counter() - t0


def _worker_main(conn: Connection) -> None:  # pragma: no cover - runs in workers
    """Worker loop: run pickled ``(fn, arg)`` tasks until the pipe closes."""
    # Ctrl-C belongs to the parent, which stops the pool.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            fn, arg = pickle.loads(blob)
            reply = (True, fn(arg))
        except Exception as exc:  # noqa: BLE001 - job failures are data
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 - pickling fails before any byte is sent
            conn.send((False, f"{type(exc).__name__}: job result could not be sent: {exc}"))


class _Task:
    __slots__ = ("blob", "future")

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.future: Future = Future()


class _Worker:
    __slots__ = ("slot", "process", "conn", "feeder", "busy", "stopping")

    def __init__(self, slot: int, process: Any, conn: Connection) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.feeder: threading.Thread | None = None
        self.busy = False
        self.stopping = False


class JobPool:
    """Process-wide pool of job workers fed from one parent-side queue."""

    def __init__(self, nworkers: int) -> None:
        self.nworkers = nworkers
        self._cond = threading.Condition()
        self._tasks: deque[_Task] = deque()
        self._workers: list[_Worker] = []
        self._idle = 0
        self._next_slot = 0
        self.spawned = 0
        self.died = 0
        self.completed = 0

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> Future:
        """Queue ``fn(arg)`` for a worker; ``fn`` must be module-level."""
        task = _Task(pickle.dumps((fn, arg), protocol=pickle.HIGHEST_PROTOCOL))
        with self._cond:
            self._tasks.append(task)
            failed = self._grow_locked()
            self._cond.notify()
        self._fail(failed)
        return task.future

    # -- workers ---------------------------------------------------------
    def _grow_locked(self) -> list[tuple[_Task, BaseException]]:
        """Start a worker for each queued task no idle worker will take,
        up to ``nworkers``.  When none can start and none is live, the
        queued tasks are returned for failing (outside the lock)."""
        while len(self._tasks) > self._idle and len(self._workers) < self.nworkers:
            try:
                self._spawn_locked()
            except Exception as exc:  # noqa: BLE001 - reported through the futures
                if self._workers:
                    break
                failed = [(t, exc) for t in self._tasks]
                self._tasks.clear()
                return failed
        return []

    def _spawn_locked(self) -> None:
        ctx = worker_context()
        parent_conn, child_conn = ctx.Pipe()
        slot = self._next_slot
        self._next_slot += 1
        proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True, name=f"serve-job-worker-{slot}"
        )
        proc.start()
        child_conn.close()
        worker = _Worker(slot, proc, parent_conn)
        worker.feeder = threading.Thread(
            target=self._feed, args=(worker,), name=f"serve-job-feeder-{slot}", daemon=True
        )
        self._workers.append(worker)
        self.spawned += 1
        worker.feeder.start()

    def _take(self, worker: _Worker) -> _Task | None:
        """The next queued task for ``worker``; None once it is stopping."""
        with self._cond:
            self._idle += 1
            while not self._tasks and not worker.stopping:
                self._cond.wait()
            self._idle -= 1
            if worker.stopping:
                return None
            worker.busy = True
            return self._tasks.popleft()

    def _feed(self, worker: _Worker) -> None:
        """Feeder thread: one task at a time through ``worker``'s pipe."""
        try:
            while True:
                task = self._take(worker)
                if task is None:
                    return
                try:
                    worker.conn.send_bytes(task.blob)
                except OSError:  # gone while idle: the task never reached it
                    self._lost(worker, task, started=False)
                    return
                try:
                    ok, value = worker.conn.recv()
                except (EOFError, OSError):
                    self._lost(worker, task, started=True)
                    return
                except Exception as exc:  # noqa: BLE001 - a reply this process cannot unpickle
                    ok, value = False, f"{type(exc).__name__}: job result could not be read: {exc}"
                with self._cond:
                    worker.busy = False
                    self.completed += 1
                if ok:
                    task.future.set_result(value)
                else:
                    task.future.set_exception(RemoteJobError(value))
        finally:
            worker.conn.close()  # an idle worker exits on EOF

    def _lost(self, worker: _Worker, task: _Task, *, started: bool) -> None:
        """``worker`` exited holding ``task``: fail that task only, or put
        it back when the worker never saw it."""
        worker.process.join(timeout=1.0)
        with self._cond:
            if worker in self._workers:
                self._workers.remove(worker)
            stopping = worker.stopping
            if not stopping:
                self.died += 1
                if not started:
                    self._tasks.appendleft(task)
            failed = self._grow_locked()  # replace it if tasks are waiting
            self._cond.notify_all()
        if stopping:
            task.future.set_exception(CommunicationError(
                f"job worker {worker.slot} was stopped by a pool shutdown mid-job"
            ))
        elif started:
            task.future.set_exception(WorkerDiedError(
                f"job worker {worker.slot} (pid {worker.process.pid}) died mid-job "
                f"(exit code {worker.process.exitcode})"
            ))
        self._fail(failed)

    @staticmethod
    def _fail(failed: list[tuple[_Task, BaseException]]) -> None:
        for task, exc in failed:
            task.future.set_exception(exc)

    # -- lifecycle ---------------------------------------------------------
    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "workers": len(self._workers),
                "busy": sum(w.busy for w in self._workers),
                "queued": len(self._tasks),
                "spawned": self.spawned,
                "died": self.died,
                "completed": self.completed,
            }

    def shutdown(self) -> None:
        """Stop every worker.  Queued tasks fail; a running task's worker is
        terminated (a job has no safe stopping point).  The pool stays
        usable: the next submission starts fresh workers."""
        with self._cond:
            workers, self._workers = self._workers, []
            queued = [(t, CommunicationError("job pool shut down before the job started"))
                      for t in self._tasks]
            self._tasks.clear()
            for w in workers:
                w.stopping = True
            busy = [w for w in workers if w.busy]
            self._cond.notify_all()
        self._fail(queued)
        for w in busy:
            w.process.terminate()
        for w in workers:
            w.feeder.join(timeout=5.0)
            w.process.join(timeout=5.0)
            if w.process.is_alive():  # pragma: no cover - wedged past terminate
                w.process.kill()
                w.process.join()


_pool: JobPool | None = None
_pool_lock = threading.Lock()


def job_pool() -> JobPool | None:
    """The process-wide job pool, or None on a one-CPU host (run in-process)."""
    global _pool
    nworkers = os.cpu_count() or 1
    if nworkers <= 1:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = JobPool(nworkers)
        return _pool


def shutdown_job_pool() -> None:
    """Stop the job workers (no-op when the pool never started)."""
    if _pool is not None:
        _pool.shutdown()


register_pool_shutdown(shutdown_job_pool)
