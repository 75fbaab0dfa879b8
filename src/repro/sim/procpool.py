"""Parent-side pool of SPMD worker processes (the ``processes`` backend).

:func:`spmd_run_processes` packs an SPMD run's ranks into contiguous
blocks over a warm pool of worker processes (:mod:`repro.sim.procworker`),
ships each worker its block plus the run's
:class:`~repro.sim.engine.RunSpec` (cloudpickled once per run, so
closures and locally defined rank programs work), and merges the
per-block results back into one :class:`~repro.sim.engine.SpmdResult` —
values, virtual times, traces, fault-plan activity, and failures,
exactly as the thread backend reports them.

The pool is process-wide and persistent: figure sweeps run thousands of
back-to-back SPMD runs, and worker spawn cost (a fresh interpreter under
``forkserver``/``spawn`` — the fork start method is unsafe with the rank
threads this process runs) must be paid once, not per run.  Workers are
started lazily up to the requested count and reused; a worker that wedges
past the run watchdog is terminated and abandoned, and the pool spawns a
replacement for the next run.

Watchdog/abort semantics mirror the thread backend: the parent enforces
one shared wall-clock budget per run, relays the first worker's abort to
the siblings (so their blocked ranks wake immediately instead of waiting
out their receive timeouts), and surfaces the same winning exception the
thread backend would pick (:func:`~repro.sim.engine.select_failure`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.trace import Trace
from repro.util.errors import CommunicationError, DeadlockError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import RunSpec, SpmdResult

#: Wall-clock seconds allowed for a fresh worker's startup handshake.
_HELLO_TIMEOUT = 60.0

#: Grace period after an abort before wedged workers are abandoned.
_ABANDON_GRACE = 5.0


def resolve_workers(workers: int | None, nranks: int) -> int:
    """Worker-process count for a run: explicit > env > CPU count.

    Capped at the rank count — a worker with no ranks would only idle.
    """
    if workers is None:
        env = os.environ.get("REPRO_SPMD_WORKERS")
        workers = int(env) if env else (os.cpu_count() or 1)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return min(workers, nranks)


def partition_ranks(nranks: int, nworkers: int) -> list[range]:
    """Split ranks into ``nworkers`` contiguous, balanced blocks.

    Contiguity keeps node-mates (ranks of one simulated node) in the same
    worker whenever blocks are at least a node wide, so intra-node traffic
    stays in-process.
    """
    base, extra = divmod(nranks, nworkers)
    blocks: list[range] = []
    start = 0
    for i in range(nworkers):
        size = base + (1 if i < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def worker_context() -> Any:
    """The multiprocessing context every worker pool starts processes from.

    Never ``fork``: the parent runs rank and job threads, and forking a
    multithreaded process can deadlock the child.  forkserver (cheap,
    Linux) falls back to spawn elsewhere.
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("forkserver" if "forkserver" in methods else "spawn")


def _worker_entry(conn: Connection, slot: int) -> None:  # pragma: no cover
    """Top-level process target (picklable by reference under spawn)."""
    from repro.sim.procworker import worker_main

    worker_main(conn, slot)


class _WorkerHandle:
    """Parent-side view of one live worker process."""

    __slots__ = ("slot", "process", "conn", "address", "runs_completed")

    def __init__(self, slot: int, process: Any, conn: Connection, address: str) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.address = address
        self.runs_completed = 0

    def alive(self) -> bool:
        return self.process.is_alive()


class _ProcessWorkerPool:
    """Warm, process-wide pool of SPMD worker processes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: list[_WorkerHandle] = []
        self._next_run_id = 1
        self._next_slot = 0
        self.spawned = 0
        self.abandoned = 0
        self.runs = 0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _WorkerHandle:
        ctx = worker_context()
        parent_conn, child_conn = ctx.Pipe()
        slot = self._next_slot
        self._next_slot += 1
        proc = ctx.Process(
            target=_worker_entry,
            args=(child_conn, slot),
            daemon=True,
            name=f"spmd-worker-{slot}",
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(_HELLO_TIMEOUT):
            proc.terminate()
            raise CommunicationError(
                f"SPMD worker {slot} did not complete its startup handshake"
            )
        msg = parent_conn.recv()
        if msg[0] != "hello":  # pragma: no cover - protocol violation
            proc.terminate()
            raise CommunicationError(f"SPMD worker {slot} sent {msg[0]!r}, expected hello")
        self.spawned += 1
        return _WorkerHandle(slot, proc, parent_conn, msg[2])

    def _ensure(self, nworkers: int) -> list[_WorkerHandle]:
        """Prune dead workers and grow the pool to ``nworkers`` live ones."""
        self._workers = [h for h in self._workers if h.alive()]
        while len(self._workers) < nworkers:
            self._workers.append(self._spawn())
        return self._workers[:nworkers]

    def _abandon(self, handle: _WorkerHandle) -> None:
        """Terminate a wedged/dead worker and drop it from the pool."""
        try:
            handle.process.terminate()
        except Exception:  # pragma: no cover
            pass
        try:
            handle.conn.close()
        except Exception:  # pragma: no cover
            pass
        if handle in self._workers:
            self._workers.remove(handle)
        self.abandoned += 1

    def stats(self) -> dict[str, int]:
        """Pool occupancy/lifecycle counters (mirrors ``rank_pool_stats``)."""
        with self._lock:
            return {
                "workers": sum(1 for h in self._workers if h.alive()),
                "spawned": self.spawned,
                "abandoned": self.abandoned,
                "runs": self.runs,
            }

    def shutdown(self) -> None:
        """Stop every pooled worker (test hook; daemons die with the parent)."""
        with self._lock:
            workers, self._workers = self._workers, []
        for h in workers:
            try:
                h.conn.send(("shutdown",))
            except Exception:
                pass
        for h in workers:
            h.process.join(timeout=5.0)
            if h.process.is_alive():  # pragma: no cover
                h.process.terminate()

    # -- running -------------------------------------------------------
    def run(self, spec: "RunSpec", nworkers: int) -> "SpmdResult":
        # One process-backend run at a time: run ids stay totally ordered
        # for the workers' orphan/finished bookkeeping, and rank blocks
        # never compete for the same worker.
        with self._lock:
            return self._run_locked(spec, nworkers)

    def _run_locked(self, spec: "RunSpec", nworkers: int) -> "SpmdResult":
        import cloudpickle

        from repro.sim.engine import SpmdResult, _RankFailure, select_failure

        nranks = spec.nranks
        handles = self._ensure(nworkers)
        run_id = self._next_run_id
        self._next_run_id += 1
        blocks = partition_ranks(nranks, nworkers)
        rank_worker = tuple(i for i, blk in enumerate(blocks) for _ in blk)
        peer_addrs = {i: h.address for i, h in enumerate(handles)}
        blob = cloudpickle.dumps(spec)
        for h, block in zip(handles, blocks):
            h.conn.send(("run", run_id, blob, block, rank_worker, peer_addrs))

        # -- collect -----------------------------------------------------
        # One receive loop: when the shared wall budget runs out it relays
        # the abort and keeps collecting for a grace period, after which
        # anything still wedged is abandoned.
        deadline = time.monotonic() + spec.wall_timeout
        timed_out = False
        pending: dict[Connection, _WorkerHandle] = {h.conn: h for h in handles}
        results: dict[int, dict] = {}  # handle slot index in run -> result
        slot_of = {h.conn: i for i, h in enumerate(handles)}
        infra_failure: BaseException | None = None
        abort_relayed = False

        def relay_abort() -> None:
            nonlocal abort_relayed
            if abort_relayed:
                return
            abort_relayed = True
            for conn in pending:
                try:
                    conn.send(("abort", run_id))
                except Exception:
                    pass

        while pending:
            left = deadline - time.monotonic()
            if left <= 0:
                if timed_out:
                    break
                timed_out = True
                relay_abort()
                deadline = time.monotonic() + _ABANDON_GRACE
                continue
            for conn in _conn_wait(list(pending), timeout=left):
                h = pending[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    if infra_failure is None:
                        infra_failure = CommunicationError(
                            f"SPMD worker {h.slot} died mid-run"
                        )
                    del pending[conn]
                    self._abandon(h)
                    relay_abort()
                    continue
                kind = msg[0]
                if len(msg) > 1 and msg[1] != run_id:
                    continue  # straggler from an older, abandoned run
                if kind == "aborted":
                    relay_abort()
                elif kind == "done":
                    results[slot_of[conn]] = pickle.loads(msg[2])
                    del pending[conn]
                    h.runs_completed += 1
                elif kind == "fail":
                    exc, tb = pickle.loads(msg[2])
                    if infra_failure is None:
                        infra_failure = RuntimeError(
                            f"SPMD worker {h.slot} failed: {exc!r}\n{tb}"
                        )
                    del pending[conn]
                    relay_abort()

        self.runs += 1
        if timed_out:
            stuck = sorted(r for conn in pending for r in blocks[slot_of[conn]])
            for h in list(pending.values()):
                self._abandon(h)
            raise DeadlockError(
                f"SPMD run exceeded wall timeout of {spec.wall_timeout}s; "
                f"ranks on unresponsive workers: {stuck}"
            )

        # -- merge -------------------------------------------------------
        values: list[Any] = [None] * nranks
        times: list[float] = [0.0] * nranks
        traces: list[Trace] = [Trace(r, enabled=False) for r in range(nranks)]
        failures: list[_RankFailure] = []
        rank_pool_spawned = 0
        rank_pool_idle = 0
        for i, block in enumerate(blocks):
            res = results.get(i)
            if res is None:
                continue
            values[block.start : block.stop] = res["values"]
            times[block.start : block.stop] = res["times"]
            traces[block.start : block.stop] = res["traces"]
            for rank, exc in res["failures"]:
                failures.append(_RankFailure(rank, exc))
            if spec.fault_plan is not None and res["fault_stats"] is not None:
                spec.fault_plan.absorb(res["fault_stats"], res["consumed_crashes"])
            rank_pool_spawned += res["rank_pool"]["spawned"]
            rank_pool_idle += res["rank_pool"]["idle"]

        if failures:
            raise select_failure(failures).exc
        if infra_failure is not None:
            raise infra_failure

        if traces[0].enabled:
            traces[0].gauge("rank_pool.spawned", rank_pool_spawned)
            traces[0].gauge("rank_pool.idle", rank_pool_idle)
            traces[0].gauge("proc_pool.workers", len(handles))
            traces[0].gauge("proc_pool.spawned", self.spawned)
            traces[0].gauge("proc_pool.runs", self.runs)
        return SpmdResult(values=values, times=times, traces=traces)


#: The process-wide worker pool shared by every ``backend="processes"`` run.
_pool = _ProcessWorkerPool()


def process_pool_stats() -> dict[str, int]:
    """Live/spawned/abandoned/run counters of the shared worker pool."""
    return _pool.stats()


#: Stop functions of the other process-wide worker pools (the job
#: service's job pool registers one); :func:`shutdown_pool` runs them too.
_other_pools: list[Callable[[], None]] = []


def register_pool_shutdown(stop: Callable[[], None]) -> None:
    """Have :func:`shutdown_pool` also call ``stop``."""
    _other_pools.append(stop)


def shutdown_pool() -> None:
    """Stop all pooled workers, rank-level and registered (test hook)."""
    _pool.shutdown()
    for stop in _other_pools:
        stop()


def spmd_run_processes(spec: "RunSpec", workers: int | None) -> "SpmdResult":
    """Run one SPMD program on the process backend (see module docstring).

    With an effective worker count of one (single-core hosts, or
    ``workers=1``) the run executes on the thread backend instead — the
    results are bit-identical either way and the bridge would only add
    overhead.
    """
    nworkers = resolve_workers(workers, spec.nranks)
    if nworkers <= 1:
        # Enter the thread body directly (not spmd_run) so the logical run
        # is counted once by engine.active_run_stats().
        from repro.sim.engine import _spmd_run_threads

        return _spmd_run_threads(spec)
    return _pool.run(spec, nworkers)
