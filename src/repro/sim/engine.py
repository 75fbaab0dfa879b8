"""SPMD execution engine: pooled rank threads, or rank-packed worker processes.

:func:`spmd_run` launches ``fn(ctx)`` on every rank, where ``ctx`` is a
:class:`RankContext` carrying the rank's virtual clock, communicator, node
spec, and (optionally) devices built by a caller-supplied factory.  Rank
threads synchronize only through the message fabric, so virtual time is
deterministic for deterministic programs (no wildcard-source races).

Two execution backends share this entry point (``backend=`` or the
``REPRO_SPMD_BACKEND`` environment variable):

- ``"threads"`` (default): every rank is a pooled thread in this process.
  Cheapest per run, but all ranks serialize on one GIL — many-rank wall
  time is bounded by a single core.
- ``"processes"``: ranks are packed onto a warm pool of worker
  *processes* (:mod:`repro.sim.procpool`), each hosting its block of
  ranks as threads on a bridged fabric; numpy payloads cross the worker
  boundary in shared memory.  Virtual makespans are bit-identical to the
  thread backend — the backends differ only in wall-clock parallelism.

Both backends take the run's parameters as one frozen :class:`RunSpec`
and share one run body, :func:`run_block`: the thread backend runs every
rank as one block, each worker process runs its own block.

Rank threads come from a process-wide reusable pool
(:class:`_RankThreadPool`): figure sweeps run thousands of back-to-back
SPMD runs, and at the paper's baseline scale (32 nodes × 12 ranks/node =
384 rank threads) per-run thread spawn/teardown dominated the wall clock.
A worker is recycled only after its rank function returns, so a worker
wedged past the watchdog is simply abandoned (daemon thread) and the pool
spawns a replacement on demand.

Failure handling: the first rank to raise poisons the fabric, which wakes
every sibling blocked in a receive; the original exception is re-raised to
the caller with the failing rank attached.  A wall-clock watchdog converts
genuine deadlocks into :class:`~repro.util.errors.DeadlockError` instead of
hanging the test suite.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.sim.clock import VirtualClock
from repro.sim.trace import Trace
from repro.util.errors import CommunicationError, DeadlockError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.communicator import SimComm
    from repro.faults.plan import FaultPlan

DeviceFactory = Callable[["RankContext"], Sequence[Any]]

#: The SPMD execution backends selectable per run.
BACKENDS = ("threads", "processes")


def resolve_backend(backend: str | None) -> str:
    """Resolve an explicit/env/default backend name, validating it."""
    if backend is None:
        backend = os.environ.get("REPRO_SPMD_BACKEND", "threads")
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown SPMD backend {backend!r}; choose from {list(BACKENDS)}"
        )
    return backend


@dataclass
class RankContext:
    """Everything one simulated process needs, bundled for ``fn(ctx)``."""

    rank: int
    size: int
    node_index: int
    node: NodeSpec
    cluster: ClusterSpec
    clock: VirtualClock
    comm: "SimComm"
    trace: Trace
    devices: list[Any] = field(default_factory=list)
    fault_plan: "FaultPlan | None" = None

    @property
    def now(self) -> float:
        """Current virtual time on this rank."""
        return self.clock.now


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    values: list[Any]
    times: list[float]
    traces: list[Trace]

    @property
    def makespan(self) -> float:
        """Virtual completion time of the slowest rank — *the* reported time."""
        return max(self.times) if self.times else 0.0

    @property
    def nranks(self) -> int:
        return len(self.values)


class _RankFailure(Exception):
    """Internal wrapper recording which rank raised."""

    def __init__(self, rank: int, exc: BaseException) -> None:
        super().__init__(f"rank {rank} raised {type(exc).__name__}: {exc}")
        self.rank = rank
        self.exc = exc


@dataclass(frozen=True)
class RunSpec:
    """One SPMD run's parameters, built once by :func:`spmd_run`.

    Both backends, and the process backend's workers (which receive it
    cloudpickled), take this one object; see :func:`spmd_run` for what
    each field means.
    """

    fn: Callable[..., Any]
    cluster: ClusterSpec
    ranks_per_node: int
    args: tuple
    kwargs: dict
    trace: bool
    recorder_factory: Callable[[int], Trace] | None
    device_factory: DeviceFactory | None
    recv_timeout: float
    wall_timeout: float
    fault_plan: "FaultPlan | None"

    @property
    def nranks(self) -> int:
        return self.cluster.num_nodes * self.ranks_per_node


def run_one_rank(spec: RunSpec, fabric: Any, rank: int, trace: Trace) -> tuple[Any, float]:
    """Wire up one rank's context and run its program.

    Returns ``(value, final virtual time)``.
    """
    from repro.comm.communicator import SimComm

    clock = VirtualClock()
    comm = SimComm(fabric, rank, clock, trace=trace, recv_timeout=spec.recv_timeout)
    ctx = RankContext(
        rank=rank,
        size=spec.nranks,
        node_index=fabric.node_of(rank),
        node=spec.cluster.node,
        cluster=spec.cluster,
        clock=clock,
        comm=comm,
        trace=trace,
        fault_plan=spec.fault_plan,
    )
    if spec.device_factory is not None:
        ctx.devices = list(spec.device_factory(ctx))
    value = spec.fn(ctx, *spec.args, **spec.kwargs)
    return value, clock.now


def record_rank_failure(
    fabric: Any,
    rank: int,
    exc: BaseException,
    failures: list[_RankFailure],
    failure_lock: threading.Lock,
) -> None:
    """Record one rank's exception and poison the fabric if it is genuine.

    A :class:`CommunicationError` raised *because* a sibling already
    aborted the fabric is only a wakeup echo: it becomes a low-priority
    "stuck" marker (and only if nothing else was recorded).  Everything
    else is a real failure and aborts the fabric to release siblings.
    """
    if isinstance(exc, CommunicationError):
        with failure_lock:
            if fabric._abort_exc is not None and fabric._abort_exc is not exc:
                if not failures:
                    failures.append(
                        _RankFailure(rank, DeadlockError(f"rank {rank} stuck"))
                    )
            else:
                failures.append(_RankFailure(rank, exc))
                fabric.abort(exc)
    else:
        with failure_lock:
            failures.append(_RankFailure(rank, exc))
        fabric.abort(exc)


def select_failure(failures: list[_RankFailure]) -> _RankFailure:
    """The failure to surface: prefer genuine errors over stuck markers,
    then the lowest rank — identical on both backends."""
    real = [f for f in failures if not isinstance(f.exc, DeadlockError)]
    return min(real or failures, key=lambda f: f.rank)


class _PoolWorker(threading.Thread):
    """One reusable rank thread: runs submitted tasks until shut down."""

    def __init__(self, pool: "_RankThreadPool", index: int) -> None:
        super().__init__(name=f"rank-pool-{index}", daemon=True)
        self._pool = pool
        self._task: Callable[[], None] | None = None
        self._wake = threading.Semaphore(0)
        self.tasks_run = 0

    def submit(self, task: Callable[[], None] | None) -> None:
        """Hand one task (or ``None`` to shut down) to this idle worker."""
        self._task = task
        self._wake.release()

    def run(self) -> None:  # pragma: no cover - exercised via spmd_run
        while True:
            self._wake.acquire()
            task, self._task = self._task, None
            if task is None:
                return
            try:
                task()
            finally:
                self.tasks_run += 1
                # Recycle only once the task has fully returned: a worker
                # stuck inside a task never re-enters the idle pool.
                self._pool._recycle(self)


class _RankThreadPool:
    """Process-wide pool of reusable rank threads.

    ``submit`` hands the task to an idle worker (LIFO, for cache warmth)
    or spawns a new daemon worker when none is idle, so the pool grows to
    the peak concurrent rank count and is reused by every subsequent
    :func:`spmd_run` in the process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_PoolWorker] = []
        self.spawned = 0

    def submit(self, task: Callable[[], None]) -> None:
        with self._lock:
            worker = self._idle.pop() if self._idle else None
            if worker is None:
                self.spawned += 1
                worker = _PoolWorker(self, self.spawned)
                worker.start()
        worker.submit(task)

    def _recycle(self, worker: _PoolWorker) -> None:
        with self._lock:
            self._idle.append(worker)

    def stats(self) -> dict[str, int]:
        """Pool occupancy (test/diagnostic hook)."""
        with self._lock:
            return {"spawned": self.spawned, "idle": len(self._idle)}

    def drain(self) -> None:
        """Shut down every currently idle worker (test hook)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.submit(None)
        for worker in idle:
            worker.join(timeout=5.0)


#: The process-wide rank-thread pool shared by every ``spmd_run``.
_pool = _RankThreadPool()


def rank_pool_stats() -> dict[str, int]:
    """Spawned/idle counts of the shared rank-thread pool."""
    return _pool.stats()


# -- multi-job accounting ------------------------------------------------
# ``spmd_run`` is re-entrant: every run builds its own fabric, clocks,
# result slots, and failure list, and rank threads of concurrent runs only
# ever synchronize through their *own* run's fabric — so virtual makespans
# are bit-identical whether runs execute back-to-back or interleaved.  The
# shared state (the rank-thread pool above, the process-backend worker
# pool, dataset memos) is either lock-protected or append-only.  The
# counters below track how many runs/ranks are in flight in this process
# right now; the ``repro.serve`` job scheduler admits jobs against its own
# ``rank_budget``, not against them.
_active_lock = threading.Lock()
_active_runs = 0
_active_ranks = 0


def _run_started(nranks: int) -> None:
    global _active_runs, _active_ranks
    with _active_lock:
        _active_runs += 1
        _active_ranks += nranks


def _run_finished(nranks: int) -> None:
    global _active_runs, _active_ranks
    with _active_lock:
        _active_runs -= 1
        _active_ranks -= nranks


def active_run_stats() -> dict[str, int]:
    """How many SPMD runs (and their ranks) are in flight right now.

    Covers both backends; a run is "active" from entry into
    :func:`spmd_run` until its results (or failure) are returned.
    """
    with _active_lock:
        return {"active_runs": _active_runs, "active_ranks": _active_ranks}


class _RunGroup:
    """Completion tracking for the rank tasks of one rank block."""

    def __init__(self, nranks: int) -> None:
        self._cond = threading.Condition()
        self._done = [False] * nranks
        self._remaining = nranks

    def task_done(self, index: int) -> None:
        with self._cond:
            self._done[index] = True
            self._remaining -= 1
            if self._remaining == 0:
                self._cond.notify_all()

    def wait(self, timeout: float | None) -> bool:
        """True when every task finished within ``timeout`` seconds
        (``None``: wait for as long as it takes)."""
        with self._cond:
            return self._cond.wait_for(lambda: self._remaining == 0, timeout)

    def pending(self) -> list[int]:
        with self._cond:
            return [i for i, done in enumerate(self._done) if not done]


def run_block(
    spec: RunSpec, fabric: Any, ranks: range, *, watchdog: bool
) -> tuple[list[Any], list[float], list[Trace], list[_RankFailure]]:
    """Run one contiguous block of ``spec``'s ranks on ``fabric``.

    The one run body of both backends: the thread backend runs every rank
    as one block, each process-backend worker runs its own block on a
    bridged fabric.  Installs the fault plan, builds the block's traces,
    runs each rank on a pooled thread (a single-rank block inline, which
    keeps single-rank tests easy to debug), and waits for all of them.
    With ``watchdog`` the wait is bounded by ``spec.wall_timeout``: on
    expiry the fabric is aborted, the ranks get a grace period, and a
    :class:`DeadlockError` is raised.  Without it the wait is unbounded
    (process workers: the parent owns the run's wall budget and abandons
    wedged workers).

    Returns per-rank values, virtual times and traces in block order, and
    every recorded rank failure.
    """
    if spec.fault_plan is not None:
        fabric.install_faults(spec.fault_plan)
    n = len(ranks)
    values: list[Any] = [None] * n
    times: list[float] = [0.0] * n
    if spec.recorder_factory is not None:
        traces = [spec.recorder_factory(r) for r in ranks]
    else:
        traces = [Trace(r, enabled=spec.trace) for r in ranks]
    for tr in traces:
        # No-op on plain Traces; obs Recorders attach NIC timeline sinks.
        tr.bind_fabric(fabric)
    failures: list[_RankFailure] = []
    failure_lock = threading.Lock()

    def rank_main(i: int) -> None:
        try:
            values[i], times[i] = run_one_rank(spec, fabric, ranks[i], traces[i])
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            record_rank_failure(fabric, ranks[i], exc, failures, failure_lock)

    if n == 1:
        rank_main(0)
        return values, times, traces, failures
    group = _RunGroup(n)

    def make_task(i: int) -> Callable[[], None]:
        def task() -> None:
            try:
                rank_main(i)
            finally:
                group.task_done(i)

        return task

    for i in range(n):
        _pool.submit(make_task(i))
    # One shared wall-clock budget for the whole block, not per rank.
    if not group.wait(spec.wall_timeout if watchdog else None):
        fabric.abort(DeadlockError("wall timeout"))
        # Grace period: aborted ranks wake out of their receives and
        # finish; anything still wedged after this is abandoned to its
        # (daemon) pool worker, which is never recycled.
        group.wait(5.0)
        raise DeadlockError(
            f"SPMD run exceeded wall timeout of {spec.wall_timeout}s; "
            f"still-running ranks: {[ranks[i] for i in group.pending()]}"
        )
    return values, times, traces, failures


def spmd_run(
    fn: Callable[..., Any],
    cluster: ClusterSpec,
    *,
    ranks_per_node: int = 1,
    args: tuple = (),
    kwargs: dict | None = None,
    trace: bool = False,
    recorder_factory: Callable[[int], Trace] | None = None,
    device_factory: DeviceFactory | None = None,
    recv_timeout: float = 120.0,
    wall_timeout: float = 600.0,
    fault_plan: "FaultPlan | None" = None,
    backend: str | None = None,
    workers: int | None = None,
) -> SpmdResult:
    """Run ``fn(ctx, *args, **kwargs)`` on every rank of ``cluster``.

    Args:
        fn: The per-rank program.  Its return value is collected per rank.
        cluster: Hardware description; rank count is
            ``cluster.num_nodes * ranks_per_node``.
        ranks_per_node: 1 for the framework's process-per-node model; the
            paper's hand-written MPI baselines use one rank per core.
        args, kwargs: Extra arguments forwarded to every rank.
        trace: Enable per-rank event tracing (small overhead).
        recorder_factory: Optional callable ``rank -> Trace`` building the
            per-rank trace objects; used by :mod:`repro.obs` to install
            :class:`~repro.obs.Recorder` instances (which also capture
            device/NIC timeline intervals).  Overrides ``trace``.
        device_factory: Optional callable building the rank's device list
            (used by :class:`repro.core.env.RuntimeEnv`); it runs inside the
            rank thread after clock/comm are wired.
        recv_timeout: Wall-clock seconds a single receive may block.
        wall_timeout: Wall-clock seconds for the whole run (a monotonic
            budget shared by all ranks, not a per-rank allowance).
        fault_plan: Optional :class:`~repro.faults.plan.FaultPlan`
            installed on the fabric before any rank starts; rank programs
            reach it via ``ctx.fault_plan`` (checkpoint/restart loops
            consume its crash events).
        backend: ``"threads"`` (default) or ``"processes"``; ``None``
            consults the ``REPRO_SPMD_BACKEND`` environment variable.
            Virtual makespans are bit-identical across backends.
            Single-rank runs execute inline on either backend.
        workers: Process-backend worker-process count (``None``: the
            ``REPRO_SPMD_WORKERS`` environment variable, else CPU count).
            Ignored by the thread backend.

    Returns:
        :class:`SpmdResult` with per-rank return values, final virtual
        clocks, and traces.

    Raises:
        The first per-rank exception (sibling ranks are woken and drained),
        or :class:`DeadlockError` if ranks block past the watchdog.
    """
    spec = RunSpec(
        fn, cluster, ranks_per_node, args, {} if kwargs is None else kwargs, trace,
        recorder_factory, device_factory, recv_timeout, wall_timeout, fault_plan,
    )
    backend = resolve_backend(backend)
    nranks = spec.nranks
    if nranks <= 0:
        raise ValidationError("cluster must yield at least one rank")
    _run_started(nranks)
    try:
        if backend == "processes" and nranks > 1:
            from repro.sim.procpool import spmd_run_processes

            return spmd_run_processes(spec, workers)
        return _spmd_run_threads(spec)
    finally:
        _run_finished(nranks)


def _spmd_run_threads(spec: RunSpec) -> SpmdResult:
    """The thread backend: every rank as one block in this process.

    Also the process backend's single-worker fallback, which enters here
    directly so a logical run is only counted once by
    :func:`active_run_stats`.
    """
    from repro.comm.fabric import Fabric

    fabric = Fabric(spec.cluster, ranks_per_node=spec.ranks_per_node)
    values, times, traces, failures = run_block(
        spec, fabric, range(spec.nranks), watchdog=True
    )
    if failures:
        raise select_failure(failures).exc
    if traces[0].enabled:
        stats = _pool.stats()
        traces[0].gauge("rank_pool.spawned", stats["spawned"])
        traces[0].gauge("rank_pool.idle", stats["idle"])
    return SpmdResult(values=values, times=times, traces=traces)
