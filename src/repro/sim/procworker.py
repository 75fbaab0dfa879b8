"""Worker-process side of the process-parallel SPMD backend.

Each worker process hosts one contiguous block of an SPMD run's ranks as
threads (reusing the engine's rank-thread pool — each worker has its own)
on a :class:`_BridgedFabric`: a :class:`~repro.comm.fabric.Fabric` whose
deliveries to ranks owned by *other* workers are encoded by
:mod:`repro.comm.wire` and shipped over a per-worker-pair socket.

Virtual-time equivalence with the thread backend rests on two facts:

- Every virtual-time decision for a message — sender egress scheduling,
  the fault verdict, the arrival time itself — is made **sender-side**
  inside ``Fabric.transmit``, exactly as in-process.  The wire record
  carries the finished numbers verbatim (pickle round-trips floats
  bit-exactly) and the receiving worker only appends to the destination
  mailbox via ``deliver_local``.
- Per-(src, tag) FIFO order survives the hop: each directed worker pair
  shares a single connection drained by a single reader thread, so the
  records of one sender rank are enqueued in its program order — the same
  guarantee its thread gives locally.  The wildcard-receive rule (minimum
  ``(arrival_time, src)`` among queued heads) already depends only on
  virtual time.

Control flow: the worker's main thread serves the parent's control pipe
(``run`` / ``abort`` / ``shutdown``); each run executes on a driver
thread, so an abort relayed by the parent (another worker's rank failed)
can interrupt a run in progress.  Records arriving before the local
``run`` command are buffered per run id and drained — atomically with the
run's registration, preserving per-source order — when the run starts.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
import traceback
from multiprocessing.connection import Client, Connection, Listener
from typing import Any

from repro.comm.fabric import Fabric
from repro.comm.payload import Payload
from repro.comm.wire import ShmRegistry, decode_payload, discard_record, encode_payload
from repro.sim.engine import _pool, run_block
from repro.util.errors import CommunicationError


def _dumps(obj: Any) -> bytes:
    """Pickle with a cloudpickle fallback (closures, local classes)."""
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        import cloudpickle

        return cloudpickle.dumps(obj)


class _PeerRouter:
    """Outbound connections to sibling workers (one per directed pair).

    Connections are cached by *address*, not worker slot: a worker that is
    terminated and replaced between runs comes back with a fresh socket
    address, so a stale cached connection can never be reused for it.
    ``send`` serializes per connection, and all of this worker's traffic
    to a given peer shares that one connection — the receiving side's
    single reader thread then preserves per-sender record order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._addrs: dict[int, str] = {}
        self._conns: dict[str, tuple[Connection, threading.Lock]] = {}

    def set_peers(self, addrs: dict[int, str]) -> None:
        """Install this run's worker-slot → address map (replaces the old)."""
        with self._lock:
            self._addrs = dict(addrs)

    def send(self, worker_slot: int, record: tuple) -> None:
        with self._lock:
            addr = self._addrs[worker_slot]
            entry = self._conns.get(addr)
            if entry is None:
                entry = (Client(addr, family="AF_UNIX"), threading.Lock())
                self._conns[addr] = entry
        conn, send_lock = entry
        with send_lock:
            conn.send(record)


class _BridgedFabric(Fabric):
    """A fabric that ships remote-rank deliveries to their owning worker.

    Full-size (every rank has a shard), but only the local block's shards
    are ever matched here; a delivery whose destination lives elsewhere is
    encoded and routed instead of enqueued.  ``abort`` additionally
    notifies the parent once (unless the abort *came from* the parent), so
    sibling workers' blocked ranks are woken promptly instead of idling
    until their receive watchdogs fire.
    """

    def __init__(
        self,
        cluster: Any,
        ranks_per_node: int,
        *,
        local_ranks: Any,
        rank_worker: tuple[int, ...],
        router: _PeerRouter,
        run_id: int,
        on_abort: Any,
    ) -> None:
        super().__init__(cluster, ranks_per_node=ranks_per_node)
        self._local_ranks = frozenset(local_ranks)
        self._rank_worker = rank_worker
        self._router = router
        self._run_id = run_id
        self._on_abort = on_abort
        self._abort_notify_lock = threading.Lock()
        self._abort_notified = False
        self.suppress_abort_notify = False

    def _deliver(
        self,
        src: int,
        dst: int,
        tag: int,
        payload: Payload,
        *,
        send_time: float,
        arrival: float,
        wire: float,
        duplicate: bool,
    ) -> None:
        if dst in self._local_ranks:
            self.deliver_local(
                src, dst, tag, payload, send_time=send_time, arrival=arrival,
                wire=wire, duplicate=duplicate,
            )
            return
        enc = encode_payload(payload)
        record = (
            "m", self._run_id, src, dst, tag, send_time, arrival, wire, duplicate, enc,
        )
        try:
            self._router.send(self._rank_worker[dst], record)
        except Exception as exc:
            discard_record(enc)
            raise CommunicationError(
                f"lost connection to the worker hosting rank {dst}"
            ) from exc

    def abort(self, exc: BaseException) -> None:
        super().abort(exc)
        fire = False
        with self._abort_notify_lock:
            if not self._abort_notified and not self.suppress_abort_notify:
                self._abort_notified = True
                fire = True
        if fire and self._on_abort is not None:
            self._on_abort(exc)


class _WorkerRun:
    """One in-flight run's receive-side state."""

    __slots__ = ("run_id", "fabric", "shm")

    def __init__(self, run_id: int, fabric: _BridgedFabric, shm: ShmRegistry) -> None:
        self.run_id = run_id
        self.fabric = fabric
        self.shm = shm


class _WorkerState:
    """Everything one worker process keeps alive across runs."""

    def __init__(self, slot: int, parent: Connection) -> None:
        self.slot = slot
        self.parent = parent
        self.parent_lock = threading.Lock()
        self.router = _PeerRouter()
        self.lock = threading.Lock()
        self.runs: dict[int, _WorkerRun] = {}
        self.finished: set[int] = set()
        self.orphans: dict[int, list[tuple]] = {}

    def send_parent(self, msg: tuple) -> None:
        with self.parent_lock:
            self.parent.send(msg)


def _deliver_record(run: _WorkerRun, rec: tuple) -> None:
    """Decode one shipped message and append it to the local mailbox."""
    _, _run_id, src, dst, tag, send_time, arrival, wire, duplicate, enc = rec
    try:
        payload = decode_payload(enc, run.shm)
    except Exception:
        discard_record(enc)
        return
    try:
        run.fabric.deliver_local(
            src, dst, tag, payload, send_time=send_time, arrival=arrival,
            wire=wire, duplicate=duplicate,
        )
    except CommunicationError:
        # The run aborted under us; the registry already owns any shared
        # memory the decode mapped, so the run's cleanup sweep frees it.
        pass


def _handle_record(state: _WorkerState, rec: tuple) -> None:
    run_id = rec[1]
    with state.lock:
        run = state.runs.get(run_id)
        if run is None:
            if run_id in state.finished:
                discard_record(rec[-1])
            else:
                # Arrived before our own RUN command: buffer in order.
                state.orphans.setdefault(run_id, []).append(rec)
            return
    # Deliver outside the registry lock: this connection's single reader
    # only reaches here after the run was published — which happens after
    # its own buffered records were drained — so per-sender order holds,
    # and deliveries from different peers proceed in parallel.
    _deliver_record(run, rec)


def _reader_loop(state: _WorkerState, conn: Connection) -> None:
    """Drain one inbound peer connection (order = peer's send order)."""
    while True:
        try:
            rec = conn.recv()
        except (EOFError, OSError):
            return
        if rec and rec[0] == "m":
            _handle_record(state, rec)


def _accept_loop(state: _WorkerState, listener: Listener) -> None:
    while True:
        try:
            conn = listener.accept()
        except OSError:  # pragma: no cover - listener closed at exit
            return
        threading.Thread(
            target=_reader_loop,
            args=(state, conn),
            daemon=True,
            name=f"spmd-peer-reader-{state.slot}",
        ).start()


def _run_driver(state: _WorkerState, run_id: int, *job: Any) -> None:
    """Execute one run's local rank block and report back to the parent."""
    try:
        _run_driver_inner(state, run_id, *job)
    except BaseException as exc:  # noqa: BLE001 - worker must answer the parent
        try:
            state.send_parent(
                ("fail", run_id, _dumps((exc, traceback.format_exc())))
            )
        except Exception:  # pragma: no cover - parent gone; exit quietly
            pass


def _run_driver_inner(
    state: _WorkerState,
    run_id: int,
    blob: bytes,
    my_ranks: range,
    rank_worker: tuple[int, ...],
    peer_addrs: dict[int, str],
) -> None:
    import cloudpickle

    spec = cloudpickle.loads(blob)
    fault_plan = spec.fault_plan
    state.router.set_peers(peer_addrs)

    def on_abort(_exc: BaseException) -> None:
        try:
            state.send_parent(("aborted", run_id))
        except Exception:  # pragma: no cover - parent gone
            pass

    fabric = _BridgedFabric(
        spec.cluster,
        spec.ranks_per_node,
        local_ranks=my_ranks,
        rank_worker=rank_worker,
        router=state.router,
        run_id=run_id,
        on_abort=on_abort,
    )
    if fault_plan is not None:
        fault_base = fault_plan.stats_snapshot()
        consumed_base = {
            i for i, c in enumerate(fault_plan.crashes) if c.consumed
        }

    registry = ShmRegistry()
    run = _WorkerRun(run_id, fabric, registry)
    with state.lock:
        # Drain buffered early arrivals *then* publish, in one lock hold,
        # so a reader thread can never overtake its own buffered records.
        for rec in state.orphans.pop(run_id, []):
            _deliver_record(run, rec)
        state.runs[run_id] = run

    # No watchdog here: the parent owns the run's wall budget, relays its
    # abort, and abandons a worker whose ranks stay wedged.
    values, times, traces, failures = run_block(spec, fabric, my_ranks, watchdog=False)

    if fault_plan is not None:
        end = fault_plan.stats_snapshot()
        fault_stats = {k: end[k] - fault_base[k] for k in end}
        consumed = [
            i
            for i, c in enumerate(fault_plan.crashes)
            if c.consumed and i not in consumed_base
        ]
    else:
        fault_stats = None
        consumed = []

    result = {
        "values": values,
        "times": times,
        "traces": traces,
        "failures": [(f.rank, f.exc) for f in failures],
        "fault_stats": fault_stats,
        "consumed_crashes": consumed,
        "rank_pool": _pool.stats(),
    }
    try:
        payload = _dumps(result)
    except Exception as exc:
        # A rank returned something even cloudpickle cannot ship; degrade
        # to a reported failure (the parent then raises, never reading
        # values or traces) rather than wedging the whole run.
        result["values"] = [None] * len(my_ranks)
        result["traces"] = [None] * len(my_ranks)
        result["failures"] = [
            (my_ranks[0], RuntimeError(f"rank return value is not picklable: {exc}"))
        ]
        payload = _dumps(result)

    with state.lock:
        state.runs.pop(run_id, None)
        state.finished.add(run_id)
        leftovers = state.orphans.pop(run_id, [])
    for rec in leftovers:
        discard_record(rec[-1])
    registry.release_all()
    state.send_parent(("done", run_id, payload))


def worker_main(parent: Connection, slot: int) -> None:
    """Entry point of one worker process: serve the parent's control pipe."""
    state = _WorkerState(slot, parent)
    sock_dir = tempfile.mkdtemp(prefix="repro-spmd-")
    listener = Listener(f"{sock_dir}/w{slot}.sock", family="AF_UNIX")
    threading.Thread(
        target=_accept_loop,
        args=(state, listener),
        daemon=True,
        name=f"spmd-peer-accept-{slot}",
    ).start()
    state.send_parent(("hello", slot, listener.address))
    while True:
        try:
            msg = parent.recv()
        except (EOFError, OSError):
            return  # parent is gone; daemon process winds down
        kind = msg[0]
        if kind == "shutdown":
            return
        if kind == "run":
            threading.Thread(
                target=_run_driver,
                args=(state, *msg[1:]),
                daemon=True,
                name=f"spmd-run-{msg[1]}",
            ).start()
        elif kind == "abort":
            run_id = msg[1]
            with state.lock:
                run = state.runs.get(run_id)
            if run is not None:
                # The parent already knows; don't echo the abort back.
                run.fabric.suppress_abort_notify = True
                run.fabric.abort(
                    CommunicationError("aborted by a sibling worker")
                )
