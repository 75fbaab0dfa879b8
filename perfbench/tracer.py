"""Span tracing from outside the program: wrappers around each layer's calls.

The traced run installs wrappers around the public functions and methods
of the layers it covers (see :data:`layers.TRACED_LAYERS`); the untraced
run installs nothing.  Every wrapped call records one span: id, parent
id, name, wall start and end, thread CPU seconds, thread, run id and an
optional value (bytes, hit flag).  Rank programs run on threads, so each
thread keeps its own parent stack; a rank program's span is parented to
the ``spmd_run`` span that launched it.  Spans stay in per-thread lists
until :func:`summarize` reads them and :func:`write_spans` writes them out.

Span names are ``<layer>.<what>``; the prefix is the layer a span's self
time (see :func:`self_times`) is billed to.  A ``Fabric.match`` call that
finds no message queued is named ``comm.fabric.match_blocked``: its wall
time is time blocked on other ranks.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Any, Callable

import numpy as np

_COLLECTIVES = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "exscan", "reduce_scatter",
)

_KERNEL_FACTORIES = (
    ("repro.apps.kmeans", "make_kernel"),
    ("repro.apps.moldyn", "make_cf_kernel"),
    ("repro.apps.moldyn", "make_ke_kernel"),
    ("repro.apps.moldyn", "make_av_kernel"),
    ("repro.apps.minimd", "make_force_kernel"),
    ("repro.apps.minimd", "make_energy_kernel"),
    ("repro.apps.sobel", "make_kernel"),
    ("repro.apps.heat3d", "make_kernel"),
    ("repro.apps.extra.jacobi2d", "make_kernel"),
)

_DATA_GENERATORS = (
    ("repro.data.points", "clustered_points"),
    ("repro.data.meshes", "geometric_mesh"),
    ("repro.data.meshes", "random_mesh"),
    ("repro.data.atoms", "fcc_lattice"),
    ("repro.data.atoms", "build_neighbor_edges"),
    ("repro.data.grids", "heat3d_initial"),
    ("repro.data.grids", "synthetic_image"),
)


def payload_bytes(obj: Any) -> int:
    """Bytes of a message payload computed from its arrays' sizes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(payload_bytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(payload_bytes(o) for o in obj.values())
    return 8


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        #: Identifier shared by the spans of one operation; the workload sets
        #: it before each operation (operations run one at a time).
        self.run_id = 0
        #: serve Jobs seen at admission (their timestamps give queue waits).
        self.jobs: list[Any] = []

    def _thread(self) -> tuple[list[int], list[tuple], int]:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = ([], [], threading.get_ident())
            with self._lock:
                self._buffers.append(state[1])
        return state

    def begin(self, parent: int | None = None) -> tuple[int, int, float, float]:
        """Open a span on this thread; ``parent`` overrides the stack top."""
        stack = self._thread()[0]
        sid = next(self._ids)
        up = parent if parent is not None else (stack[-1] if stack else 0)
        stack.append(sid)
        return sid, up, perf_counter(), thread_time()

    def end(self, token: tuple[int, int, float, float], name: str, value: float = 0) -> None:
        t1, c1 = perf_counter(), thread_time()
        stack, buf, tid = self._thread()
        stack.pop()
        sid, up, t0, c0 = token
        buf.append((sid, up, name, t0, t1, c1 - c0, tid, self.run_id, value))

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        value: Callable[[tuple, Any], float] | None = None,
        parent: int | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``value(args, result)`` gives the span's value; ``parent`` pins the
        parent span (for calls that start a fresh thread's stack).
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = tracer.begin(parent)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                v = value(args, result) if done and value is not None else 0
                tracer.end(token, name, v)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]


class Patches:
    """Installed wrappers, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, make: Callable[[Any], Any]) -> None:
        orig = cls.__dict__[name]  # patch where defined, never an inherited copy
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def function(self, module: str, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.name`` and every alias of it in loaded repro modules."""
        orig = getattr(importlib.import_module(module), name)
        repl = make(orig)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._undo.append((mod, attr, orig))

    def restore(self) -> None:
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)


def _kernel_factory(tracer: Tracer, factory: Callable[..., Any]) -> Callable[..., Any]:
    from repro.core.api import GRKernel, IRKernel, StencilKernel

    fields = {GRKernel: "emit_batch", IRKernel: "edge_compute_batch", StencilKernel: "apply"}

    def traced_factory(*args: Any, **kwargs: Any) -> Any:
        kernel = factory(*args, **kwargs)
        field = fields[type(kernel)]
        fn = tracer.wrap("apps.kernel", getattr(kernel, field))
        return dataclasses.replace(kernel, **{field: fn})

    return traced_factory


def _spmd_run(tracer: Tracer, orig: Callable[..., Any], wrap_ranks: bool) -> Callable[..., Any]:
    from repro.sim.engine import resolve_backend

    def traced_spmd_run(fn: Callable[..., Any], cluster: Any, **kwargs: Any) -> Any:
        token = tracer.begin()
        nranks = cluster.num_nodes * kwargs.get("ranks_per_node", 1)
        # Rank programs shipped to worker processes run beyond the tracer.
        in_process = nranks == 1 or resolve_backend(kwargs.get("backend")) == "threads"
        if wrap_ranks and in_process:
            fn = tracer.wrap("apps.rank_program", fn, parent=token[0])
        try:
            return orig(fn, cluster, **kwargs)
        finally:
            tracer.end(token, "sim.spmd_run")

    return traced_spmd_run


def _match(tracer: Tracer, orig: Callable[..., Any]) -> Callable[..., Any]:
    from repro.comm.constants import ANY_SOURCE, ANY_TAG

    def traced_match(self, dst, source=ANY_SOURCE, tag=ANY_TAG, timeout=None):
        queued = self.probe(dst, source, tag)
        token = tracer.begin()
        try:
            return orig(self, dst, source, tag, timeout)
        finally:
            tracer.end(token, "comm.fabric.match" if queued else "comm.fabric.match_blocked")

    return traced_match


def install(tracer: Tracer, layers: tuple[str, ...]) -> Patches:
    """Wrap the public calls of ``layers``; the caller restores the patches."""
    p = Patches()
    w = tracer.wrap
    if "data" in layers:
        for module, name in _DATA_GENERATORS:
            p.function(module, name, lambda f, n=name: w(f"data.{n}", f))
    if "apps" in layers:
        for module, name in _KERNEL_FACTORIES:
            p.function(module, name, lambda f: _kernel_factory(tracer, f))
    if "core" in layers:
        from repro.core.checkpoint import CheckpointManager
        from repro.core.generalized import GeneralizedReductionRuntime
        from repro.core.irregular import IrregularReductionRuntime
        from repro.core.reduction_object import DenseReductionObject, HashReductionObject
        from repro.core.stencil import StencilRuntime
        from repro.core.stencil_reduce import StencilReduceRuntime

        for cls, name, span in (
            (StencilRuntime, "step", "core.stencil.step"),
            (StencilRuntime, "run", "core.stencil.step"),
            (StencilRuntime, "begin_step_early", "core.stencil.begin_step_early"),
            (StencilRuntime, "cancel_begun_step", "core.stencil.cancel_begun_step"),
            (StencilReduceRuntime, "run_until", "core.stencil_reduce.run_until"),
            (IrregularReductionRuntime, "start", "core.irregular.start"),
            (GeneralizedReductionRuntime, "start", "core.generalized.start"),
            (GeneralizedReductionRuntime, "get_global_reduction",
             "core.generalized.global_reduction"),
            (DenseReductionObject, "insert_many", "core.reduction_object.insert_many"),
            (HashReductionObject, "insert_many", "core.reduction_object.insert_many"),
            (CheckpointManager, "run_iterations", "core.checkpoint"),
            (CheckpointManager, "run_convergence", "core.checkpoint"),
        ):
            p.method(cls, name, lambda f, s=span: w(s, f))
    if "device" in layers:
        from repro.device.cpu import CPUDevice
        from repro.device.gpu import GPUDevice

        for cls, name in (
            (CPUDevice, "elem_time"),
            (GPUDevice, "elem_time"),
            (GPUDevice, "kernel_time"),
            (GPUDevice, "submit_chunk"),
            (GPUDevice, "transfer_time"),
        ):
            p.method(cls, name, lambda f: w("device.charge", f))
    if "comm" in layers:
        from repro.comm.communicator import SimComm
        from repro.comm.fabric import Fabric

        p.method(SimComm, "send", lambda f: w("comm.send", f, lambda a, r: payload_bytes(a[1])))
        p.method(SimComm, "recv", lambda f: w("comm.recv", f))
        for op in _COLLECTIVES:
            p.method(SimComm, op, lambda f, o=op: w(f"comm.collective.{o}", f))
        p.method(Fabric, "transmit", lambda f: w("comm.fabric.transmit", f))
        p.method(Fabric, "match", lambda f: _match(tracer, f))
    if "sim" in layers:
        p.function(
            "repro.sim.engine", "spmd_run", lambda f: _spmd_run(tracer, f, "apps" in layers)
        )
    if "serve" in layers:
        from repro.serve.cache import ResultCache
        from repro.serve.scheduler import JobScheduler
        from repro.serve.store import ResultStore

        def admitted(args: tuple, job: Any) -> float:
            if job is not None:
                tracer.jobs.append(job)
            return 0

        p.function("repro.serve.spec", "execute_job", lambda f: w("serve.execute_job", f))
        p.method(JobScheduler, "submit", lambda f: w("serve.admission", f, admitted))
        p.method(
            ResultCache, "get", lambda f: w("serve.cache.get", f, lambda a, r: r is not None)
        )
        p.method(ResultStore, "get", lambda f: w("serve.store.get", f))
        p.method(
            ResultStore,
            "put",
            lambda f: w("serve.store.put", f, lambda a, r: os.path.getsize(a[0].path_for(a[1]))),
        )
    if "campaign" in layers:
        from repro.campaign.spec import CampaignSpec

        p.method(CampaignSpec, "expand", lambda f: w("campaign.expand", f))
        p.function("repro.campaign.runner", "prewarm_datasets", lambda f: w("campaign.prewarm", f))
    return p


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its thread CPU time minus that of its same-thread children.

    Thread CPU time, not wall time: rank threads queue for the interpreter
    lock and block in receives, and a wall-clock self time would bill that
    queueing to whichever layer a thread happened to be in.  Children on
    other threads (rank programs under ``spmd_run``) run on their own
    clocks, so they are not subtracted.
    """
    nested: dict[tuple[int, int], float] = defaultdict(float)
    for _sid, parent, _n, _t0, _t1, cpu, tid, _r, _v in spans:
        nested[(parent, tid)] += cpu
    return {s[0]: s[5] - nested.get((s[0], s[6]), 0.0) for s in spans}


def summarize(spans: list[tuple], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans plus ``extra`` (counters read outside)."""
    own = self_times(spans)
    names = {s[0]: s[2] for s in spans}
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    vals: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    outer_coll_calls = 0
    outer_coll_s = 0.0
    ranks_of: dict[int, list[float]] = defaultdict(list)
    for sid, parent, name, t0, t1, span_cpu, _tid, _r, v in spans:
        calls[name] += 1
        selfs[name] += own[sid]
        wall[name] += t1 - t0
        cpu[name] += span_cpu
        vals[name] += v
        layer_self[name.split(".", 1)[0]] += own[sid]
        if name.startswith("comm.collective.") and not names.get(
            parent, ""
        ).startswith("comm.collective."):
            outer_coll_calls += 1
            outer_coll_s += span_cpu
        if name == "apps.rank_program":
            ranks_of[parent].append(t1 - t0)
    launch = skew = 0.0
    for sid, _parent, name, t0, t1, *_rest in spans:
        if name == "sim.spmd_run" and ranks_of.get(sid):
            walls = ranks_of[sid]
            launch += (t1 - t0) - max(walls)
            skew += max(walls) - statistics.median(walls)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    data = [n for n in calls if n.startswith("data.")]
    out = {
        "data.gen_calls": sum(calls[n] for n in data),
        "data.gen_s": sum(selfs[n] for n in data),
        "apps.kernel_calls": calls["apps.kernel"],
        "apps.kernel_s": selfs["apps.kernel"],
        "core.stencil.step_calls": calls["core.stencil.step"],
        "core.stencil.step_s": selfs["core.stencil.step"],
        "core.stencil.speculation_cancel_ratio": ratio(
            calls["core.stencil.cancel_begun_step"], calls["core.stencil.begin_step_early"]
        ),
        "core.stencil_reduce.run_until_s": selfs["core.stencil_reduce.run_until"],
        "core.irregular.start_calls": calls["core.irregular.start"],
        "core.irregular.start_s": selfs["core.irregular.start"],
        "core.generalized.start_s": selfs["core.generalized.start"],
        "core.generalized.global_reduction_s": selfs["core.generalized.global_reduction"],
        "core.reduction_object.insert_many_calls": calls["core.reduction_object.insert_many"],
        "core.reduction_object.insert_many_s": selfs["core.reduction_object.insert_many"],
        "core.checkpoint.s": selfs["core.checkpoint"],
        "device.charge_calls": calls["device.charge"],
        "device.charge_s": selfs["device.charge"],
        "comm.msgs": calls["comm.send"],
        "comm.bytes_computed": vals["comm.send"],
        "comm.send_s": cpu["comm.send"],
        "comm.recv_wait_s": wall["comm.fabric.match_blocked"],
        "comm.collective_calls": outer_coll_calls,
        "comm.collective_s": outer_coll_s,
        "comm.fabric.transmit_calls": calls["comm.fabric.transmit"],
        "comm.fabric.match_calls": (
            calls["comm.fabric.match"] + calls["comm.fabric.match_blocked"]),
        "comm.fabric.match_s": cpu["comm.fabric.match"] + cpu["comm.fabric.match_blocked"],
        "sim.spmd_runs": calls["sim.spmd_run"],
        "sim.launch_s": launch,
        "sim.rank_skew_s": skew,
        "serve.execute_job_calls": calls["serve.execute_job"],
        "serve.execute_job_s": wall["serve.execute_job"],
        "serve.admission_s": selfs["serve.admission"],
        "serve.cache_hit_ratio": ratio(vals["serve.cache.get"], calls["serve.cache.get"]),
        "serve.store.get_calls": calls["serve.store.get"],
        "serve.store.get_s": cpu["serve.store.get"],
        "serve.store.put_calls": calls["serve.store.put"],
        "serve.store.put_s": cpu["serve.store.put"],
        "serve.store.bytes_written": vals["serve.store.put"],
        "campaign.expand_s": cpu["campaign.expand"],
        "campaign.prewarm_s": cpu["campaign.prewarm"],
        "trace.spans": len(spans),
    }
    for layer in ("data", "apps", "core", "device", "comm", "sim", "serve", "campaign"):
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    out.update(extra)
    return out


def write_spans(path: str, spans: list[tuple]) -> None:
    """One JSON array per line, after a header line naming the fields."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["id","parent","name","start","end","cpu","thread","run","value"]\n')
        for s in sorted(spans, key=lambda s: s[3]):
            fh.write(json.dumps(s) + "\n")
