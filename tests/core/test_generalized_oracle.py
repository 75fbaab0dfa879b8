"""Differential oracle for the generalized-reduction runtime.

One hypothesis-drawn case — a device mix, 1–4 nodes, reduction
localization on or off, a chunk size, an input size and a kernel — runs
:meth:`GeneralizedReductionRuntime.start` on every rank.  The kernel is
Kmeans, a float64 sum kernel or a float32 min/max kernel.  Kmeans and the
sum kernel take the 2-D ``bincount`` fold; Kmeans sums float32 points
exactly, so only the sum kernel's values, spread over six decades, show a
reassociated fold.  The min/max objects take the ``ufunc.at`` path.  The
keyed kernels' keys reach past both ends of the key space and their
second value column is the unit's global index.

Each rank's local reduction must be bit-identical to a per-chunk replay:
:class:`ChunkScheduler` with a recording ``exec_fn`` over the same devices,
one ``insert_many`` per chunk into per-device objects, merged in device
order.  The replay's schedule must also equal the runtime's, so both fold
the same chunks in the same order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import kmeans
from repro.core.api import GRKernel
from repro.core.env import RuntimeEnv
from repro.core.partition import block_partition
from repro.core.reduction_object import DenseReductionObject
from repro.core.scheduler import ChunkScheduler
from repro.data.points import clustered_points
from repro.device.work import WorkModel
from tests.conftest import run_spmd

MIXES = ["cpu", "1gpu", "2gpu", "cpu+1gpu", "cpu+2gpu"]
GPU_CHUNKS = 8
STREAMS = 2
K = 6


def _keyed_kernel(op: str) -> GRKernel:
    def emit(data, index, param):
        keys = np.floor(data[:, 0] * (K + 2)).astype(np.int64) - 1  # -1 .. K
        return keys, np.column_stack([data[:, 1] * 10.0 ** (6 * data[:, 0]), index])

    work = WorkModel(
        name=f"oracle.{op}", flops_per_elem=12, bytes_per_elem=16,
        atomics_per_elem=1, num_reduction_keys=K,
    )
    dtype = np.float64 if op == "sum" else np.float32
    return GRKernel(emit, op, K, 2, work, np.dtype(dtype))


def _case(kernel: str, n: int, seed: int, node):
    """(input, kernel, parameter) for one drawn case."""
    if kernel == "kmeans":
        config = kmeans.KmeansConfig(n_points=10 * n, functional_points=n, seed=seed)
        points, _ = clustered_points(n, config.k, config.dims, seed=seed)
        return points, kmeans.make_kernel(config, node), points[: config.k].astype(np.float64)
    data = np.random.default_rng(seed).random((n, 2))
    return data, _keyed_kernel(kernel), None


def _program(kernel_name, mix, localized, chunk_elems, n, seed):
    def prog(ctx):
        data, kernel, param = _case(kernel_name, n, seed, ctx.node)
        offs = block_partition(n, ctx.size)
        lo, hi = int(offs[ctx.rank]), int(offs[ctx.rank + 1])
        local = data[lo:hi]
        env = RuntimeEnv(ctx, mix)
        gr = env.get_GR(
            chunk_elems=chunk_elems, localized=localized,
            gpu_chunk_multiplier=GPU_CHUNKS, gpu_streams=STREAMS,
        )
        gr.set_kernel(kernel)
        gr.set_input(local, global_start=lo, parameter=param)
        t0 = ctx.clock.now
        gr.start()
        got = gr.get_local_reduction().values.copy()
        ran = gr.last_schedule

        for dev in env.devices:
            dev.reset(start=t0)
        chunks = []
        replay = ChunkScheduler(
            env.devices, localized=localized, framework=True, gpu_streams=STREAMS
        ).run(
            kernel.work, len(local), chunk_elems, start=t0,
            exec_fn=lambda dev, s, k: chunks.append((dev.name, s, k)),
            gpu_chunk_multiplier=GPU_CHUNKS,
        )
        objs = {
            dev.name: DenseReductionObject(
                kernel.num_keys, kernel.value_width, kernel.reduce_op, kernel.dtype
            )
            for dev in env.devices
        }
        for name, s, k in chunks:
            keys, values = kernel.emit_batch(local[s : s + k], np.arange(lo + s, lo + s + k), param)
            objs[name].insert_many(keys, values)
        want = objs[env.devices[0].name]
        for dev in env.devices[1:]:
            want.merge(objs[dev.name])
        schedules = [
            (repr(r.makespan), [(w.chunks, w.elems) for w in r.workers]) for r in (ran, replay)
        ]
        return got, want.values, schedules

    return prog


@settings(max_examples=100, deadline=None)
@given(
    kernel=st.sampled_from(["kmeans", "sum", "min", "max"]),
    mix=st.sampled_from(MIXES),
    nodes=st.integers(1, 4),
    localized=st.booleans(),
    chunk_elems=st.integers(16, 400),
    n=st.integers(300, 9000),
    seed=st.integers(0, 50),
)
def test_local_reduction_matches_per_chunk_replay(
    kernel, mix, nodes, localized, chunk_elems, n, seed
):
    res = run_spmd(
        _program(kernel, mix, localized, chunk_elems, n, seed), nodes=nodes, gpus_per_node=2
    )
    for rank, (got, want, (ran, replay)) in enumerate(res.values):
        assert ran == replay, f"rank {rank}: replay scheduled differently"
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), f"rank {rank}: local reduction differs"
