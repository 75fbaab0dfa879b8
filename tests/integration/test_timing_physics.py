"""Virtual-time physics: costs must follow the declared models exactly."""

import numpy as np
import pytest

from repro.cluster.presets import ohio_cluster
from repro.core.api import IRKernel, StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from repro.sim.engine import spmd_run


def test_network_message_cost_matches_loggp():
    cluster = ohio_cluster(2)
    nbytes = 3_200_000  # exactly 1 ms of QDR wire

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.zeros(nbytes // 8), 1, tag=0)
        else:
            ctx.comm.recv(source=0, tag=0)
            return ctx.clock.now

    res = spmd_run(prog, cluster)
    link = cluster.network
    expected = link.send_overhead + link.latency + nbytes / link.bandwidth + link.recv_overhead
    assert res.values[1] == pytest.approx(expected, rel=1e-9)


def test_intra_node_messages_cheaper_than_network():
    cluster = ohio_cluster(2)

    def prog(ctx, peer):
        if ctx.rank == 0:
            ctx.comm.send(np.zeros(125_000), peer, tag=0)
        elif ctx.rank == peer:
            ctx.comm.recv(source=0, tag=0)
            return ctx.clock.now

    intra = spmd_run(prog, cluster, ranks_per_node=2, kwargs={"peer": 1}).values[1]
    inter = spmd_run(prog, cluster, ranks_per_node=2, kwargs={"peer": 2}).values[2]
    assert intra < inter


def test_ir_gpu_node_upload_gates_compute():
    """Per-step node re-upload must appear in the GPU step time."""
    rng = np.random.default_rng(0)
    edges = np.unique(rng.integers(0, 200, size=(1200, 2)), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    nodes = rng.random((200, 3))
    work = WorkModel(
        name="w", flops_per_elem=10, bytes_per_elem=40,
        atomics_per_elem=2, num_reduction_keys=200,
    )

    def kern(obj, e, ed, nv, p):
        obj.insert_many(e[:, 0], nv[e[:, 1], 0])

    def prog(ctx, node_bytes):
        env = RuntimeEnv(ctx, "1gpu")
        ir = env.get_IR()
        ir.set_kernel(IRKernel(kern, "sum", 1, work))
        ir.set_mesh(edges, nodes, model_nodes=200 * 50_000, device_node_bytes=node_bytes)
        times = []
        for _ in range(3):
            t0 = ctx.clock.now
            ir.start()
            ir.update_nodedata(ir.get_local_nodes())
            times.append(ctx.clock.now - t0)
        return times[-1]

    small = spmd_run(prog, ohio_cluster(1), kwargs={"node_bytes": 8.0}).values[0]
    large = spmd_run(prog, ohio_cluster(1), kwargs={"node_bytes": 80.0}).values[0]
    # 10x the uploaded bytes -> measurably longer steady-state step.
    assert large > small * 1.5


def test_stencil_halo_wire_scales_with_face_not_volume():
    """Doubling only the non-face axis must not change per-face wire cost
    noticeably more than the compute grows."""
    work = WorkModel(name="s", flops_per_elem=8, bytes_per_elem=16)

    def avg(src, dst, region, p):
        dst[region] = shifted(src, region, (1, 0)) + shifted(src, region, (0, 1))

    def prog(ctx, shape, model):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil(overlap=False)
        st.configure(StencilKernel(avg, 1, work), shape, dims=(2, 1), model_shape=model)
        st.set_global_grid(np.ones(shape))
        st.step()
        t0 = ctx.clock.now
        st.step()
        return ctx.clock.now - t0

    base = spmd_run(
        prog, ohio_cluster(2), kwargs={"shape": (32, 32), "model": (3200, 3200)}
    ).makespan
    wide_model = spmd_run(
        prog, ohio_cluster(2), kwargs={"shape": (32, 32), "model": (6400, 3200)}
    ).makespan
    # Face (axis-0 split -> face spans axis 1) unchanged; compute doubles.
    assert wide_model < 2.4 * base
    assert wide_model > 1.5 * base


def test_gr_localization_off_costs_scale_with_key_count():
    """Fewer keys => worse contention on the unlocalized path."""
    from repro.core.api import GRKernel

    data = np.random.default_rng(1).random((4000, 1))

    def run_with(num_keys):
        work = WorkModel(
            name="w", flops_per_elem=20, bytes_per_elem=8,
            atomics_per_elem=1, num_reduction_keys=num_keys,
        )

        def emit(chunk, index, p):
            return (chunk[:, 0] * num_keys).astype(int) % num_keys, np.ones(len(chunk))

        def prog(ctx):
            env = RuntimeEnv(ctx, "1gpu")
            gr = env.get_GR(localized=False)
            gr.set_kernel(GRKernel(emit, "sum", num_keys, 1, work))
            gr.set_input(data, model_local_elems=len(data) * 1000)
            gr.start()
            return None

        return spmd_run(prog, ohio_cluster(1)).makespan

    assert run_with(2) > run_with(64) * 1.5
