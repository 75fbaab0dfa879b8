"""Xeon Phi extension: the runtimes must work unchanged on MIC clusters."""

import numpy as np
import pytest

from repro.cluster.mic import mic_cluster, xeon_phi_5110p
from repro.core import GRKernel, RuntimeEnv, StencilKernel, shifted
from repro.core.partition import block_partition
from repro.device import WorkModel
from repro.device.gpu import GPUDevice
from repro.sim.engine import spmd_run


def test_phi_spec_numbers():
    phi = xeon_phi_5110p()
    assert phi.sms == 60
    assert phi.flops == pytest.approx(1.011e12)
    assert phi.mem_bandwidth == pytest.approx(320e9)


def test_mic_cluster_shape():
    c = mic_cluster(num_nodes=4, mics_per_node=2)
    assert c.num_nodes == 4
    assert c.node.num_gpus == 2
    assert "Phi" in c.node.gpus[0].name


def test_phi_beats_m2070_on_dp_compute():
    from repro.cluster.presets import nvidia_m2070

    w = WorkModel(name="dp", flops_per_elem=1000, bytes_per_elem=8,
                  gpu_efficiency=0.5, cpu_efficiency=0.5)
    phi = GPUDevice(xeon_phi_5110p())
    m2070 = GPUDevice(nvidia_m2070())
    assert phi.elem_time(w) < m2070.elem_time(w)


def test_generalized_reduction_on_mic_cluster():
    K = 6
    data = np.random.default_rng(0).random((4000, 2))
    work = WorkModel(name="h", flops_per_elem=20, bytes_per_elem=16,
                     atomics_per_elem=1, num_reduction_keys=K)

    def emit(chunk, index, param):
        keys = np.minimum((chunk[:, 0] * K).astype(int), K - 1)
        return keys, np.ones(len(chunk))

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")  # the "accelerator" is the Phi
        gr = env.get_GR()
        gr.set_kernel(GRKernel(emit, "sum", K, 1, work))
        offs = block_partition(len(data), ctx.size)
        gr.set_input(data[offs[ctx.rank]: offs[ctx.rank + 1]],
                     global_start=int(offs[ctx.rank]))
        gr.start()
        return gr.get_global_reduction()

    res = spmd_run(prog, mic_cluster(num_nodes=2))
    ref = np.zeros((K, 1))
    np.add.at(ref[:, 0], np.minimum((data[:, 0] * K).astype(int), K - 1), 1.0)
    np.testing.assert_allclose(res.values[0], ref)


def test_stencil_on_mic_cluster():
    grid = np.random.default_rng(1).random((20, 20))
    work = WorkModel(name="s", flops_per_elem=8, bytes_per_elem=32)

    def avg(src, dst, region, param):
        dst[region] = 0.5 * (shifted(src, region, (1, 0)) + shifted(src, region, (0, 1)))

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu+1gpu")
        st = env.get_stencil()
        st.configure(StencilKernel(avg, 1, work), grid.shape)
        st.set_global_grid(grid)
        st.run(2)
        return st.gather_global()

    res = spmd_run(prog, mic_cluster(num_nodes=2))
    # sequential reference
    src = np.zeros((22, 22))
    src[1:-1, 1:-1] = grid
    dst = np.zeros_like(src)
    region = (slice(1, 21), slice(1, 21))
    for _ in range(2):
        avg(src, dst, region, None)
        src, dst = dst, src
        src[0] = src[-1] = 0
        src[:, 0] = src[:, -1] = 0
    np.testing.assert_allclose(res.values[0], src[region], rtol=1e-12)


def test_mic_offload_faster_than_host_for_wide_kernels():
    """The point of the extension: a Phi-equipped node beats CPU-only."""
    data = np.random.default_rng(2).random((6000, 2))
    work = WorkModel(name="w", flops_per_elem=400, bytes_per_elem=16,
                     cpu_efficiency=0.5, gpu_efficiency=0.5,
                     atomics_per_elem=1, num_reduction_keys=4,
                     transfer_bytes_per_elem=16)

    def emit(chunk, index, param):
        return np.zeros(len(chunk), dtype=np.int64), chunk[:, 0]

    def prog(ctx, mix):
        env = RuntimeEnv(ctx, mix)
        gr = env.get_GR()
        gr.set_kernel(GRKernel(emit, "sum", 4, 1, work.replace(num_reduction_keys=4)))
        gr.set_input(data, model_local_elems=len(data) * 2000)
        gr.start()
        return None

    cpu = spmd_run(prog, mic_cluster(1), kwargs={"mix": "cpu"}).makespan
    both = spmd_run(prog, mic_cluster(1), kwargs={"mix": "cpu+1gpu"}).makespan
    assert both < cpu
