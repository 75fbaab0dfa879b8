"""Quickstart: all three patterns in one small program.

Runs a tiny histogram (generalized reduction), a degree-weighted graph
accumulation (irregular reduction), and a 2-D smoothing pass (stencil) on a
simulated 2-node CPU+GPU cluster, printing results and simulated times.

Usage:  python examples/quickstart.py
"""

import numpy as np

from repro.cluster import laptop_cluster
from repro.core import GRKernel, IRKernel, RuntimeEnv, StencilKernel, shifted
from repro.core.partition import block_partition
from repro.device import WorkModel
from repro.sim import spmd_run

BINS = 16
GRID = np.add.outer(np.linspace(0, 1, 24), np.linspace(0, 2, 24))
RNG = np.random.default_rng(1)
VALUES = RNG.random(20_000)
EDGES = RNG.integers(0, 500, size=(4_000, 2))
EDGES = EDGES[EDGES[:, 0] != EDGES[:, 1]]
WEIGHTS = RNG.random(len(EDGES))


def histogram_emit(data, index, _param):
    """gr_emit_fp: key each value by its bin, with a count of one."""
    keys = np.minimum((data * BINS).astype(int), BINS - 1)
    return keys, np.ones(len(data))


def weight_edges(obj, edges, weights, nodes, _param):
    """ir_edge_compute_fp: accumulate edge weight onto both endpoints."""
    obj.insert_many(edges[:, 0], weights)
    obj.insert_many(edges[:, 1], weights)


def smooth(src, dst, region, _param):
    """stencil_fp: 5-point average."""
    dst[region] = 0.2 * (
        src[region]
        + shifted(src, region, (1, 0))
        + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1))
        + shifted(src, region, (0, -1))
    )


def main(ctx):
    env = RuntimeEnv(ctx, "cpu+1gpu")
    light = WorkModel(name="demo", flops_per_elem=8, bytes_per_elem=16,
                      atomics_per_elem=1, num_reduction_keys=BINS)

    # 1. Generalized reduction: a distributed histogram.
    gr = env.get_GR()
    gr.set_kernel(GRKernel(histogram_emit, "sum", BINS, 1, light))
    offs = block_partition(len(VALUES), ctx.size)
    gr.set_input(VALUES[offs[ctx.rank] : offs[ctx.rank + 1]], global_start=int(offs[ctx.rank]))
    gr.start()
    hist = gr.get_global_reduction()[:, 0]

    # 2. Irregular reduction: weighted degree of every graph node.
    ir = env.get_IR()
    ir.set_kernel(IRKernel(weight_edges, "sum", 1,
                           light.replace(name="degree", num_reduction_keys=500)))
    ir.set_mesh(EDGES, np.zeros(500), WEIGHTS)
    ir.start()
    lo, hi = ir.local_node_range
    degrees = ir.get_local_reduction()[:, 0]

    # 3. Stencil: one smoothing sweep of a small grid.
    st = env.get_stencil()
    st.configure(StencilKernel(smooth, 1, light.replace(name="smooth", atomics_per_elem=0)),
                 GRID.shape)
    st.set_global_grid(GRID)
    st.run(3)
    smoothed = st.gather_global()

    env.finalize()
    return hist, (lo, hi, degrees), smoothed


if __name__ == "__main__":
    result = spmd_run(main, laptop_cluster(num_nodes=2))
    hist, _, smoothed = result.values[0]
    print("histogram:", hist.astype(int))
    total_degree = sum(part[2].sum() for part in (v[1] for v in result.values))
    print(f"sum of weighted degrees: {total_degree:.3f} (expected {2 * WEIGHTS.sum():.3f})")
    if smoothed is not None:
        print(f"smoothed grid mean: {smoothed.mean():.4f}")
    print(f"simulated time: {result.makespan * 1e3:.3f} ms across {result.nranks} nodes")
