"""Kmeans on the framework — the paper's generalized-reduction application.

User-level program: define the emit function (one key and one value row
per point), hand it to the GR runtime, iterate.  Partitioning, CPU/GPU
scheduling, the scatter into reduction objects and the global combine are
the framework's job.

Usage:  python examples/kmeans_clustering.py
"""

import numpy as np

from repro.apps.kmeans import KmeansConfig, make_work
from repro.cluster import ohio_cluster
from repro.core import GRKernel, RuntimeEnv
from repro.core.partition import block_partition
from repro.data import clustered_points
from repro.sim import spmd_run

CFG = KmeansConfig(functional_points=60_000, iterations=3)


def kmeans_emit(points, index, centers):
    """gr_emit_fp: key each point by its nearest center, value [x, y, z, 1]."""
    diff = points[:, None, :].astype(np.float64) - centers[None, :, :]
    keys = np.einsum("nkd,nkd->nk", diff, diff).argmin(axis=1)
    values = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    return keys, values


def main(ctx):
    points, _ = clustered_points(CFG.functional_points, CFG.k, CFG.dims, seed=CFG.seed)
    centers = points[: CFG.k].astype(np.float64)

    env = RuntimeEnv(ctx, "cpu+2gpu")
    gr = env.get_GR()
    gr.set_kernel(GRKernel(kmeans_emit, "sum", CFG.k, CFG.dims + 1, make_work(CFG, ctx.node)))

    offsets = block_partition(len(points), ctx.size)
    lo, hi = int(offsets[ctx.rank]), int(offsets[ctx.rank + 1])
    for _ in range(CFG.iterations):
        gr.set_input(points[lo:hi], global_start=lo,
                     model_local_elems=CFG.n_points // ctx.size, parameter=centers)
        gr.start()
        combined = gr.get_global_reduction()
        counts = combined[:, -1:]
        centers = np.where(counts > 0, combined[:, :-1] / np.maximum(counts, 1.0), centers)
    env.finalize()
    return centers


if __name__ == "__main__":
    result = spmd_run(main, ohio_cluster(4))
    centers = result.values[0]
    print(f"{CFG.k} centers after {CFG.iterations} iterations; first three:")
    print(np.round(centers[:3], 4))
    print(f"simulated time on 4 CPU+2GPU nodes: {result.makespan:.4f} s")
