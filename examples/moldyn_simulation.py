"""Moldyn on the framework — the paper's Listing 1/2 example, in Python.

Force computation (CF) is an irregular reduction; kinetic energy (KE) and
average velocity (AV) are generalized reductions sharing one GR runtime
instance, exactly as in the paper's case study.

Usage:  python examples/moldyn_simulation.py
"""

import numpy as np

from repro.apps.moldyn import (
    DEVICE_NODE_BYTES,
    DT,
    FORCE_G,
    MoldynConfig,
    gr_work,
    make_cf_work,
)
from repro.cluster import ohio_cluster
from repro.core import GRKernel, IRKernel, RuntimeEnv
from repro.data import geometric_mesh
from repro.sim import spmd_run

CFG = MoldynConfig(functional_nodes=5_000, functional_degree=14, simulated_steps=5)


def force_cmpt(obj, edges, edge_data, nodes, cutoff2):
    """ir_edge_compute_fp (paper Listing 1): pairwise force within cutoff."""
    d = nodes[edges[:, 0], 0:3] - nodes[edges[:, 1], 0:3]
    r2 = np.einsum("nd,nd->n", d, d)
    f = np.where((r2 < cutoff2)[:, None], FORCE_G * d / np.maximum(r2, 1e-12)[:, None], 0.0)
    obj.insert_many(edges[:, 0], f)
    obj.insert_many(edges[:, 1], -f)


def ke_emit(nodes, index, _param):
    """gr_emit_fp for the KE kernel: every node's 0.5*|v|^2 under key 0."""
    v = nodes[:, 3:6]
    return np.zeros(len(nodes), dtype=np.int64), 0.5 * np.einsum("nd,nd->n", v, v)


def av_emit(nodes, index, _param):
    """gr_emit_fp for the AV kernel: velocity and a count under key 0."""
    return (np.zeros(len(nodes), dtype=np.int64),
            np.concatenate([nodes[:, 3:6], np.ones((len(nodes), 1))], axis=1))


def main(ctx):
    positions, edges = geometric_mesh(CFG.functional_nodes, CFG.functional_degree, seed=CFG.seed)
    nodes = np.concatenate([positions, np.zeros_like(positions)], axis=1)
    nodes[:, 3] = 0.1 * np.sin(np.arange(len(nodes)))
    cutoff2 = (CFG.functional_degree / (len(nodes) * (4 / 3) * np.pi)) ** (2 / 3)

    env = RuntimeEnv(ctx, "cpu+2gpu")
    ir = env.get_IR()
    ir.set_kernel(IRKernel(force_cmpt, "sum", 3, make_cf_work(ctx.node, CFG)))
    ir.set_parameter(cutoff2)
    ir.set_mesh(edges, nodes, model_edges=CFG.n_edges, model_nodes=CFG.n_nodes,
                device_node_bytes=DEVICE_NODE_BYTES)

    for _ in range(CFG.simulated_steps):  # the CF time-step loop
        ir.start()
        forces = ir.get_local_reduction()
        updated = ir.get_local_nodes()
        updated[:, 3:6] += forces * DT
        updated[:, 0:3] += updated[:, 3:6] * DT
        ir.update_nodedata(updated)

    # KE and AV reuse one GR runtime with different user functions.
    local = ir.get_local_nodes()
    lo, _hi = ir.local_node_range
    gr = env.get_GR()
    gr.set_kernel(GRKernel(ke_emit, "sum", 1, 1, gr_work("ke")))
    gr.set_input(local, global_start=lo, model_local_elems=CFG.n_nodes // ctx.size)
    gr.start()
    ke = gr.get_global_reduction()[0, 0]

    gr.set_kernel(GRKernel(av_emit, "sum", 1, 4, gr_work("av")))
    gr.set_input(local, global_start=lo, model_local_elems=CFG.n_nodes // ctx.size)
    gr.start()
    raw = gr.get_global_reduction()[0]
    env.finalize()
    return ke, raw[0:3] / max(raw[3], 1.0)


if __name__ == "__main__":
    result = spmd_run(main, ohio_cluster(4))
    ke, av = result.values[0]
    print(f"kinetic energy after {CFG.simulated_steps} steps: {ke:.6f}")
    print(f"average velocity: {np.round(av, 6)}")
    print(f"simulated time on 4 nodes: {result.makespan:.4f} s")
