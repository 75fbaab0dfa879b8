"""PageRank on the framework: a directed irregular reduction.

Per iteration every directed edge ``u -> v`` contributes
``rank[u] / outdeg[u]`` to ``v``; node data carries ``(rank, outdeg)``.
The runtime's ownership filter makes directed updates free: the kernel
inserts only for the destination endpoint, and cross-edge copies on the
source side are dropped by the reduction object's key-range filter.
Convergence is checked with a one-key generalized reduction over the
per-node deltas (an L1 norm), closing the loop with the second pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import GRKernel, IRKernel, emit_keys_batch
from repro.core.env import DeviceConfig, RuntimeEnv
from repro.data.meshes import random_mesh
from repro.device.work import WorkModel
from repro.sim.engine import RankContext
from repro.util.errors import ValidationError

DAMPING = 0.85


@dataclass(frozen=True)
class PageRankConfig:
    """PageRank workload (functional scale only; no paper counterpart)."""

    n_nodes: int = 400
    n_edges: int = 3_000
    max_iterations: int = 60
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 2 or self.n_edges < 1:
            raise ValidationError("need n_nodes >= 2 and n_edges >= 1")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


def contribution_work(n_nodes: int) -> WorkModel:
    return WorkModel(
        name="pagerank.push",
        flops_per_elem=4.0,
        bytes_per_elem=32.0,
        cpu_mem_efficiency=0.7,
        atomics_per_elem=1.0,
        num_reduction_keys=n_nodes,
    )


def norm_work() -> WorkModel:
    return WorkModel(
        name="pagerank.norm",
        flops_per_elem=3.0,
        bytes_per_elem=16.0,
        atomics_per_elem=1.0,
        num_reduction_keys=1,
    )


def contribution_batch(obj, edges: np.ndarray, edata, nodes: np.ndarray, _param) -> None:
    """ir_edge_compute_fp: push rank mass along each directed edge."""
    src = edges[:, 0]
    emit_keys_batch(obj, edges[:, 1], nodes[src, 0] / np.maximum(nodes[src, 1], 1.0))


def generate_graph(config: PageRankConfig) -> np.ndarray:
    """A random directed edge list (duplicates removed)."""
    edges = random_mesh(config.n_nodes, config.n_edges, seed=config.seed)
    # random_mesh sorts endpoints; re-orient half the edges for direction.
    rng = np.random.default_rng(config.seed + 1)
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return np.unique(edges, axis=0)


def rank_program(
    ctx: RankContext, config: PageRankConfig, mix: str | DeviceConfig = "cpu"
) -> dict:
    """SPMD body: iterate push + renormalize until the L1 delta converges."""
    edges = generate_graph(config)
    n = config.n_nodes
    outdeg = np.zeros(n)
    np.add.at(outdeg, edges[:, 0], 1.0)
    nodes = np.column_stack([np.full(n, 1.0 / n), outdeg])

    env = RuntimeEnv(ctx, mix)
    ir = env.get_IR()
    ir.set_kernel(
        IRKernel(contribution_batch, "sum", 1, contribution_work(n))
    )
    ir.set_mesh(edges, nodes)
    lo, hi = ir.local_node_range

    gr = env.get_GR()
    gr.set_kernel(
        GRKernel(
            lambda deltas, index, p: (
                np.zeros(len(deltas), dtype=np.int64), np.abs(deltas[:, 0])
            ),
            "sum",
            1,
            1,
            norm_work(),
        )
    )

    iterations = 0
    for _ in range(config.max_iterations):
        ir.start()
        incoming = ir.get_local_reduction()[:, 0]
        local = ir.get_local_nodes()
        # Dangling mass: nodes without out-edges spread uniformly.
        dangling_local = local[local[:, 1] == 0, 0].sum()
        dangling = ctx.comm.allreduce(dangling_local, "sum")
        new_rank = (1 - DAMPING) / n + DAMPING * (incoming + dangling / n)
        deltas = (new_rank - local[:, 0])[:, None]
        updated = local.copy()
        updated[:, 0] = new_rank
        ir.update_nodedata(updated)
        iterations += 1

        gr.set_input(deltas, global_start=lo)
        gr.start()
        if gr.get_global_reduction()[0, 0] < config.tolerance:
            break

    env.finalize()
    return {"range": (lo, hi), "ranks": ir.get_local_nodes()[:, 0], "iterations": iterations}


def sequential_reference(config: PageRankConfig) -> np.ndarray:
    """Plain NumPy power iteration (same dangling-mass handling)."""
    edges = generate_graph(config)
    n = config.n_nodes
    outdeg = np.zeros(n)
    np.add.at(outdeg, edges[:, 0], 1.0)
    rank = np.full(n, 1.0 / n)
    for _ in range(config.max_iterations):
        incoming = np.zeros(n)
        np.add.at(incoming, edges[:, 1], rank[edges[:, 0]] / np.maximum(outdeg[edges[:, 0]], 1.0))
        dangling = rank[outdeg == 0].sum()
        new_rank = (1 - DAMPING) / n + DAMPING * (incoming + dangling / n)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < config.tolerance:
            break
    return rank
