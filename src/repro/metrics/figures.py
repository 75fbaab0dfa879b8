"""Experiment drivers — one per table/figure in the paper's evaluation.

Every function returns a list of row dicts (ready for
:func:`repro.metrics.reporting.format_table`) and is used both by the
benchmark suite (``benchmarks/``) and by the EXPERIMENTS.md generator
(``examples/generate_experiments_md.py``).

Workload knobs: each driver takes a ``scale`` in {"quick", "full"}.
Both charge the cost model at the paper's workload sizes; they differ only
in the functional array sizes (math volume) and the node counts swept, so
"quick" fits in CI while "full" is what EXPERIMENTS.md reports.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
from repro.apps.baselines import (
    cuda_kmeans,
    cuda_sobel,
    mpi_heat3d,
    mpi_kmeans,
    mpi_minimd,
    mpi_sobel,
)
from repro.cluster.presets import ohio_cluster
from repro.metrics.codesize import code_size_table
from repro.util.errors import ValidationError

#: Device mixes plotted in Fig. 5 (per node).
FIG5_MIXES = ["cpu", "1gpu", "2gpu", "cpu+1gpu", "cpu+2gpu"]

#: Paper values quoted for EXPERIMENTS.md comparisons (from §IV and Table II).
PAPER = {
    "gpu_cpu_ratio": {"kmeans": 2.69, "moldyn": 1.5, "minimd": 1.7, "sobel": 2.24, "heat3d": 2.4},
    "table2_perfect": {
        "kmeans": (3.69, 6.38),
        "moldyn": (2.5, 4.0),
        "minimd": (2.7, 4.4),
        "sobel": (3.24, 5.48),
        "heat3d": (3.4, 5.8),
    },
    "table2_actual": {
        "kmeans": (3.23, 5.16),
        "moldyn": (2.31, 3.79),
        "minimd": (2.15, 3.89),
        "sobel": (2.94, 4.68),
        "heat3d": (3.2, 5.5),
    },
    "mpi_ratio": {"kmeans": 1.05, "minimd": 1.17, "sobel": 0.89, "heat3d": 1.08},
    "fig6_ratio": {"kmeans": 0.53, "minimd": 0.37, "sobel": 0.40, "heat3d": 0.28},
    "fig7_overlap": {"moldyn": 1.37, "sobel": 1.11},
    "fig7_tiling": {"sobel": 1.20},
    "fig8_ratio": {"kmeans": 1.06, "sobel": 1.15},
    "overall_speedup_range": (562, 1760),
}


def _node_counts(scale: str) -> list[int]:
    if scale == "quick":
        return [1, 4]
    if scale == "full":
        return [1, 2, 4, 8, 16, 32]
    raise ValidationError(f"scale must be 'quick' or 'full', got {scale!r}")


def _configs(scale: str) -> dict:
    """Per-app configs; functional sizes grow a little at full scale."""
    if scale == "quick":
        return {
            "kmeans": kmeans.KmeansConfig(functional_points=48_000),
            "moldyn": moldyn.MoldynConfig(functional_nodes=6_000, functional_degree=14),
            "minimd": minimd.MiniMDConfig(functional_cells=8),
            "sobel": sobel.SobelConfig(functional_shape=(384, 384)),
            "heat3d": heat3d.Heat3DConfig(functional_shape=(36, 36, 36)),
        }
    return {
        "kmeans": kmeans.KmeansConfig(functional_points=384_000),
        "moldyn": moldyn.MoldynConfig(),
        "minimd": minimd.MiniMDConfig(),
        "sobel": sobel.SobelConfig(functional_shape=(768, 768)),
        "heat3d": heat3d.Heat3DConfig(),
    }


_APP_RUNNERS: dict[str, Callable] = {
    "kmeans": kmeans.run,
    "moldyn": moldyn.run,
    "minimd": minimd.run,
    "sobel": sobel.run,
    "heat3d": heat3d.run,
}

_MPI_RUNNERS: dict[str, Callable] = {
    "kmeans": mpi_kmeans.run,
    "minimd": mpi_minimd.run,
    "sobel": mpi_sobel.run,
    "heat3d": mpi_heat3d.run,
}


def fig5_scalability(scale: str = "quick", apps: list[str] | None = None) -> list[dict]:
    """Fig. 5: speedup over one CPU core for every app/mix/node-count.

    Also emits the hand-written MPI rows (CPU-only comparator) for the
    four apps that have one, reproducing the §IV-C text comparisons.
    """
    apps = apps or list(_APP_RUNNERS)
    configs = _configs(scale)
    rows = []
    for app in apps:
        config = configs[app]
        for nodes in _node_counts(scale):
            cluster = ohio_cluster(nodes)
            for mix in FIG5_MIXES:
                run = _APP_RUNNERS[app](cluster, config, mix=mix)
                rows.append(
                    {
                        "app": app,
                        "nodes": nodes,
                        "mix": mix,
                        "speedup": run.speedup,
                        "makespan_s": run.makespan,
                    }
                )
            if app in _MPI_RUNNERS:
                run = _MPI_RUNNERS[app](cluster, config)
                rows.append(
                    {
                        "app": app,
                        "nodes": nodes,
                        "mix": "mpi-handwritten",
                        "speedup": run.speedup,
                        "makespan_s": run.makespan,
                    }
                )
    return rows


def fig5_summary(rows: list[dict]) -> list[dict]:
    """§IV-C derived numbers: framework-vs-MPI ratio and node scaling."""
    out = []
    apps = sorted({r["app"] for r in rows})
    for app in apps:
        mine = [r for r in rows if r["app"] == app]
        nodes = sorted({r["nodes"] for r in mine})
        first, last = nodes[0], nodes[-1]

        def val(mix, n):
            for r in mine:
                if r["mix"] == mix and r["nodes"] == n:
                    return r["speedup"]
            return None

        cpu_first, cpu_last = val("cpu", first), val("cpu", last)
        best_last = val("cpu+2gpu", last)
        mpi_last = val("mpi-handwritten", last)
        out.append(
            {
                "app": app,
                "nodes": f"{first}->{last}",
                "cpu_scaling": (cpu_last / cpu_first) if cpu_first and cpu_last else None,
                "fw_over_mpi": (cpu_last / mpi_last) if mpi_last and cpu_last else None,
                "best_speedup": best_last,
            }
        )
    return out


def table2_intranode(scale: str = "quick", apps: list[str] | None = None) -> list[dict]:
    """Table II: perfect vs. actual CPU+1GPU / CPU+2GPU speedups over CPU.

    *Perfect* uses the measured single-device ratios (as the paper does);
    *actual* is the simulated heterogeneous run — the gap is the scheduling
    /synchronization/communication overhead the table quantifies.
    """
    apps = apps or list(_APP_RUNNERS)
    configs = _configs(scale)
    cluster = ohio_cluster(1)
    rows = []
    for app in apps:
        config = configs[app]
        runs = {
            mix: _APP_RUNNERS[app](cluster, config, mix=mix)
            for mix in ("cpu", "1gpu", "cpu+1gpu", "cpu+2gpu")
        }
        gpu_ratio = runs["cpu"].makespan / runs["1gpu"].makespan
        rows.append(
            {
                "app": app,
                "gpu_vs_cpu": gpu_ratio,
                "perfect_1gpu": 1 + gpu_ratio,
                "actual_1gpu": runs["cpu"].makespan / runs["cpu+1gpu"].makespan,
                "perfect_2gpu": 1 + 2 * gpu_ratio,
                "actual_2gpu": runs["cpu"].makespan / runs["cpu+2gpu"].makespan,
                "paper_actual_1gpu": PAPER["table2_actual"][app][0],
                "paper_actual_2gpu": PAPER["table2_actual"][app][1],
            }
        )
    return rows


def fig6_code_sizes(repo_root: str | Path | None = None) -> list[dict]:
    """Fig. 6: code-size ratio of framework user programs vs MPI baselines."""
    root = Path(repo_root) if repo_root else Path(__file__).resolve().parents[3]
    baselines = root / "src" / "repro" / "apps" / "baselines"
    examples = root / "examples"
    pairs = {
        "kmeans": (examples / "kmeans_clustering.py", baselines / "mpi_kmeans.py"),
        "minimd": (examples / "minimd_atoms.py", baselines / "mpi_minimd.py"),
        "sobel": (examples / "sobel_edges.py", baselines / "mpi_sobel.py"),
        "heat3d": (examples / "heat_diffusion.py", baselines / "mpi_heat3d.py"),
    }
    rows = code_size_table(pairs)
    for row in rows:
        row["paper_ratio"] = PAPER["fig6_ratio"][row["app"]]
    return rows


def fig7_optimizations(scale: str = "quick") -> list[dict]:
    """Fig. 7: overlap (Moldyn, Sobel) and tiling (Sobel) effects by nodes."""
    configs = _configs(scale)
    rows = []
    for nodes in _node_counts(scale):
        cluster = ohio_cluster(nodes)
        base = moldyn.run(cluster, configs["moldyn"], mix="cpu+2gpu", overlap=True)
        nool = moldyn.run(cluster, configs["moldyn"], mix="cpu+2gpu", overlap=False)
        rows.append(
            {
                "app": "moldyn",
                "optimization": "overlap",
                "nodes": nodes,
                "with_opt_s": base.makespan,
                "without_opt_s": nool.makespan,
                "gain": nool.makespan / base.makespan,
            }
        )
        base = sobel.run(cluster, configs["sobel"], mix="cpu+2gpu", overlap=True, tiling=True)
        nool = sobel.run(cluster, configs["sobel"], mix="cpu+2gpu", overlap=False, tiling=True)
        noti = sobel.run(cluster, configs["sobel"], mix="cpu+2gpu", overlap=True, tiling=False)
        rows.append(
            {
                "app": "sobel",
                "optimization": "overlap",
                "nodes": nodes,
                "with_opt_s": base.makespan,
                "without_opt_s": nool.makespan,
                "gain": nool.makespan / base.makespan,
            }
        )
        rows.append(
            {
                "app": "sobel",
                "optimization": "tiling",
                "nodes": nodes,
                "with_opt_s": base.makespan,
                "without_opt_s": noti.makespan,
                "gain": noti.makespan / base.makespan,
            }
        )
    return rows


def fig8_gpu_baselines(scale: str = "quick") -> list[dict]:
    """Fig. 8: framework (single GPU) vs hand-written CUDA kernels."""
    if scale == "quick":
        kcfg = kmeans.KmeansConfig(n_points=10_000_000, functional_points=50_000)
        scfg = sobel.SobelConfig(shape=(8192, 8192), functional_shape=(256, 256))
    else:
        kcfg = kmeans.KmeansConfig(n_points=10_000_000, functional_points=200_000)
        scfg = sobel.SobelConfig(shape=(8192, 8192), functional_shape=(768, 768))
    cluster = ohio_cluster(1)
    rows = []
    fw = kmeans.run(cluster, kcfg, mix="1gpu")
    cu = cuda_kmeans.run(cluster, kcfg)
    rows.append(
        {
            "app": "kmeans (10M pts)",
            "framework_s": fw.makespan,
            "cuda_s": cu.makespan,
            "fw_over_cuda": fw.makespan / cu.makespan,
            "paper_fw_over_cuda": PAPER["fig8_ratio"]["kmeans"],
        }
    )
    fw = sobel.run(cluster, scfg, mix="1gpu")
    cu = cuda_sobel.run(cluster, scfg)
    rows.append(
        {
            "app": "sobel (8192^2)",
            "framework_s": fw.makespan,
            "cuda_s": cu.makespan,
            "fw_over_cuda": fw.makespan / cu.makespan,
            "paper_fw_over_cuda": PAPER["fig8_ratio"]["sobel"],
        }
    )
    return rows


def ablations(scale: str = "quick") -> list[dict]:
    """DESIGN.md §5 ablations: the design choices the paper motivates.

    - reduction localization on/off (Kmeans GPU),
    - two-stream pipelining on/off (Kmeans GPU),
    - adaptive vs static-even device partitioning (Moldyn heterogeneous),
    - dynamic chunk size sweep (Kmeans heterogeneous),
    - temporal-blocking factor sweep (Jacobi2D, per cluster preset).
    """
    configs = _configs(scale)
    cluster = ohio_cluster(1)
    rows = []

    from repro.sim.engine import spmd_run

    kcfg = configs["kmeans"]
    for localized in (True, False):
        res = spmd_run(
            lambda ctx: _kmeans_custom(ctx, kcfg, localized=localized, streams=2),
            cluster,
        )
        rows.append(
            {
                "ablation": "reduction-localization",
                "setting": "on" if localized else "off",
                "app": "kmeans/1gpu",
                "time_s": res.makespan,
            }
        )
    for streams in (1, 2, 4):
        res = spmd_run(
            lambda ctx: _kmeans_custom(ctx, kcfg, localized=True, streams=streams),
            cluster,
        )
        rows.append(
            {
                "ablation": "gpu-streams",
                "setting": str(streams),
                "app": "kmeans/1gpu",
                "time_s": res.makespan,
            }
        )
    for chunks in (32, 512, 4096):
        res = spmd_run(
            lambda ctx: _kmeans_custom(
                ctx, kcfg, localized=True, streams=2, mix="cpu+2gpu",
                chunk_elems=max(4, kcfg.functional_points // chunks),
            ),
            cluster,
        )
        rows.append(
            {
                "ablation": "chunk-count",
                "setting": str(chunks),
                "app": "kmeans/cpu+2gpu",
                "time_s": res.makespan,
            }
        )
    for adaptive in (True, False):
        if adaptive:
            res = moldyn.run(cluster, configs["moldyn"], mix="cpu+2gpu")
        else:
            res = _moldyn_static(cluster, configs["moldyn"])
        rows.append(
            {
                "ablation": "adaptive-partitioning",
                "setting": "on" if adaptive else "off(static-even)",
                "app": "moldyn/cpu+2gpu",
                "time_s": res.makespan,
            }
        )
    rows.extend(_time_block_ablation())
    return rows


def _time_block_ablation() -> list[dict]:
    """Makespan vs temporal-blocking factor, per cluster preset.

    Fixed-iteration Jacobi2D (tol below reach, so every k runs the same 24
    sweeps): on the bandwidth-rich laptop preset blocking barely matters,
    on the latency-dominated preset the per-message alpha amortization
    shows up directly — the Fig. 7-style optimization trade.
    """
    from repro.apps.extra import jacobi2d
    from repro.cluster.presets import laptop_cluster, latency_cluster

    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=1e-12, max_iters=24)
    rows = []
    for preset, cl in (("laptop", laptop_cluster(2)), ("latency", latency_cluster(2))):
        for k in (1, 2, 4):
            res = jacobi2d.run(cl, config, mix="cpu", time_block=k)
            rows.append(
                {
                    "ablation": "time-block",
                    "setting": f"k={k}@{preset}",
                    "app": "jacobi2d/cpu",
                    "time_s": res.makespan,
                }
            )
    return rows


def _kmeans_custom(ctx, config, *, localized, streams, mix="1gpu", chunk_elems=None):
    """One Kmeans pass with explicit runtime knobs (ablation helper)."""
    from repro.core.env import RuntimeEnv
    from repro.core.partition import block_partition
    from repro.data.points import clustered_points

    points, _ = clustered_points(config.functional_points, config.k, config.dims, seed=config.seed)
    centers = points[: config.k].astype("float64")
    env = RuntimeEnv(ctx, mix)
    gr = env.get_GR(localized=localized, gpu_streams=streams, chunk_elems=chunk_elems)
    gr.set_kernel(kmeans.make_kernel(config, ctx.node))
    offs = block_partition(len(points), ctx.size)
    lo, hi = int(offs[ctx.rank]), int(offs[ctx.rank + 1])
    gr.set_input(
        points[lo:hi],
        global_start=lo,
        model_local_elems=config.n_points // ctx.size,
        parameter=centers,
    )
    gr.start()
    gr.get_global_reduction()
    return None


def _moldyn_static(cluster, config):
    """Moldyn with the adaptive repartitioning disabled (even split)."""
    from repro.sim.engine import spmd_run
    from repro.apps.common import AppRun, extrapolate_steps, sequential_time

    def program(ctx):
        from repro.core.env import RuntimeEnv

        node_data, edges = moldyn._functional_mesh(config)
        env = RuntimeEnv(ctx, "cpu+2gpu")
        ir = env.get_IR(adaptive=False)
        ir.set_kernel(moldyn.make_cf_kernel(ctx.node, config))
        ir.set_parameter(1.0)
        ir.set_mesh(
            edges,
            node_data,
            model_edges=config.n_edges,
            model_nodes=config.n_nodes,
            device_node_bytes=moldyn.DEVICE_NODE_BYTES,
        )
        times = []
        for _ in range(config.simulated_steps):
            t0 = ctx.clock.now
            ir.start()
            ir.update_nodedata(ir.get_local_nodes())
            times.append(ctx.clock.now - t0)
        return times

    result = spmd_run(program, cluster)
    makespan = max(extrapolate_steps(v, config.iterations) for v in result.values)
    seq = sequential_time(moldyn.base_cf_work(), config.n_edges, cluster.node, config.iterations)
    return AppRun(
        app="moldyn-static", mix="cpu+2gpu", nodes=cluster.num_nodes, makespan=makespan, seq_time=seq
    )
