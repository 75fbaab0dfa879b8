"""Virtual-output pins of the wall-clock workloads, and the bench's gates.

``bench_wallclock_pins.json`` pins the virtual outputs (makespans,
iteration counts, the Kmeans emit checksum) of the workloads that the
wall-clock measurements are taken on.  Each is replayed once here at
the same sizes and compared repr-exact, so a change that moves any of
them by one ulp fails tier-1.  The 384-rank MPI Kmeans baseline is
pinned by ``test_many_ranks.py``.

The second half unit-tests ``benchmarks/bench_wallclock.py``'s same-host
gates on hand-made records, without timing anything.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
from repro.apps.extra import jacobi2d
from repro.cluster.presets import latency_cluster, ohio_cluster
from repro.core.env import RuntimeEnv
from repro.sim.engine import spmd_run

REPO = Path(__file__).resolve().parents[2]

NODES = 4
APP_CONFIGS = {
    "kmeans": (kmeans, kmeans.KmeansConfig(functional_points=60_000, iterations=1)),
    "sobel": (sobel, sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=3)),
    "heat3d": (heat3d, heat3d.Heat3DConfig(functional_shape=(36, 36, 36), simulated_steps=3)),
    "minimd": (minimd, minimd.MiniMDConfig(functional_cells=8, simulated_steps=3)),
    "moldyn": (moldyn, moldyn.MoldynConfig(functional_nodes=4_000, simulated_steps=3)),
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_wallclock", REPO / "benchmarks" / "bench_wallclock.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pinned():
    return json.loads((Path(__file__).parent / "bench_wallclock_pins.json").read_text())


def _assert_pinned(cases: dict, pinned: dict) -> None:
    for name, case in cases.items():
        assert set(case) == set(pinned[name]), name
        for key, value in case.items():
            assert repr(value) == repr(pinned[name][key]), (
                f"{name}.{key} drifted: {pinned[name][key]!r} -> {value!r}"
            )


def test_app_makespans_replay(pinned):
    cluster = ohio_cluster(NODES)
    cases = {
        name: {"makespan": mod.run(cluster, config).makespan}
        for name, (mod, config) in APP_CONFIGS.items()
    }
    _assert_pinned(cases, pinned)


def _stencil_steps_program(mod, config):
    """The stencil step loop alone: configure, seed the grid, run."""

    def prog(ctx):
        st = RuntimeEnv(ctx, "cpu+2gpu").get_stencil()
        st.configure(
            mod.make_kernel(ctx.node),
            config.functional_shape,
            model_shape=config.shape,
            parameter=None if mod is sobel else heat3d.ALPHA,
        )
        if mod is sobel:
            from repro.data.grids import synthetic_image

            st.set_global_grid(synthetic_image(config.functional_shape, seed=config.seed))
        else:
            from repro.data.grids import heat3d_initial

            st.set_global_grid(heat3d_initial(config.functional_shape, seed=config.seed))
        st.run(config.simulated_steps)

    return prog


def test_step_loop_makespans_replay(pinned):
    cluster = ohio_cluster(NODES)
    cases = {}
    for name, mod, config in [
        ("sobel_steps", sobel, sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=8)),
        (
            "heat3d_steps",
            heat3d,
            heat3d.Heat3DConfig(functional_shape=(36, 36, 36), simulated_steps=8),
        ),
    ]:
        res = spmd_run(_stencil_steps_program(mod, config), cluster)
        cases[name] = {"makespan": res.makespan}
    _assert_pinned(cases, pinned)


def test_ir_step_loop_makespans_replay(pinned):
    # The apps' default mesh sizes: on reduced meshes the per-step rank
    # rendezvous, not the reduction path, dominates the loop.
    cluster = ohio_cluster(NODES)
    cases = {
        "moldyn_steps": {
            "makespan": moldyn.run(cluster, moldyn.MoldynConfig(simulated_steps=8)).makespan
        },
        "minimd_steps": {
            "makespan": minimd.run(cluster, minimd.MiniMDConfig(simulated_steps=8)).makespan
        },
    }
    _assert_pinned(cases, pinned)


def test_convergence_loop_replay(pinned):
    config = jacobi2d.Jacobi2DConfig(shape=(32, 32), tol=1e-3, max_iters=200)
    run = jacobi2d.run(ohio_cluster(NODES), config, mix="cpu+2gpu")
    cases = {
        "stencil_converge": {
            "makespan": run.makespan,
            "iterations": run.spmd.values[0]["iterations"],
        }
    }
    _assert_pinned(cases, pinned)


def test_time_block_makespans_replay(pinned):
    # Fixed sweep count (tol below reach) so every k runs identical math;
    # the latency preset makes the per-message alpha the term k amortizes.
    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=1e-12, max_iters=24)
    cluster = latency_cluster(2)
    spans = {k: jacobi2d.run(cluster, config, mix="cpu", time_block=k).makespan for k in (1, 2, 4)}
    assert spans[4] < spans[2] < spans[1]
    cases = {"stencil_timeblock": {f"makespan_k{k}": span for k, span in spans.items()}}
    _assert_pinned(cases, pinned)


def test_kmeans_emit_checksum_replay(pinned):
    """The batched emit kernel over the chunk sizes the GR runtime schedules,
    run once per block of whole chunks and folded chunk by chunk."""
    from repro.core.generalized import BLOCK_ROWS
    from repro.core.reduction_object import DenseReductionObject
    from repro.data.points import clustered_points

    config = APP_CONFIGS["kmeans"][1]
    points, _ = clustered_points(config.functional_points, config.k, config.dims, seed=config.seed)
    centers = points[: config.k].astype(np.float64)
    emit = kmeans.make_emit(config)
    chunk = max(16, len(points) // 512)
    block = max(1, BLOCK_ROWS // chunk) * chunk
    obj = DenseReductionObject(config.k, config.dims + 1, "sum", np.float64)
    for start in range(0, len(points), block):
        rows = points[start : start + block]
        sizes = np.diff(np.r_[0 : len(rows) : chunk, len(rows)])
        obj.insert_chunks(*emit(rows, np.arange(start, start + len(rows)), centers), sizes)
    _assert_pinned({"kmeans_emit": {"checksum": float(np.sum(obj.as_array()))}}, pinned)


def test_fabric_pingpong_replay(pinned):
    def pingpong(ctx, n=2_000):
        peer = 1 - ctx.rank
        if ctx.rank == 0:
            for i in range(n):
                ctx.comm.send(i, peer, tag=1)
                ctx.comm.recv(source=peer, tag=2)
        else:
            for _ in range(n):
                ctx.comm.send(ctx.comm.recv(source=peer, tag=1), peer, tag=2)

    res = spmd_run(pingpong, ohio_cluster(1), ranks_per_node=2)
    _assert_pinned({"fabric_pingpong": {"makespan": res.makespan}}, pinned)


def test_obs_overhead_makespan_replay(bench, pinned):
    run = heat3d.run(ohio_cluster(1), bench.OBS_CONFIG)
    _assert_pinned({"obs_overhead": {"makespan": run.makespan}}, pinned)


def test_campaign_makespans_replay(bench, pinned):
    from repro.serve import execute_job

    spans = [execute_job(spec)["makespan"] for spec in bench.campaign_spec().expand()]
    _assert_pinned({"campaign_throughput": {"makespans": spans}}, pinned)


# -- the bench's same-host gates ---------------------------------------------
def _record(cpus: int = 2, **checks) -> dict:
    """A record that passes every gate, with ``checks`` fields overridden."""
    record = {
        "host": {"cpus": cpus},
        "checks": {
            "obs_overhead": {
                "plain_wall_s": 0.1,
                "instrumented_wall_s": 0.1,
                "overhead_ratio": 1.0,
            },
            "threads_vs_processes": {
                "threads_wall_s": 0.5,
                "processes_wall_s": 0.4,
                "speedup": 1.25,
            },
            "campaign_throughput": {
                "sequential_wall_s": 0.2,
                "batched_wall_s": 0.1,
                "speedup": 2.0,
                "warm_rerun_executed": 0,
            },
        },
    }
    for name, fields in checks.items():
        record["checks"][name].update(fields)
    return record


def test_gates_pass_on_a_clean_record(bench):
    assert bench.gate_failures(_record(cpus=1)) == []
    assert bench.gate_failures(_record(cpus=2)) == []


def test_obs_overhead_gate(bench):
    assert bench.gate_failures(_record(obs_overhead={"overhead_ratio": 1.05})) == []
    failures = bench.gate_failures(_record(obs_overhead={"overhead_ratio": 1.06}))
    assert len(failures) == 1 and failures[0].startswith("obs_overhead:")


@pytest.mark.parametrize("cpus, failed", [(2, True), (1, False)])
def test_processes_slower_than_threads_gated_on_multicore_only(bench, cpus, failed):
    slower = {"threads_wall_s": 0.4, "processes_wall_s": 0.5, "speedup": 0.8}
    failures = bench.gate_failures(_record(cpus=cpus, threads_vs_processes=slower))
    assert [f.split(":")[0] for f in failures] == (["threads_vs_processes"] if failed else [])


@pytest.mark.parametrize("cpus, failed", [(2, True), (1, False)])
def test_batched_slower_than_sequential_gated_on_multicore_only(bench, cpus, failed):
    slower = {"sequential_wall_s": 0.1, "batched_wall_s": 0.2, "speedup": 0.5}
    failures = bench.gate_failures(_record(cpus=cpus, campaign_throughput=slower))
    assert [f.split(":")[0] for f in failures] == (["campaign_throughput"] if failed else [])


@pytest.mark.parametrize("cpus", [1, 2])
def test_warm_rerun_must_execute_nothing(bench, cpus):
    failures = bench.gate_failures(
        _record(cpus=cpus, campaign_throughput={"warm_rerun_executed": 1})
    )
    assert len(failures) == 1 and "warm re-run executed 1 job(s)" in failures[0]
