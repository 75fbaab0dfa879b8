"""The three workloads: their inputs, passes and output checks.

Each workload is a closed loop with one client: one operation in flight
at a time, all concurrency coming from the program itself (rank threads,
job threads, worker processes).  The seed only generates inputs.  A
repetition is two passes over the workload's operations:

- a *cold* pass, starting from empty caches (a fresh ResultStore on
  campaign, an emptied dataset memo elsewhere), then
- an *extend* pass over warm caches (on campaign a sweep sharing half
  its points with the cold one).

Output checks run outside every timer.  The first time an operation runs
its output is compared with an oracle; every repeat must reproduce the
first run's virtual makespan repr-exactly.  Errors, rejections and
mismatches are counted, never skipped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass
class Tally:
    """Operations attempted and failed, plus the makespan contract state."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: wall seconds spent checking outputs (kept out of setup_s)
    check_s: float = 0.0
    #: operation key -> repr of its first virtual makespan
    makespans: dict[str, str] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(what)

    def makespan(self, key: str, value: Any) -> bool:
        """Record ``key``'s makespan; False when a repeat differs from the first."""
        first = self.makespans.setdefault(key, repr(value))
        return first == repr(value)

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.makespans):
            h.update(f"{key}={self.makespans[key]}\n".encode())
        return h.hexdigest()[:16]


@dataclass
class Pass:
    """One timed pass: its kind, wall seconds and operations completed."""

    kind: str
    wall: float
    ops: int
    #: walls of the pass's run() calls: each app run, or on campaign the pass
    op_walls: list[float]


def _mismatch(check: Callable[[], Any]) -> str | None:
    """None when ``check()`` passes, else the first line of why not."""
    try:
        check()
    except Exception as exc:  # noqa: BLE001 - any failure to match is a mismatch
        text = str(exc).strip()
        return f"{type(exc).__name__}: {text.splitlines()[0] if text else 'mismatch'}"
    return None


def _assemble_nodes(values: list[dict], shape: tuple[int, ...]) -> np.ndarray:
    got = np.zeros(shape)
    for v in values:
        lo, hi = v["range"]
        got[lo:hi] = v["nodes"]
    return got


def _digest(*arrays: Any) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class AppOp:
    """One simulated app run plus how to read and check its output."""

    key: str
    call: Callable[[], Any]
    #: AppRun -> the arrays/scalars that make up its functional output
    output: Callable[[Any], tuple]
    #: output tuple -> None, raising on a mismatch with the oracle
    check: Callable[[tuple], None]


class AppWorkload:
    """A fixed list of app runs, timed one by one (apps_sweep, ranks384)."""

    def __init__(self, ops: list[AppOp], oracle_s: float = 0.0) -> None:
        self.ops = ops
        #: oracle seconds spent building the inputs (kept out of setup_s)
        self.oracle_s = oracle_s
        self._outputs: dict[str, str] = {}
        #: dataset memo counters from before each clear (clearing zeroes them)
        self.memo_hits = 0
        self.memo_misses = 0

    def run_op(self, op: AppOp, tally: Tally) -> float | None:
        """Run and check one operation; its wall seconds, or None if it failed."""
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            run = op.call()
        except Exception as exc:  # noqa: BLE001 - a failed run is a counted result
            tally.fail(f"{op.key}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        t_check = time.perf_counter()
        self._check(op, run, tally)
        tally.check_s += time.perf_counter() - t_check
        return wall

    def _check(self, op: AppOp, run: Any, tally: Tally) -> None:
        try:
            out = op.output(run)
        except Exception as exc:  # noqa: BLE001 - a malformed result is a counted failure
            tally.fail(f"{op.key}: unreadable output: {type(exc).__name__}: {exc}")
            return
        digest = _digest(*out)
        problem = None
        if not tally.makespan(op.key, run.makespan):
            problem = f"makespan {run.makespan!r} != first {tally.makespans[op.key]}"
        elif op.key not in self._outputs:
            self._outputs[op.key] = digest
            problem = _mismatch(lambda: op.check(out))
        elif self._outputs[op.key] != digest:
            problem = "output differs from the first run"
        if problem:
            tally.fail(f"{op.key}: {problem}")

    def warm_up(self, tally: Tally) -> None:
        tally.check_s += self.oracle_s
        self.run_op(self.ops[0], tally)

    def run_pass(self, kind: str, tally: Tally, recorder: Any = None) -> Pass:
        from repro.data.points import clear_points_cache, points_cache_stats

        if kind == "cold":
            stats = points_cache_stats()
            self.memo_hits += stats["hits"]
            self.memo_misses += stats["misses"]
            clear_points_cache()
        walls = []
        for op in self.ops:
            if recorder is not None:
                recorder.run_id += 1
            wall = self.run_op(op, tally)
            if wall is not None:
                walls.append(wall)
        return Pass(kind, sum(walls), len(walls), walls)

    def finish(self, tally: Tally) -> None:
        pass


# -- apps_sweep ---------------------------------------------------------------

def apps_sweep(seed: int, work: Path) -> AppWorkload:
    """Fig. 5's framework sweep plus Jacobi2D run to convergence.

    Five apps x the five FIG5_MIXES x {1, 4} nodes on the ohio preset (one
    rank per node), then Jacobi2D at time_block 1, 2 and "auto".  Kernel,
    runtime and cost-model work dominate; comm and rank scheduling are
    light, and serve/campaign are not touched.
    """
    from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
    from repro.apps.extra import jacobi2d
    from repro.cluster.presets import ohio_cluster
    from repro.metrics.figures import FIG5_MIXES

    cfg = {
        "kmeans": kmeans.KmeansConfig(functional_points=120_000, iterations=2, seed=seed),
        "moldyn": moldyn.MoldynConfig(functional_nodes=5_000, simulated_steps=5, seed=seed),
        "minimd": minimd.MiniMDConfig(functional_cells=7, simulated_steps=5, seed=seed),
        "sobel": sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=6, seed=seed),
        "heat3d": heat3d.Heat3DConfig(
            functional_shape=(48, 48, 48), simulated_steps=6, seed=seed),
    }
    t_oracle = time.perf_counter()
    jcfg = _jacobi_config(seed, sweeps=40)
    oracle_s = time.perf_counter() - t_oracle
    refs: dict[str, Any] = {}

    def ref(app: str) -> Any:
        if app not in refs:
            mod = {"kmeans": kmeans, "moldyn": moldyn, "minimd": minimd, "sobel": sobel,
                   "heat3d": heat3d, "jacobi2d": jacobi2d}[app]
            refs[app] = mod.sequential_reference(jcfg if app == "jacobi2d" else cfg[app])
        return refs[app]

    atoms_shape = (cfg["minimd"].functional_atoms, 6)
    mesh_shape = (cfg["moldyn"].functional_nodes, 6)
    output = {
        "kmeans": lambda r: (r.result,),
        "moldyn": lambda r: (
            _assemble_nodes(r.result, mesh_shape), r.result[0]["ke"], r.result[0]["av"]),
        "minimd": lambda r: (_assemble_nodes(r.result, atoms_shape), r.result[0]["ke"]),
        "sobel": lambda r: (r.result,),
        "heat3d": lambda r: (r.result,),
    }
    tol = {"kmeans": 1e-9, "sobel": 1e-5, "heat3d": 1e-12}

    def check(app: str) -> Callable[[tuple], None]:
        def run_check(out: tuple) -> None:
            want = ref(app)
            if app in tol:
                np.testing.assert_allclose(out[0], want, rtol=tol[app])
                return
            np.testing.assert_allclose(out[0], want["nodes"], rtol=1e-9)
            np.testing.assert_allclose(out[1], want["ke"], rtol=1e-9)
            if app == "moldyn":
                np.testing.assert_allclose(out[2], want["av"], atol=1e-12)

        return run_check

    def jacobi_check(out: tuple) -> None:
        grid, iters, _ = ref("jacobi2d")
        assert out[1] == iters, f"{out[1]} iterations, oracle {iters}"
        np.testing.assert_allclose(out[0], grid, rtol=1e-7)

    mods = {"kmeans": kmeans, "moldyn": moldyn, "minimd": minimd, "sobel": sobel,
            "heat3d": heat3d}
    ops = []
    for app, mod in mods.items():
        for nodes in (1, 4):
            cluster = ohio_cluster(nodes)
            for mix in FIG5_MIXES:
                ops.append(AppOp(
                    f"{app}/{nodes}n/{mix}",
                    lambda m=mod, c=cluster, a=app, x=mix: m.run(c, cfg[a], mix=x),
                    output[app],
                    check(app),
                ))
    cluster = ohio_cluster(4)
    for k in (1, 2, "auto"):
        ops.append(AppOp(
            f"jacobi2d/4n/k={k}",
            lambda k=k: jacobi2d.run(cluster, jcfg, mix="cpu+2gpu", time_block=k),
            lambda r: (r.result, r.spmd.values[0]["iterations"]),
            jacobi_check,
        ))
    return AppWorkload(ops, oracle_s)


def _jacobi_config(seed: int, sweeps: int) -> Any:
    """A Jacobi2D config that converges after ``sweeps + 1`` sweeps for any seed.

    The seed's right-hand side sets how fast the residual falls, so a fixed
    tolerance would make the work depend on the seed.  The tolerance is
    placed between the oracle's residuals after ``sweeps`` and ``sweeps + 1``
    sweeps instead; the run still stops on its own convergence test.
    """
    from repro.apps.extra import jacobi2d

    probe = jacobi2d.Jacobi2DConfig(shape=(32, 32), tol=1e-300, max_iters=sweeps + 1, seed=seed)
    residuals = jacobi2d.sequential_reference(probe)[2]
    tol = (residuals[sweeps - 1] * residuals[sweeps]) ** 0.5
    return dataclasses.replace(probe, tol=tol, max_iters=4 * sweeps)


# -- ranks384 -----------------------------------------------------------------

def ranks384(seed: int, work: Path) -> AppWorkload:
    """The per-core MPI baselines at 32 nodes x 12 cores = 384 rank threads.

    Inputs are small, so fabric send/match, collectives and rank
    scheduling dominate; kernel math is a sliver.
    """
    from repro.apps import heat3d, kmeans, sobel
    from repro.apps.baselines import mpi_heat3d, mpi_kmeans, mpi_sobel
    from repro.cluster.presets import ohio_cluster

    cluster = ohio_cluster(32)
    kcfg = kmeans.KmeansConfig(functional_points=24_000, iterations=3, seed=seed)
    hcfg = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=3, seed=seed)
    scfg = sobel.SobelConfig(functional_shape=(96, 96), simulated_steps=2, seed=seed)
    ops = [
        AppOp(
            "mpi_kmeans/32n",
            lambda: mpi_kmeans.run(cluster, kcfg),
            lambda r: (r.result,),
            lambda out: np.testing.assert_allclose(
                out[0], kmeans.sequential_reference(kcfg), rtol=1e-9),
        ),
        AppOp(
            "mpi_heat3d/32n",
            lambda: mpi_heat3d.run(cluster, hcfg),
            lambda r: (mpi_heat3d.assemble(r.result, hcfg.functional_shape),),
            lambda out: np.testing.assert_allclose(
                out[0], heat3d.sequential_reference(hcfg), rtol=1e-12),
        ),
        AppOp(
            "mpi_sobel/32n",
            lambda: mpi_sobel.run(cluster, scfg),
            lambda r: (mpi_sobel.assemble(r.result, scfg.functional_shape),),
            lambda out: np.testing.assert_allclose(
                out[0], sobel.sequential_reference(scfg), rtol=1e-5),
        ),
    ]
    return AppWorkload(ops)


# -- campaign -----------------------------------------------------------------

_CAMPAIGN_APPS = ["heat3d", "kmeans", "moldyn", "minimd", "sobel"]
_CAMPAIGN_PARAMS = {
    "heat3d": {"functional_shape": [16, 16, 16], "simulated_steps": 2},
    "kmeans": {"functional_points": 8000, "iterations": 1},
    "moldyn": {"functional_nodes": 1500, "simulated_steps": 2},
    "minimd": {"functional_cells": 5, "simulated_steps": 2},
    "sobel": {"functional_shape": [96, 96], "simulated_steps": 2},
}
#: Row fields a store hit must reproduce exactly (identity fields excluded).
_ROW_FIELDS = ("app", "preset", "nodes", "mix", "scale", "seed", "faulty", "spec_hash",
               "state", "makespan", "seq_time", "speedup", "error", "fault_drops",
               "fault_crashes")


def _lossy_points(seeds: list[int]) -> list[dict]:
    """Reliable, checkpointed heat3d runs under message loss and a rank crash."""
    from repro.faults import FaultPlan, RankCrash

    return [
        {
            "app": "heat3d", "nodes": 2, "preset": "laptop", "mix": "cpu",
            "params": {"functional_shape": [12, 12, 12], "simulated_steps": 4, "seed": s},
            "options": {"reliable": True, "checkpoint_every": 2},
            "fault_plan": FaultPlan.lossy(
                seed=s, drop=0.02, dup=0.01, delay=0.02, max_delay=1e-4,
                crashes=[RankCrash(rank=1, at_time=0.05, restart_cost=0.5)],
            ).to_dict(),
        }
        for s in seeds
    ]


def campaign_spec(name: str, seeds: list[int], nodes: tuple[int, ...] = (1, 2, 4)) -> Any:
    """Five apps x presets ohio/laptop x ``nodes`` x mixes cpu/cpu+1gpu x
    ``seeds``, plus the lossy points."""
    from repro.campaign import CampaignSpec

    return CampaignSpec.from_dict({
        "name": name,
        "axes": {
            "app": _CAMPAIGN_APPS,
            "preset": ["ohio", "laptop"],
            "nodes": list(nodes),
            "mix": ["cpu", "cpu+1gpu"],
            "seed": seeds,
        },
        "app_params": _CAMPAIGN_PARAMS,
        "points": _lossy_points(seeds),
    })


class CampaignWorkload:
    """An in-process CampaignRunner over an on-disk ResultStore.

    The cold pass runs the sweep for seeds (s, s+1) into a fresh store, so
    every point executes and is written; the extend pass runs seeds
    (s+1, s+2) over the same store, so half its points are store reads
    and half execute.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.cold = campaign_spec("cold", [seed, seed + 1])
        self.extend = campaign_spec("extend", [seed + 1, seed + 2])
        self.warm = campaign_spec("warm-up", [seed], nodes=(1, 2))
        self._reps = 0
        self._store: Path | None = None
        #: spec hash -> the cold pass row of the current repetition
        self._cold_rows: dict[str, dict] = {}
        #: app -> (spec, makespan) of a multi-node point, for the cross-check
        self._probe: dict[str, tuple[Any, Any]] = {}
        self.utilization: list[float] = []
        #: (deduplicated, points) per pass
        self.dedup: list[tuple[int, int]] = []
        self.rows: list[dict] = []

    def warm_up(self, tally: Tally) -> None:
        """One untimed in-memory campaign: starts the worker pool and imports."""
        from repro.campaign import CampaignRunner

        result = CampaignRunner(self.warm, store=None).run()
        tally.attempted += len(result.rows)
        for row in result.failures():
            tally.fail(f"warm-up {row['app']}: {row['state']}: {row['error']}")

    def run_pass(self, kind: str, tally: Tally, recorder: Any = None) -> Pass:
        from repro.campaign import CampaignRunner

        if kind == "cold":
            self._reps += 1
            self._store = self.work / f"store-{self._reps}"
            shutil.rmtree(self._store, ignore_errors=True)
        spec = self.cold if kind == "cold" else self.extend
        if recorder is not None:
            recorder.run_id += 1
        tally.attempted += spec.n_points()
        t0 = time.perf_counter()
        try:
            result = CampaignRunner(spec, store=self._store).run()
        except Exception as exc:  # noqa: BLE001 - a failed pass is a counted result
            tally.fail(f"{kind} pass: {type(exc).__name__}: {exc}")
            return Pass(kind, time.perf_counter() - t0, 0, [])
        wall = time.perf_counter() - t0
        t_check = time.perf_counter()
        self._check(kind, spec, result, tally)
        tally.check_s += time.perf_counter() - t_check
        self.dedup.append((result.stats["deduplicated"], result.stats["points"]))
        if kind == "extend":
            shutil.rmtree(self._store, ignore_errors=True)
        utilization = (result.stats.get("utilization") or {}).get("average")
        if utilization is not None:
            self.utilization.append(utilization)
        self.rows.extend(result.rows)
        done = sum(1 for r in result.rows if r["state"] == "done")
        return Pass(kind, wall, done, [wall])

    def _check(self, kind: str, spec: Any, result: Any, tally: Tally) -> None:
        specs = spec.expand()
        if len(result.rows) != len(specs):
            tally.fail(f"{kind} pass: {len(result.rows)} rows for {len(specs)} points")
        if kind == "cold":
            self._cold_rows = {}
        for row, point in zip(result.rows, specs):
            problem = self._row_problem(kind, row, point, tally)
            if problem:
                tally.fail(f"{kind} {row['app']}/{row['preset']}/{row['nodes']}n/{row['mix']}"
                           f"/seed={row['seed']}{' lossy' if row['faulty'] else ''}: {problem}")

    def _row_problem(self, kind: str, row: dict, point: Any, tally: Tally) -> str | None:
        """What is wrong with one run-table row, or None."""
        if row["state"] != "done":
            return f"{row['state']}: {row['error']}"
        h = row["spec_hash"]
        same = tally.makespan(h, row["makespan"])
        if kind == "cold":
            self._cold_rows[h] = row
            if point.nodes > 1 and row["app"] not in self._probe and not row["faulty"]:
                self._probe[row["app"]] = (point, row["makespan"])
            if row["cached"]:
                return "store hit in a fresh store"
        elif row["cached"]:
            cold = self._cold_rows.get(h)
            if cold is None:
                return "store hit for a point the cold pass never ran"
            if any(repr(row.get(f)) != repr(cold.get(f)) for f in _ROW_FIELDS):
                return "store hit differs from its cold-pass row"
        elif h in self._cold_rows:
            return "shared point executed again instead of read"
        if not same:
            return f"makespan {row['makespan']!r} != first run {tally.makespans[h]}"
        return None

    def finish(self, tally: Tally) -> None:
        """Cross-check one multi-node point per app against a direct
        threads-backend execute_job."""
        from repro.serve import execute_job

        for app, (point, makespan) in sorted(self._probe.items()):
            tally.attempted += 1
            try:
                direct = execute_job(dataclasses.replace(point, backend="threads"))
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                tally.fail(f"cross-check {app}: {type(exc).__name__}: {exc}")
                continue
            if repr(direct["makespan"]) != repr(makespan):
                tally.fail(
                    f"cross-check {app}: campaign {makespan!r} != direct {direct['makespan']!r}"
                )


#: name -> factory(seed, work directory inside the checkout)
WORKLOADS: dict[str, Callable[[int, Path], Any]] = {
    "apps_sweep": apps_sweep,
    "ranks384": ranks384,
    "campaign": CampaignWorkload,
}
