"""Self-tests of the benchmark.

Run from the repository root (they drive the real program, so they take
a couple of minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("apps_sweep", "ranks384", "campaign")


def bench(*args: str, env: dict | None = None, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_mirrors_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == ["apps_sweep", "campaign"]
    assert list(layers.TRACED_LAYERS) == list(WORKLOADS) == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == {n: (u, b) for n, (u, b, _) in layers.END_TO_END.items()}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    per = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert per == {n: (u, b) for n, (u, b, _) in layers.PER_LAYER.items()}
    for name in per:
        assert any(name.startswith(prefix) for prefix in layers.MOVES), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = layers.PER_LAYER if trace else layers.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: u for n, (u, _b, _w) in table.items()
    }
    printed = {ln.split()[1]: ln for ln in proc.stdout.splitlines() if ln.startswith("metric ")}
    for name, (unit, _b, _w) in table.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert printed[name].startswith(f"metric {name} = {value!r} {unit}")
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "metric failed_frac = 0.0 ratio" in proc.stdout
    assert f"makespan_digest {workload} seed=3: " in proc.stdout


def test_traced_split_follows_the_workload():
    """apps_sweep is kernel-bound; ranks384 is comm- and scheduling-bound."""
    def split(workload: str) -> tuple[float, float]:
        proc = bench("--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", "1")
        m = {n: v["value"] for n, v in result_of(proc.stdout)["metrics"].items()}
        busy = sum(m[f"layer.{x}.self_s"] for x in ("apps", "core", "device"))
        return busy, m["layer.comm.self_s"] + m["layer.sim.self_s"]

    busy, talk = split("apps_sweep")
    assert busy > talk
    busy, talk = split("ranks384")
    assert talk > busy


def test_corrupted_result_lands_in_failed_frac(monkeypatch, capsys, tmp_path):
    real = workloads.ranks384

    def corrupted(seed: int, work: Path):
        wl = real(seed, work)
        op = wl.ops[1]
        call = op.call

        def tampered():
            out = call()
            out.result[0]["block"][0, 0, 0] += 1.0
            return out

        op.call = tampered
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, "ranks384", corrupted)
    assert run.main(["--workload", "ranks384", "--seed", "1", "--seconds", "0.1",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = result_of(out)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED mpi_heat3d/32n" in out
    frac = [ln for ln in out.splitlines() if ln.startswith("metric failed_frac")]
    assert frac and not frac[0].startswith("metric failed_frac = 0.0 ")


def test_run_that_never_completes_ends_and_fails_everything(monkeypatch, capsys):
    real = workloads.ranks384

    def broken(seed: int, work: Path):
        wl = real(seed, work)

        def fail():
            raise RuntimeError("rank 3 lost")

        for op in wl.ops:
            op.call = fail
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, "ranks384", broken)
    assert run.main(["--workload", "ranks384", "--seed", "1", "--seconds", "0.1",
                     "--trace", "1"]) == 0
    result = result_of(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_tampered_store_hit_is_counted(tmp_path):
    wl = workloads.CampaignWorkload(5, tmp_path)
    tally = workloads.Tally()
    try:
        wl.run_pass("cold", tally)
        shared = {s.content_hash() for s in wl.cold.expand()} & {
            s.content_hash() for s in wl.extend.expand()}
        key = sorted(shared)[0]
        entry = wl._store / key[:2] / f"{key}.json"
        doc = json.loads(entry.read_text())
        doc["payload"]["makespan"] *= 2
        entry.write_text(json.dumps(doc))
        wl.run_pass("extend", tally)
    finally:
        run._stop_processes(tmp_path)
    assert tally.failed == 1
    assert "store hit differs from its cold-pass row" in tally.problems[0]


def test_seed_changes_inputs_not_metric_names(tmp_path):
    outputs = []
    for seed in (1, 2):
        wl = workloads.apps_sweep(seed, tmp_path)
        assert [op.key for op in wl.ops] == [op.key for op in workloads.apps_sweep(7, tmp_path).ops]
        tally = workloads.Tally()
        wl.warm_up(tally)
        assert tally.failed == 0
        outputs.append(wl._outputs[wl.ops[0].key])
    assert outputs[0] != outputs[1]
    names = []
    for seed in ("1", "2"):
        proc = bench("--workload", "ranks384", "--seed", seed, "--seconds", "0.1", "--trace", "1")
        names.append(sorted(result_of(proc.stdout)["metrics"]))
    assert names[0] == names[1] == sorted(layers.PER_LAYER)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_engine_overrides():
    proc = bench("--workload", "apps_sweep", "--seed", "1", "--seconds", "1",
                 env={"REPRO_SPMD_BACKEND": "threads"})
    assert proc.returncode == 2 and not proc.stdout.strip()
    assert "REPRO_SPMD_BACKEND" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "campaign", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
