"""Makespan replay of the wall-clock bench's stencil-engine cases.

``BENCH_wallclock.json`` pins the virtual makespan of every smoke case,
but the wall-clock job that checks those pins also gates host walls,
which are noisy across hosts.  This module replays the stencil-engine
cases once, at exactly the sizes ``benchmarks/bench_wallclock.py`` uses
(read from its ``_configs("smoke")``), and checks only the makespans —
repr-equal, no wall-clock gate — so an engine change that moves a
makespan by one ulp fails tier-1.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_wallclock", REPO / "benchmarks" / "bench_wallclock.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke(bench):
    """Smoke sizes with a single repeat per case (makespans are exact)."""
    return {**bench._configs("smoke"), "repeats": 1, "step_repeats": 1}


@pytest.fixture(scope="module")
def pinned():
    return json.loads((REPO / "BENCH_wallclock.json").read_text())["cases"]


def _assert_pinned(cases: dict, pinned: dict, keys: tuple[str, ...]) -> None:
    for name, case in cases.items():
        for key in keys:
            assert repr(case[key]) == repr(pinned[name][key]), (
                f"{name}.{key} drifted: {pinned[name][key]!r} -> {case[key]!r}"
            )


def test_app_makespans_replay(bench, smoke, pinned):
    cases = bench.bench_apps(smoke, names=("sobel", "heat3d"))
    _assert_pinned(cases, pinned, ("makespan",))


def test_step_loop_makespans_replay(bench, smoke, pinned):
    cases = bench.bench_stencil_steps(smoke)
    assert set(cases) == {"sobel_steps", "heat3d_steps"}
    _assert_pinned(cases, pinned, ("makespan",))


def test_convergence_loop_replay(bench, smoke, pinned):
    cases = bench.bench_stencil_converge(smoke)
    _assert_pinned(cases, pinned, ("makespan", "iterations"))


def test_time_block_makespans_replay(bench, smoke, pinned):
    cases = bench.bench_stencil_timeblock(smoke)
    _assert_pinned(cases, pinned, ("makespan_k1", "makespan_k2", "makespan"))


@pytest.mark.parametrize("content", [None, "{not json", '{"mode": "smoke"}'])
def test_bad_baseline_exits_before_collecting(bench, tmp_path, monkeypatch, capsys, content):
    path = tmp_path / "baseline.json"
    if content is not None:
        path.write_text(content)

    def no_collect(mode):
        raise AssertionError("collect() ran before the baseline was checked")

    monkeypatch.setattr(bench, "collect", no_collect)
    assert bench.main(["--mode", "smoke", "--baseline", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert len(err.strip().splitlines()) == 1
