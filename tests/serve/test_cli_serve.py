"""`repro submit` / `repro jobs` against a live in-process job server."""

import json

import pytest

from repro.cli import main
from repro.serve import JobServer

SUBMIT_ARGS = [
    "submit",
    "heat3d",
    "--nodes",
    "2",
    "--mix",
    "cpu",
    "--preset",
    "laptop",
    "--param",
    "functional_shape=[12,12,12]",
    "--param",
    "simulated_steps=2",
]


@pytest.fixture
def live_server(monkeypatch):
    with JobServer(port=0, rank_budget=8) as server:
        monkeypatch.setenv("REPRO_SERVE_URL", server.url)
        yield server


def test_submit_waits_and_reports(capsys, live_server):
    assert main(SUBMIT_ARGS) == 0
    out = capsys.readouterr().out
    assert "heat3d x2 cpu" in out
    assert "simulated time" in out and "speedup" in out


def test_submit_cache_hit_and_jobs_listing(capsys, live_server):
    assert main(SUBMIT_ARGS) == 0
    capsys.readouterr()
    assert main(SUBMIT_ARGS) == 0  # identical spec: served from cache
    assert "cache hit" in capsys.readouterr().out

    assert main(["jobs"]) == 0
    out = capsys.readouterr().out
    assert live_server.url in out
    assert out.count("done") == 2 and "heat3d x2" in out
    assert "(cached)" in out


def test_submit_faulty_job(capsys, live_server):
    assert (
        main(
            SUBMIT_ARGS
            + [
                "--param",
                "simulated_steps=4",
                "--fault-seed",
                "7",
                "--crash-rank",
                "1",
                "--crash-at",
                "0.05",
                "--checkpoint-every",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "faults" in out and "crashes=1" in out


def test_submit_no_wait_then_stats(capsys, live_server):
    assert main(SUBMIT_ARGS + ["--no-wait"]) == 0
    assert "poll with" in capsys.readouterr().out
    assert main(["jobs", "--stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["rank_budget"] == 8
    assert "cache" in stats and "job_pool" in stats


def test_submit_rejects_bad_spec(live_server):
    with pytest.raises(SystemExit, match="invalid job spec"):
        main(SUBMIT_ARGS + ["--param", "voxels=7"])
    with pytest.raises(SystemExit, match="expects K=V"):
        main(["submit", "heat3d", "--param", "oops"])


def test_submit_unreachable_server(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_URL", "http://127.0.0.1:9")  # discard port
    with pytest.raises(SystemExit, match="submit failed"):
        main(["submit", "heat3d"])
    with pytest.raises(SystemExit, match="cannot reach"):
        main(["jobs"])


def test_url_flag_overrides_env(capsys, live_server, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_URL", "http://127.0.0.1:9")
    assert main(["jobs", "--url", live_server.url]) == 0
    assert live_server.url in capsys.readouterr().out
