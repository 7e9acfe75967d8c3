"""One workload, one answer: every entry point that compiles a design
reports the same verdict (and, where it reports one, the same latency).

``repro schedule``, ``repro profile`` and the service's ``schedule`` job
report verdict + latency; ``repro verilog`` and ``repro trace`` report
the verdict.  All of them build their context through the request
layer and run the same ``pipeline`` flow prefix, optimizer included.
Only agreement is asserted: whether a workload schedules at all is the
scheduler's business, pinned by the golden decision corpus.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import _submit_params, build_parser, main
from repro.service import JobEngine
from repro.service.execution import execute_job, prepare_job
from repro.service.jobs import DONE
from repro.workloads import WORKLOAD_REGISTRY

CLOCK_PS = 1600.0


@pytest.fixture(scope="module")
def engine():
    """An inline job engine (no fork), shared by every workload."""
    with JobEngine(workers=1, mode="inline") as eng:
        yield eng


def _cli(capsys, command, name, *flags):
    """(exit code, parsed --json stdout) of one compile command."""
    code = main([command, name, "--clock", str(CLOCK_PS), "--json",
                 *flags])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(WORKLOAD_REGISTRY))
def test_entry_points_agree(name, engine, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # `repro trace` writes its file here
    code, scheduled = _cli(capsys, "schedule", name)
    feasible = code == 0
    latency = scheduled["latency"] if feasible else None

    code, profiled = _cli(capsys, "profile", name)
    assert (code == 0) == profiled["feasible"] == feasible, "profile"
    assert profiled.get("latency") == latency, "profile"

    job = engine.submit("schedule", {"workload": name,
                                     "clock_ps": CLOCK_PS})
    job = engine.wait(job.id, timeout=300)
    assert (job.state == DONE) == feasible, "service"
    if feasible:
        assert job.result["schedule"]["latency"] == latency, "service"

    code, _ = _cli(capsys, "verilog", name)
    assert (code == 0) == feasible, "verilog"
    code, traced = _cli(capsys, "trace", name)
    assert (code == 0) == (not traced["failed"]) == feasible, "trace"


def test_registry_name_wins_over_a_local_file(tmp_path, monkeypatch,
                                              capsys):
    """A file named like a workload does not shadow the workload, for
    a local command and for a submitted job alike."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fir").write_text("not a design\n")
    assert main(["sweep", "fir", "--clocks", "1600", "--latencies", "3",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] == 1
    args = build_parser().parse_args(["submit", "sweep", "fir"])
    params = _submit_params(args)
    assert params["workload"] == "fir"
    assert "source" not in params


def test_no_optimize_agrees_between_cli_and_job(capsys):
    """``--no-optimize`` reaches a submitted ``schedule`` job as
    ``optimize: false``: the job then schedules what ``repro schedule
    --no-optimize`` schedules, under its own key."""
    code, raw = _cli(capsys, "schedule", "sobel", "--no-optimize")
    assert code == 0
    params = _submit_params(build_parser().parse_args(
        ["submit", "schedule", "sobel", "--no-optimize"]))
    assert params["optimize"] is False
    normalized, key = prepare_job("schedule", params)
    ok, result, _ = execute_job("schedule", normalized)
    assert ok and result["schedule"]["latency"] == raw["latency"]
    default, default_key = prepare_job("schedule", {"workload": "sobel"})
    assert key != default_key
    ok, result, _ = execute_job("schedule", default)
    assert ok and result["schedule"]["latency"] != raw["latency"]
