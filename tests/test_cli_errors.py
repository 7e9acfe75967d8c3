"""The CLI failure-mode audit: every rejection exits with its taxonomy
code and, under ``--json``, prints a machine-readable error record.

Parametrized over the failure modes so a new subcommand (or a new
rejection path) that forgets the convention shows up as a missing row,
not a silent regression.
"""

import json

import pytest

from repro.cli import (
    EXIT_BAD_INPUT,
    EXIT_FAILED,
    EXIT_FRONTEND,
    EXIT_SERVICE,
    CLIError,
    main,
)

BAD_SOURCE = "def broken(x: int) -> int:\n    return x + 1.5\n"

#: (argv, expected exit code, expected reason, stderr fragment)
ERROR_CASES = [
    (["sweep", "nope"], EXIT_BAD_INPUT, "unknown-workload",
     "unknown workload"),
    (["tune", "nope"], EXIT_BAD_INPUT, "unknown-workload",
     "unknown workload"),
    (["profile", "nope"], EXIT_BAD_INPUT, "unknown-workload",
     "unknown workload"),
    # every command resolves a design the same way: a registry name
    # first, then an existing file or a .py path
    (["schedule", "nope"], EXIT_BAD_INPUT, "unknown-workload",
     "unknown workload"),
    (["--library", "tsmc", "schedule", "fir"], EXIT_BAD_INPUT,
     "unknown-library", "unknown library"),
    (["stream", "nope"], EXIT_BAD_INPUT, "unknown-pipeline",
     "unknown pipeline"),
    (["sweep", "fir", "--latencies", "3,x"], EXIT_BAD_INPUT,
     "bad-microarch", "bad microarch spec"),
    (["tune", "fir", "--latencies", "3:y"], EXIT_BAD_INPUT,
     "bad-microarch", "bad microarch spec"),
    (["sweep", "fir", "--clocks", "1600,fast"], EXIT_BAD_INPUT,
     "bad-clock", "bad clocks"),
    # out-of-range numbers are bad input too, never a traceback or a
    # point at an impossible clock
    (["sweep", "fir", "--latencies", "0"], EXIT_BAD_INPUT,
     "bad-microarch", "bad microarch spec"),
    (["sweep", "fir", "--latencies", "3:0"], EXIT_BAD_INPUT,
     "bad-microarch", "bad microarch spec"),
    (["schedule", "fir", "--ii", "0"], EXIT_BAD_INPUT,
     "bad-microarch", "bad ii"),
    (["sweep", "fir", "--latencies", "3", "--clocks", "inf"],
     EXIT_BAD_INPUT, "bad-clock", "bad clocks"),
    (["sweep", "fir", "--latencies", "3", "--clocks", "1600,nan"],
     EXIT_BAD_INPUT, "bad-clock", "bad clocks"),
    (["tune", "fir", "--latencies", "3", "--clocks", "1600,0"],
     EXIT_BAD_INPUT, "bad-clock", "bad clocks"),
    (["schedule", "fir", "--clock", "-5"], EXIT_BAD_INPUT, "bad-clock",
     "bad clock_ps"),
    (["schedule", "fir", "--clock", "nan"], EXIT_BAD_INPUT, "bad-clock",
     "bad clock_ps"),
    (["stream", "matmul_relu_stream", "--clock", "inf"], EXIT_BAD_INPUT,
     "bad-clock", "bad clock_ps"),
    (["tune", "fir", "--delay-ps", "-5"], EXIT_BAD_INPUT,
     "invalid-goal", "invalid goal"),
    (["tune", "fir", "--max-area", "0"], EXIT_BAD_INPUT,
     "invalid-goal", "invalid goal"),
    (["schedule", "/no/such/file.py"], EXIT_BAD_INPUT,
     "unreadable-source", "cannot read"),
    (["submit", "schedule", "fir",
      "--url", "http://127.0.0.1:9"], EXIT_SERVICE,
     "unreachable", "cannot reach service"),
]


@pytest.mark.parametrize("argv,code,reason,fragment", ERROR_CASES,
                         ids=[" ".join(c[0]) for c in ERROR_CASES])
def test_error_exit_code_and_message(argv, code, reason, fragment,
                                     capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""  # nothing machine-readable without --json


@pytest.mark.parametrize("argv,code,reason,fragment", ERROR_CASES,
                         ids=[" ".join(c[0]) for c in ERROR_CASES])
def test_error_json_record(argv, code, reason, fragment, capsys):
    assert main(argv + ["--json"]) == code
    captured = capsys.readouterr()
    record = json.loads(captured.out)["error"]
    assert record["code"] == code
    assert record["reason"] == reason
    assert fragment in record["message"]
    assert fragment in captured.err  # the human message still prints


def test_frontend_error_json_record(tmp_path, capsys):
    src = tmp_path / "broken.py"
    src.write_text(BAD_SOURCE)
    assert main(["schedule", str(src), "--json"]) == EXIT_FRONTEND
    captured = capsys.readouterr()
    record = json.loads(captured.out)["error"]
    assert record["code"] == EXIT_FRONTEND
    assert record["reason"] == "frontend"
    assert "broken.py:2:" in captured.err  # caret diagnostic intact


def test_kernel_count_rejection(tmp_path, capsys):
    src = tmp_path / "two.py"
    src.write_text(
        "def a(x: int) -> int:\n    return x + 1\n\n"
        "def b(x: int) -> int:\n    return x + 2\n")
    assert main(["sweep", str(src), "--json"]) == EXIT_BAD_INPUT
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["reason"] == "kernel-count"


def test_infeasible_schedule_json_error_body(capsys):
    # II=1 on fft8 at 400ps cannot schedule: exit 1 + diagnostics
    assert main(["schedule", "fft8", "--clock", "400", "--ii", "1",
                 "--json"]) == EXIT_FAILED
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["code"] == EXIT_FAILED
    assert record["reason"] == "infeasible"
    assert record["diagnostics"]


def test_cli_error_record_shape():
    err = CLIError("boom", code=EXIT_BAD_INPUT, reason="test",
                   detail={"k": 1})
    record = err.record()["error"]
    assert record == {"code": EXIT_BAD_INPUT, "reason": "test",
                      "message": "boom", "detail": {"k": 1}}
