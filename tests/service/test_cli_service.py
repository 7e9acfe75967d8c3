"""``repro submit`` against a live service (and the serve parser)."""

from __future__ import annotations

import json

from repro.cli import build_parser, main

GOOD_SOURCE = """\
def scale_acc(x: int, k: int) -> int:
    acc = 0
    for i in range(4):
        acc = acc + x * k
    return acc
"""


def test_submit_schedule_waits_and_prints_result(service, capsys):
    svc, _ = service
    assert main(["submit", "schedule", "fir", "--url", svc.url,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["state"] == "done"
    assert payload["result"]["schedule"]["region"] == "fir"
    assert payload["deduplicated"] is False


def test_submit_source_file_ships_text(service, tmp_path, capsys):
    svc, _ = service
    src = tmp_path / "scale.py"
    src.write_text(GOOD_SOURCE)
    assert main(["submit", "schedule", str(src), "--url", svc.url,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["schedule"]["region"] == "scale_acc"


def test_submit_duplicate_reports_dedup(service, capsys):
    svc, _ = service
    args = ["submit", "sweep", "fir", "--url", svc.url,
            "--clocks", "1600,2400", "--latencies", "3,4", "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["deduplicated"] is True
    assert second["result"] == first["result"]  # bit-equal payloads


def test_submit_no_wait_returns_immediately(service, capsys):
    svc, client = service
    assert main(["submit", "schedule", "adpcm", "--url", svc.url,
                 "--no-wait", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["state"] in ("queued", "running")
    client.wait(record["id"], timeout=60)  # drain before teardown


def test_submit_failed_job_exits_one(service, capsys):
    svc, _ = service
    assert main(["submit", "schedule", "fft8", "--url", svc.url,
                 "--clock", "400", "--ii", "1", "--json"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["state"] == "failed"
    assert record["error"]["reason"] == "unsatisfied"


def test_submit_rejected_body_exits_three(service, capsys):
    svc, _ = service
    assert main(["submit", "schedule", "unknown_name", "--url",
                 svc.url, "--json"]) == 3
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["reason"] == "unknown-workload"
    assert "unknown workload" in record["message"]


def test_submit_reports_the_service_error_reason(service, capsys):
    """A 400's top-level reason is the service's slug, the same one
    ``repro schedule`` reports for the same input."""
    svc, _ = service
    assert main(["submit", "schedule", "fir", "--clock", "inf", "--url",
                 svc.url, "--json"]) == 3
    record = json.loads(capsys.readouterr().out)["error"]
    assert record["reason"] == "bad-clock"
    assert record["detail"]["error"]["reason"] == "bad-clock"


def test_submit_stream_kind(service, capsys):
    svc, _ = service
    assert main(["submit", "stream", "fir_decimate_stream", "--url",
                 svc.url, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["verified"] is True


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.port == 8473
    assert args.workers == 2
    assert args.mode == "process"
    assert args.retries == 1
