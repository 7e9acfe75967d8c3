"""Command-line interface coverage."""

import json

import pytest

from repro.cli import main


def test_table1(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "930" in out and "mux2" in out


def test_table2(capsys):
    assert main(["table", "2"]) == 0
    out = capsys.readouterr().out
    assert "mul1_op" in out and "s3" in out


def test_schedule_named_workload(capsys):
    assert main(["schedule", "fir", "--clock", "1600"]) == 0
    out = capsys.readouterr().out
    assert "fir" in out and "WNS" in out


def test_schedule_json(capsys):
    assert main(["schedule", "example1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["latency"] == 3
    assert data["region"] == "example1"


def test_schedule_pipelined(capsys):
    assert main(["schedule", "example1", "--ii", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ii"] == 2


def test_schedule_source_file(tmp_path, capsys):
    src = tmp_path / "mac.hls"
    src.write_text("""
    module mac { in int<16> x; out int<16> y;
        thread t {
            int acc = 0;
            @pipeline(1) do { acc = acc + x * x; y = acc; }
            while (x != 0);
        } }
    """)
    assert main(["schedule", str(src)]) == 0
    out = capsys.readouterr().out
    assert "mac_t_loop0" in out


def test_verilog_output_file(tmp_path, capsys):
    dest = tmp_path / "out.v"
    assert main(["verilog", "example1", "--output", str(dest)]) == 0
    text = dest.read_text()
    assert "module example1" in text
    assert "endmodule" in text


def test_sweep(capsys):
    assert main(["sweep", "fir", "--clocks", "1600,2400",
                 "--latencies", "3,4:2"]) == 0
    out = capsys.readouterr().out
    assert "NP3" in out and "P4/2" in out


def test_sweep_reports_infeasible_count(capsys):
    assert main(["sweep", "fir", "--clocks", "1600",
                 "--latencies", "1,3"]) == 0
    out = capsys.readouterr().out
    assert "1 of 2 configurations feasible" in out
    assert "infeasible: NP1" in out


def test_sweep_json_and_jobs(capsys):
    assert main(["sweep", "fir", "--clocks", "1600,2400",
                 "--latencies", "3,4:2", "--jobs", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] == len(data["points"]) == 4
    assert data["infeasible"] == 0
    assert {p["microarch"] for p in data["points"]} == {"NP3", "P4/2"}


def test_workloads_command_lists_registry(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "idct8", "matmul", "sobel", "synthetic"):
        assert name in out


def test_unknown_workload(capsys):
    assert main(["sweep", "nonexistent"]) == 3
    assert "unknown workload" in capsys.readouterr().err


def test_unknown_library(capsys):
    assert main(["--library", "tsmc", "table", "1"]) == 3
    assert "unknown library" in capsys.readouterr().err


def test_generic45_library(capsys):
    assert main(["--library", "generic45", "table", "1"]) == 0
    out = capsys.readouterr().out
    assert "423" in out  # 930 / 2.2 rounded


def test_workloads_command_lists_pipelines(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("matmul_relu_stream", "sobel_threshold_stream",
                 "fir_decimate_stream"):
        assert name in out
    assert "fir -> decim -> scale" in out


def test_stream_command_verifies_pipeline(capsys):
    assert main(["stream", "matmul_relu_stream"]) == 0
    out = capsys.readouterr().out
    assert "steady-state II" in out
    assert "MATCH" in out


def test_stream_command_json_and_verilog(tmp_path, capsys):
    target = tmp_path / "pipe.v"
    assert main(["stream", "fir_decimate_stream", "--json",
                 "--output", str(target)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[:out.rindex("}") + 1])
    assert payload["verified"] is True
    assert payload["steady_state_ii"] == 2
    assert target.exists()
    assert "module fir_decimate_stream" in target.read_text()


def test_stream_unknown_pipeline(capsys):
    assert main(["stream", "nonexistent"]) == 3
    assert "unknown pipeline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# profile: cProfile + scheduler counters
# ----------------------------------------------------------------------
def test_profile_json(capsys):
    assert main(["profile", "fir", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is True
    assert data["passes"] >= 1
    assert data["counters"]["pass.count"] == data["passes"]
    assert data["counters"]["engine.commit"] > 0
    assert data["wall_s"] > 0


def test_profile_human_report(capsys):
    assert main(["profile", "fir"]) == 0
    out = capsys.readouterr().out
    assert "cumtime" in out  # the cProfile table
    assert "profile counters:" in out
    assert "pass.count" in out


def test_profile_infeasible_exits_nonzero(capsys):
    # II=1 on fft8 at 400 ps is infeasible: exit 1, error field
    assert main(["profile", "fft8", "--clock", "400",
                 "--ii", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] is False
    assert "error" in data


def test_profile_unknown_workload(capsys):
    assert main(["profile", "nonexistent"]) == 3
    assert "unknown workload" in capsys.readouterr().err


def test_profile_reports_counters_of_the_scheduled_design(capsys):
    """``repro profile`` prints the scheduler's counter table for the
    design ``schedule`` runs."""
    assert main(["schedule", "example1", "--json"]) == 0
    scheduled = json.loads(capsys.readouterr().out)
    assert main(["profile", "example1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)  # machine-readable
    assert data["latency"] == scheduled["latency"]
    assert data["counters"]["pass.count"] == data["passes"]
    assert main(["profile", "example1"]) == 0
    out = capsys.readouterr().out
    assert "profile counters:" in out
    assert "pass.count" in out


# ----------------------------------------------------------------------
# tune: goal-directed autotuning
# ----------------------------------------------------------------------
TUNE_ARGS = ["tune", "fir", "--delay-ps", "8000",
             "--clocks", "1600,2400", "--latencies", "3,4:2"]


def test_tune_finds_winner(capsys):
    assert main(TUNE_ARGS + ["--strategy", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "minimize area s.t. delay_ps <= 8000" in out
    assert "winner" in out


def test_tune_json_and_store_warm_start(tmp_path, capsys):
    store = str(tmp_path / "store.jsonl")
    assert main(TUNE_ARGS + ["--store", store, "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["satisfied"] is True
    assert cold["winner"]["delay_ps"] <= 8000
    assert cold["fresh_evaluations"] > 0
    # second process against the warm store: zero fresh synthesis
    assert main(TUNE_ARGS + ["--store", store, "--json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["fresh_evaluations"] == 0
    assert warm["store_hits"] == warm["evaluated"] > 0
    assert warm["winner"] == cold["winner"]


def test_tune_strategies_agree(capsys):
    winners = set()
    for strategy in ("exhaustive", "greedy"):
        assert main(TUNE_ARGS + ["--strategy", strategy, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        winners.add(data["winner"]["label"])
        assert data["evaluated"] <= data["grid_size"]
    assert len(winners) == 1


@pytest.mark.parametrize("argv", [["tune", "fir"],
                                  ["submit", "tune", "fir"]])
def test_removed_strategy_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--strategy", "bisect"])
    assert exc.value.code == 2
    assert "invalid choice: 'bisect'" in capsys.readouterr().err


def test_tune_infeasible_goal_exits_nonzero(capsys):
    assert main(["tune", "fir", "--delay-ps", "10", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["satisfied"] is False
    assert data["winner"] is None


def test_tune_objective_defaults():
    import repro.cli as cli

    parser = cli.build_parser()
    args = parser.parse_args(["tune", "fir"])
    assert args.objective is None  # resolved to delay (no budget)
    with pytest.raises(SystemExit):
        parser.parse_args(["tune", "fir", "--objective", "speed"])


def test_tune_unknown_workload(capsys):
    assert main(["tune", "nonexistent"]) == 3
    assert "unknown workload" in capsys.readouterr().err


def test_tune_invalid_bound_is_clean_usage_error(capsys):
    """A non-positive budget exits 3 with a message, not a traceback."""
    assert main(["tune", "fir", "--delay-ps", "-5"]) == 3
    assert "invalid goal" in capsys.readouterr().err
    assert main(["tune", "fir", "--max-area", "0", "--json"]) == 3
    captured = capsys.readouterr()
    assert "invalid goal" in captured.err
    record = json.loads(captured.out)["error"]
    assert record["code"] == 3 and record["reason"] == "invalid-goal"


# ----------------------------------------------------------------------
# --json / exit-code consistency across subcommands
# ----------------------------------------------------------------------
def test_sweep_all_infeasible_exits_nonzero(capsys):
    assert main(["sweep", "fir", "--clocks", "1600",
                 "--latencies", "1"]) == 1
    capsys.readouterr()  # drain the table rendering
    assert main(["sweep", "fir", "--clocks", "1600",
                 "--latencies", "1", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["feasible"] == 0
    assert data["infeasible_points"][0]["microarch"] == "NP1"


def test_verilog_json(capsys):
    assert main(["verilog", "example1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["module"] == "example1"
    assert data["lines"] > 10
    assert "module example1" in data["rtl"]


def test_verilog_json_with_output_file(tmp_path, capsys):
    dest = tmp_path / "out.v"
    assert main(["verilog", "example1", "--json",
                 "--output", str(dest)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["output"] == str(dest)
    assert data["rtl"] is None
    assert "endmodule" in dest.read_text()


def test_table_json_all_numbers(capsys):
    assert main(["table", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["table"] == 1 and "mux2" in data["row"]
    assert main(["table", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schedule"]["region"] == "example1"
    assert main(["table", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["columns"]["P1"]["cycles_per_iter"] == 1


def test_workloads_json(capsys):
    assert main(["workloads", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workloads"]["idct"]["kind"] == "loop"
    assert data["pipelines"]["fir_decimate_stream"]["stages"] == 3


def test_sweep_cache_persists_across_runs(tmp_path, capsys):
    cache = str(tmp_path / "flow.cache")
    args = ["sweep", "fir", "--clocks", "1600", "--latencies", "3",
            "--cache", cache, "--json"]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["cache_misses"] > 0 and cold["cache_hits"] == 0
    assert main(args) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["cache_misses"] == 0 and warm["cache_hits"] > 0
