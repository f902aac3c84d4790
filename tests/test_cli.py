"""Command-line interface tests: both subcommands, file outputs in both
formats, trace input, determinism of emitted artifacts, and exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

from peacock_sim.cli import build_parser, main
from peacock_sim.workload import Stage, TraceRecord, save_trace

US = 1_000_000

SMALL = ["--workers", "10", "--schedulers", "2", "--jobs", "30",
         "--load", "0.6", "--seed", "4"]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_run_prints_report_json(capsys):
    code, out = run_cli(["run", "--algo", "peacock"] + SMALL, capsys)
    assert code == 0
    (payload,) = json.loads(out)
    assert payload["schema"] == "peacock-report-1"
    assert payload["algo"] == "peacock"
    assert payload["jobs"] == 30
    assert payload["ajct_s"] > 0


def test_run_writes_report_and_jobs_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _ = run_cli(["run", "--algo", "sparrow", "--out", str(out_dir)]
                      + SMALL, capsys)
    assert code == 0
    report = json.loads((out_dir / "sparrow_seed4.report.json").read_text())
    jobs = json.loads((out_dir / "sparrow_seed4.jobs.json").read_text())
    assert report["jobs"] == len(jobs) == 30
    assert {j["job_id"] for j in jobs} == set(range(30))


def test_run_csv_format(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _ = run_cli(["run", "--format", "csv", "--out", str(out_dir)]
                      + SMALL, capsys)
    assert code == 0
    lines = (out_dir / "peacock_seed4.report.csv").read_text().splitlines()
    assert len(lines) == 2
    assert "ajct_s" in lines[0].split(",")
    job_lines = (out_dir / "peacock_seed4.jobs.csv").read_text().splitlines()
    assert job_lines[0].startswith("job_id,")
    assert len(job_lines) == 31


def test_run_output_is_deterministic(tmp_path, capsys):
    base = ["run", "--algo", "eagle"] + SMALL
    code_a, out_a = run_cli(base + ["--out", str(tmp_path / "a")], capsys)
    code_b, out_b = run_cli(base + ["--out", str(tmp_path / "b")], capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
    report_a = (tmp_path / "a" / "eagle_seed4.report.json").read_bytes()
    report_b = (tmp_path / "b" / "eagle_seed4.report.json").read_bytes()
    assert report_a == report_b


def test_compare_reports_all_algos_and_fractions(capsys):
    code, out = run_cli(["compare", "--algos", "peacock,sparrow"] + SMALL,
                        capsys)
    assert code == 0
    (entry,) = json.loads(out)
    assert set(entry["reports"]) == {"peacock", "sparrow"}
    pair = entry["fraction_faster"]["peacock_vs_sparrow"]
    total = pair["peacock"] + pair["sparrow"] + pair["ties"]
    assert total == pytest.approx(1.0)


def test_seed_sweep_produces_one_report_per_seed(capsys):
    code, out = run_cli(["run", "--seeds", "3"] + SMALL, capsys)
    assert code == 0
    payloads = json.loads(out)
    assert [p["seed"] for p in payloads] == [4, 5, 6]


def test_trace_input_with_generated_arrivals(tmp_path, capsys):
    trace = tmp_path / "jobs.jsonl"
    save_trace([TraceRecord(i, None, [Stage([2 * US, 2 * US])])
                for i in range(20)], trace)
    code, out = run_cli(["run", "--trace", str(trace)] + SMALL, capsys)
    assert code == 0
    (payload,) = json.loads(out)
    assert payload["jobs"] == 20


def test_trace_with_some_submit_times_missing_is_rejected(tmp_path, capsys):
    trace = tmp_path / "jobs.jsonl"
    save_trace([TraceRecord(i, 5 * US if i % 2 else None, [Stage([2 * US])])
                for i in range(1, 5)], trace)
    code = main(["run", "--trace", str(trace)] + SMALL)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "job 2 has no submit_us" in captured.err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("records, pruned", [
    ([], 0),
    ([TraceRecord("a", 0, []), TraceRecord("b", 0, [Stage([])])], 2),
], ids=["empty", "all-pruned"])
def test_trace_without_valid_jobs_is_rejected(tmp_path, capsys, command,
                                              records, pruned):
    trace = tmp_path / "jobs.jsonl"
    save_trace(records, trace)
    code = main([command, "--trace", str(trace)] + SMALL)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert ("trace error: %s has no valid jobs (%d pruned)" % (trace, pruned)
            in captured.err)


@pytest.mark.parametrize("name, content", [
    ("missing.jsonl", None),
    ("latin1.jsonl", b'{"id": "caf\xe9", "stages": []}\n'),
    ("plain.jsonl.gz", b'{"id": "j", "stages": []}\n'),
], ids=["missing", "not-utf8", "not-gzip"])
def test_unreadable_trace_file_is_a_trace_error(tmp_path, capsys, name,
                                                content):
    trace = tmp_path / name
    if content is not None:
        trace.write_bytes(content)
    code = main(["run", "--trace", str(trace)] + SMALL)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("trace error: %s: " % trace)
    assert captured.err.count("\n") == 1


def test_unknown_algorithm_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algo", "mystery"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_algo_in_compare_list_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--algos", "peacock,mystery"] + SMALL)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, named", [
    (["run", "--load", "0"], "--load"),
    (["run", "--load", "nan"], "--load"),
    (["run", "--jobs", "0"], "--jobs"),
    (["run", "--workers", "0"], "--workers"),
    (["run", "--seeds", "0"], "--seeds"),
    (["compare", "--algos", "peacock,bogus"], "'bogus'"),
    (["run", "--schedulers", "0"], "--schedulers"),
    (["run", "--rotation-interval", "nan"], "--rotation-interval"),
    (["run", "--rotation-interval", "0"], "--rotation-interval"),
    (["run", "--net-delay", "inf"], "--net-delay"),
    (["run", "--net-delay", "-0.001"], "--net-delay"),
    (["run", "--rotation-interval", "1e-9"], "--rotation-interval"),
    (["run", "--rotation-interval", "4e-7"], "--rotation-interval"),
    (["run", "--net-delay", "1e303"], "--net-delay"),
    (["compare", "--algos", "peacock,peacock"], "--algos"),
])
def test_bad_flag_is_rejected_at_parsing_with_its_name(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("argv, field, us", [
    (["--net-delay", "0.0000017"], "net_delay", 2),
    (["--rotation-interval", "0.0000006"], "rotation_interval", 1),
])
def test_seconds_round_to_the_nearest_whole_microsecond(argv, field, us):
    # 1.7 us is 2 us, not 1 us; 0.6 us rounds up to the least interval.
    args = build_parser().parse_args(["run"] + argv)
    assert getattr(args, field) == us


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("use_trace", [False, True],
                         ids=["synthetic", "trace-arrivals"])
def test_load_that_overflows_with_the_worker_count_is_rejected(
        tmp_path, capsys, command, use_trace):
    # 1e308 is finite, but 1e308 * 2 workers is not: the mean arrival gap
    # would be 0.0 us.
    argv = [command, "--jobs", "2", "--workers", "2", "--load", "1e308"]
    if use_trace:
        trace = tmp_path / "jobs.jsonl"
        save_trace([TraceRecord(i, None, [Stage([US])]) for i in range(2)],
                   trace)
        argv += ["--trace", str(trace)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("peacock-sim: error: argument --load: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("use_trace", [False, True],
                         ids=["synthetic", "trace-arrivals"])
def test_load_whose_arrival_clock_overflows_is_rejected(
        tmp_path, capsys, use_trace):
    # Each mean arrival gap is finite, but their sum passes the largest
    # float long before the last job.
    argv = ["run", "--jobs", "200", "--workers", "10", "--load", "1e-300"]
    if use_trace:
        trace = tmp_path / "jobs.jsonl"
        save_trace([TraceRecord(i, None, [Stage([US])]) for i in range(200)],
                   trace)
        argv = argv[:-1] + ["1e-303", "--trace", str(trace)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("peacock-sim: error: argument --load: "
                                   "load %s on 10 workers drives the arrival "
                                   "clock" % argv[argv.index("--load") + 1])
    assert captured.err.count("\n") == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "peacock_sim.cli", "run", "--workers", "5",
         "--jobs", "5", "--load", "0.5", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["jobs"] == 5


def test_compare_out_files_are_byte_stable(tmp_path, capsys):
    # String ids (one non-ASCII) and integer ids, DAG stages, long tasks
    # for Eagle's central placer, and stage means that fall on a .5 tie.
    trace = tmp_path / "jobs.jsonl"
    save_trace([
        TraceRecord("jöb", 0, [Stage([2 * US, 2 * US + 1]),
                               Stage([US + 1, US + 2], deps=[0])]),
        TraceRecord(7, 300_000, [Stage([5 * US])]),
        TraceRecord("a\"b", 600_000, [Stage([US, 3 * US, 2 * US]),
                                      Stage([US], deps=[0]),
                                      Stage([4 * US + 3, 4 * US],
                                            deps=[0, 1])]),
        TraceRecord(12, 900_000, [Stage([US // 2] * 5)]),
        TraceRecord("x", 1_000_000, [Stage([7 * US, 2])]),
    ], trace)
    out_dir = tmp_path / "out"
    code, _ = run_cli(["compare", "--trace", str(trace), "--workers", "4",
                       "--schedulers", "2", "--seed", "3", "--out",
                       str(out_dir)], capsys)
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
               for p in sorted(out_dir.iterdir())}
    # Computed before the jobs file moved from json.dump to json.dumps.
    assert digests == {
        "eagle_seed3.jobs.json": "0f022c5cafe3a4de",
        "eagle_seed3.report.json": "61f8230bda0679fd",
        "peacock_seed3.jobs.json": "d3b0224acfd38cdb",
        "peacock_seed3.report.json": "d6e7f157f7fbe5b5",
        "sparrow_seed3.jobs.json": "7b6ab3f4fd51bc97",
        "sparrow_seed3.report.json": "5a9da18ef8349686",
    }
