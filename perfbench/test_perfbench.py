"""Tests of the benchmark itself: tiny runs of every workload, traced and
untraced, and the correctness check on a corrupted run.

Run with ``python3 -m pytest perfbench``.
"""

import json

import pytest

import run
from peacock_sim import driver, engine, probes

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0", "--jobs", "40"]


def tiny_run(workload, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    assert run.main(["--workload", workload, "--trace", str(trace)]
                    + TINY) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    return lines[:-1], json.loads(lines[-1]), err


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys,
                                                    monkeypatch, tmp_path):
    text, result, _ = tiny_run(workload, trace, capsys, monkeypatch, tmp_path)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(run.ALGOS) * (1 + trace)
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in text), m["name"]
    for algo in run.ALGOS:
        assert any(line.startswith("digest %s " % algo) for line in text)


def test_tracer_restores_what_it_wraps(capsys, monkeypatch, tmp_path):
    originals = (engine.Simulation.run, engine.Simulation.send,
                 engine.Simulation.add_entity, probes.WaitingQueue.enqueue)
    _, result, _ = tiny_run("overload", 1, capsys, monkeypatch, tmp_path)
    assert result["metrics"]["probes.enqueue.calls"]["value"] > 0
    assert (engine.Simulation.run, engine.Simulation.send,
            engine.Simulation.add_entity,
            probes.WaitingQueue.enqueue) == originals


def test_unbalanced_books_count_as_a_failed_run(capsys, monkeypatch,
                                                tmp_path):
    real = driver.run_simulation

    def off_by_one(config, records):
        result = real(config, records)
        if config.algo == "peacock":
            result.counters["busy_us"] += 1
        return result

    monkeypatch.setattr(driver, "run_simulation", off_by_one)
    _, result, err = tiny_run("overload", 0, capsys, monkeypatch, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == run.WORKLOADS["overload"].parts
    assert "FAILED peacock on overload part 0: busy_us" in err


def test_check_books_names_the_unbalanced_book():
    records = run.setup_step(run.WORKLOADS["overload"], 3, 20, None)()
    result = driver.run_simulation(
        run.WORKLOADS["overload"].config("sparrow", 3), records)
    assert run.check_books(result, records) == []
    result.counters["busy_us"] -= 1
    (problem,) = run.check_books(result, records)
    assert problem.startswith("busy_us")


def test_yardstick_scales_by_the_loop_times_around_a_step(monkeypatch):
    loop_times = iter([0.06, 0.02, 0.03])
    monkeypatch.setattr(run.Yardstick, "measure",
                        lambda self: next(loop_times))
    yard = run.Yardstick()
    assert yard.scale([2.0, 1.0]) == pytest.approx(
        [2.0 * run.REFERENCE_S / 0.04, run.REFERENCE_S / 0.04])
    assert yard.scale([1.0]) == pytest.approx([run.REFERENCE_S / 0.025])
