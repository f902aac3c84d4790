"""Workload tests: trace parsing and validation, load calibration, and
synthetic generator statistics."""

import gc
import graphlib
import gzip
import json
import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peacock_sim import driver
from peacock_sim.engine import SimConfig, Simulation, SimulationError
from peacock_sim.workload import (SCHEMA, LoadError, Stage, SyntheticSpec,
                                  TraceError, TraceRecord, generate,
                                  load_trace, mean_interarrival_us,
                                  save_trace, stage_problem)

US = 1_000_000


def write_lines(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


def test_roundtrip_preserves_records(tmp_path):
    records = [
        TraceRecord("a", 0, [Stage([5 * US, 7 * US])]),
        TraceRecord("b", 3 * US, [Stage([2 * US]), Stage([4 * US], deps=[0])]),
    ]
    path = tmp_path / "trace.jsonl"
    save_trace(records, path)
    loaded, dropped = load_trace(path)
    assert dropped == 0
    assert [(r.job_id, r.submit_us) for r in loaded] == [("a", 0), ("b", 3 * US)]
    assert loaded[1].stages[1].deps == (0,)


def test_gzip_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl.gz"
    save_trace([TraceRecord("a", 0, [Stage([US])])], path)
    with gzip.open(path, "rt") as fh:
        assert json.loads(fh.readline())["schema"] == SCHEMA
    loaded, _ = load_trace(path)
    assert loaded[0].job_id == "a"


def test_invalid_jobs_are_pruned_not_fatal(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        {"id": "ok", "submit_us": 0, "stages": [{"durations_us": [US]}]},
        {"id": "empty", "submit_us": 0, "stages": []},
        {"id": "zero", "submit_us": 0, "stages": [{"durations_us": [0]}]},
        {"id": "badref", "submit_us": 0,
         "stages": [{"durations_us": [US], "deps": [5]}]},
        {"id": "cycle", "submit_us": 0,
         "stages": [{"durations_us": [US], "deps": [1]},
                    {"durations_us": [US], "deps": [0]}]},
        {"id": "empty-stage", "submit_us": 0,
         "stages": [{"durations_us": [US]},
                    {"durations_us": [], "deps": [0]}]},
        {"id": "self", "submit_us": 0,
         "stages": [{"durations_us": [US], "deps": [0]}]},
        {"id": "three-cycle", "submit_us": 0,
         "stages": [{"durations_us": [US]},
                    {"durations_us": [US], "deps": [3]},
                    {"durations_us": [US], "deps": [1]},
                    {"durations_us": [US], "deps": [2]}]},
        # Deps may point forward when they form no cycle, even when
        # every stage but the last waits on a later one.
        {"id": "forward", "submit_us": 0,
         "stages": [{"durations_us": [US], "deps": [1]},
                    {"durations_us": [2 * US]}]},
        {"id": "reversed", "submit_us": 0,
         "stages": [{"durations_us": [US], "deps": [1]},
                    {"durations_us": [US], "deps": [2]},
                    {"durations_us": [US], "deps": [3]},
                    {"durations_us": [US]}]},
    ])
    records, dropped = load_trace(path)
    assert [r.job_id for r in records] == ["ok", "forward", "reversed"]
    assert records[1].stages[0].deps == (1,)
    assert records[1].critical_path_us() == 3 * US
    assert dropped == 7


def test_malformed_json_is_fatal_with_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"id": "a", "stages": [{"durations_us": [1]}]}\n{oops\n')
    with pytest.raises(TraceError, match="line 2"):
        load_trace(path)


@st.composite
def dag_lines(draw):
    """Trace lines of 1-4 jobs, each a random graph of 1-6 stages whose
    deps may point forward, at the stage itself, or round a cycle."""
    lines = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        stages = []
        for _ in range(n):
            stage = {"durations_us": draw(st.lists(st.integers(1, 5 * US),
                                                   min_size=1, max_size=3))}
            deps = draw(st.none() | st.lists(st.integers(0, n - 1),
                                             max_size=3))
            if deps is not None:
                stage["deps"] = deps
            stages.append(stage)
        line = {"id": draw(st.sampled_from([i, "j%d" % i])), "stages": stages}
        submit = draw(st.none() | st.integers(0, 10 * US))
        if submit is not None:
            line["submit_us"] = submit
        lines.append(line)
    return lines


def is_cyclic(stages):
    graph = {i: s.get("deps", []) for i, s in enumerate(stages)}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return True
    return False


def fields(record):
    return (record.job_id, record.submit_us,
            [(s.durations_us, s.deps) for s in record.stages])


@settings(max_examples=200, deadline=None)
@given(dag_lines())
def test_jobs_are_pruned_exactly_when_graphlib_finds_a_cycle(
        tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    write_lines(path, lines)
    records, dropped = load_trace(path)
    kept = [line for line in lines if not is_cyclic(line["stages"])]
    assert dropped == len(lines) - len(kept)
    assert [fields(r) for r in records] == [
        (line["id"], line.get("submit_us"),
         [(tuple(s["durations_us"]), tuple(s.get("deps", ())))
          for s in line["stages"]])
        for line in kept]
    save_trace(records, path)
    again, dropped = load_trace(path)
    assert dropped == 0
    assert [fields(r) for r in again] == [fields(r) for r in records]


@pytest.mark.parametrize("bad, message", [
    ({"id": "b", "stages": [{"durations_us": [1500.5]}]}, "line 2"),
    ({"id": "b", "stages": [{"durations_us": [True]}]}, "line 2"),
    ({"id": "b", "stages": [{"durations_us": ["5"]}]}, "line 2"),
    ({"id": "b", "stages": [{"durations_us": [US]},
                            {"durations_us": [US], "deps": ["0"]}]},
     "line 2"),
    ({"id": "b", "submit_us": 1.5, "stages": [{"durations_us": [US]}]},
     "line 2"),
    ({"id": "b", "submit_us": -5, "stages": [{"durations_us": [US]}]},
     "line 2"),
    ({"id": ["b"], "stages": [{"durations_us": [US]}]}, "line 2"),
    (5, "^line 2: record 5 is not an object$"),
    ({"id": None, "stages": [{"durations_us": [US]}]}, "line 2"),
    ({"id": 1.0, "stages": [{"durations_us": [US]}]}, "line 2"),
    ({"id": True, "stages": [{"durations_us": [US]}]}, "line 2"),
    ({"id": "b", "stages": [{"durations_us": [US], "deps": ""}]},
     '^line 2: deps "" is not an array$'),
    ({"id": "b", "stages": [{"durations_us": [US], "deps": {}}]},
     r"^line 2: deps \{\} is not an array$"),
    ({"id": "b", "stages": [{"durations_us": [US], "deps": None}]},
     "^line 2: deps null is not an array$"),
    ({"id": "b", "stages": [{"durations_us": ""}]},
     '^line 2: durations_us "" is not an array$'),
    ({"id": "b", "stages": [{"durations_us": {}}]},
     r"^line 2: durations_us \{\} is not an array$"),
    ({"id": "b", "stages": ""}, '^line 2: stages "" is not an array$'),
    ({"id": "b", "stages": {}}, r"^line 2: stages \{\} is not an array$"),
    ({"id": "b", "stages": [[5]]}, r"^line 2: stage \[5\] is not an object$"),
    ({"id": "b"}, '^line 2: missing "stages"$'),
    ({"stages": [{"durations_us": [US]}]}, '^line 2: missing "id"$'),
    ({"id": "b", "stages": [{"deps": []}]},
     '^line 2: missing "durations_us"$'),
    # A wrong type is fatal even in a job that would be pruned.  Every
    # shape in a line is checked before any element's type.
    ({"id": "b", "stages": [{"durations_us": [0]},
                            {"durations_us": [US], "deps": ""}]},
     '^line 2: deps "" is not an array$'),
    ({"id": "b", "stages": [{"durations_us": [US], "deps": [0]},
                            {"durations_us": [True]}]},
     "^line 2: duration true is not an integer$"),
    ({"id": "b", "stages": [{"durations_us": [True]},
                            {"durations_us": [US], "deps": ""}]},
     '^line 2: deps "" is not an array$'),
], ids=["float-duration", "bool-duration", "string-duration", "string-dep",
        "float-submit", "negative-submit", "list-id", "not-an-object",
        "null-id", "float-id", "bool-id", "string-deps", "object-deps",
        "null-deps", "string-durations", "object-durations",
        "string-stages", "object-stages", "array-stage", "missing-stages",
        "missing-id", "missing-durations", "bad-deps-in-invalid-job",
        "bad-duration-in-cyclic-job", "bad-deps-after-bad-duration"])
def test_bad_values_are_fatal_with_line_number(tmp_path, bad, message):
    path = tmp_path / "t.jsonl"
    write_lines(path, [{"id": "a", "stages": [{"durations_us": [US]}]}, bad])
    with pytest.raises(TraceError, match=message):
        load_trace(path)


def test_duplicate_job_id_is_fatal(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        {"id": "a", "stages": [{"durations_us": [US]}]},
        {"id": "a", "stages": [{"durations_us": [US]}]},
    ])
    with pytest.raises(TraceError, match="duplicate"):
        load_trace(path)


@pytest.mark.parametrize("first, second", [(1, "1"), ("1", 1), (7, 7)],
                         ids=["int-then-str", "str-then-int", "same-int"])
def test_ids_that_print_alike_are_duplicates(tmp_path, first, second):
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        {"id": first, "stages": [{"durations_us": [US]}]},
        {"id": second, "stages": [{"durations_us": [US]}]},
    ])
    with pytest.raises(TraceError, match="line 2: duplicate"):
        load_trace(path)


def test_unsupported_schema_is_fatal(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [{"schema": "other-2"}])
    with pytest.raises(TraceError, match="schema"):
        load_trace(path)


def chain_lines(n, duration_us):
    """One job of ``n`` one-task stages, each depending on the next."""
    return [{"id": "chain", "submit_us": 0,
             "stages": [{"durations_us": [duration_us],
                         "deps": [i + 1] if i + 1 < n else []}
                        for i in range(n)]}]


def test_forward_chain_of_5000_stages_is_valid(tmp_path):
    # Each stage's only dep points forward, so the cycle check runs and
    # must release all 5,000 stages in one linear pass.
    path = tmp_path / "chain.jsonl"
    write_lines(path, chain_lines(5000, 5))
    records, dropped = load_trace(path)
    assert dropped == 0
    assert len(records[0].stages) == 5000


def test_stage_problem_of_a_long_chain_needs_no_recursion():
    # 5,000 stages is far past the default recursion limit of 1,000.
    stages = [Stage(s["durations_us"], s["deps"])
              for s in chain_lines(5000, US)[0]["stages"]]
    assert stage_problem(stages) is None
    stages[-1] = Stage([US], [0])
    assert stage_problem(stages) == ": stage deps form a cycle"


def test_stage_problem_counts_a_repeated_dep_once_per_listing():
    # JobState.remaining_deps counts [0, 0] as two deps, and finishing
    # stage 0 releases both, so such a job can run.
    assert stage_problem([Stage([US]), Stage([US], [0, 0])]) is None
    assert stage_problem([Stage([US], [1, 1]), Stage([US])]) is None
    assert stage_problem([Stage([US], [1, 1]), Stage([US], [0])]) == \
        ": stage deps form a cycle"


FLAWS = ["no stages", "empty stage", "zero duration", "negative duration",
         "dep out of range"]


@st.composite
def flawed_dag_lines(draw):
    """Lines like ``dag_lines``'s, each with up to two flaws that break
    the rule for a runnable job, besides the cycles they draw anyway."""
    lines = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        stages = []
        for _ in range(n):
            stage = {"durations_us": draw(st.lists(st.integers(1, 5 * US),
                                                   min_size=1, max_size=3))}
            deps = draw(st.none() | st.lists(st.integers(0, n - 1),
                                             max_size=3))
            if deps is not None:
                stage["deps"] = deps
            stages.append(stage)
        for flaw in draw(st.lists(st.sampled_from(FLAWS), max_size=2)):
            if flaw == "no stages":
                stages = []
            if not stages:
                continue
            stage = stages[draw(st.integers(0, n - 1))]
            durations = stage["durations_us"]
            if flaw == "empty stage":
                durations.clear()
            elif flaw == "dep out of range":
                stage.setdefault("deps", []).append(
                    draw(st.sampled_from([-1, n, n + 3])))
            else:
                bad = 0 if flaw == "zero duration" else draw(
                    st.integers(-5 * US, -1))
                durations.insert(draw(st.integers(0, len(durations))), bad)
        lines.append({"id": "j%d" % i, "submit_us": 0, "stages": stages})
    return lines


def runnable(stages):
    """README's rule for a job that can run, on its decoded stages."""
    n = len(stages)
    return (n > 0
            and all(s["durations_us"] and min(s["durations_us"]) > 0
                    for s in stages)
            and all(0 <= d < n for s in stages for d in s.get("deps", ()))
            and not is_cyclic(stages))


class Started(Exception):
    """Raised in place of ``Simulation.run``: the driver accepted a job."""


@settings(max_examples=200, deadline=None)
@given(flawed_dag_lines())
def test_trace_loader_and_driver_apply_one_rule(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "flawed.jsonl"
    write_lines(path, lines)
    records, dropped = load_trace(path)
    kept = {r.job_id for r in records}
    assert dropped == len(lines) - len(kept)
    for line in lines:
        job_id = line["id"]
        stages = [Stage(s["durations_us"], s.get("deps", []))
                  for s in line["stages"]]
        problem = stage_problem(stages)
        with patch.object(Simulation, "run", side_effect=Started):
            with pytest.raises((Started, SimulationError)) as err:
                driver.run_simulation(SimConfig(workers=2, seed=1),
                                      [TraceRecord(job_id, 0, stages)])
        assert (job_id in kept) == (err.type is Started) == \
            (problem is None) == runnable(line["stages"])
        if problem is not None:
            assert str(err.value) == "job %r%s" % (job_id, problem)


def test_critical_path_of_a_long_chain_needs_no_recursion(tmp_path):
    path = tmp_path / "chain.jsonl"
    write_lines(path, chain_lines(1500, 5))
    records, _ = load_trace(path)
    assert records[0].critical_path_us() == 7500


def test_critical_path_rejects_cyclic_deps():
    r = TraceRecord("j", 0, [Stage([US], deps=[1]), Stage([US], deps=[0])])
    with pytest.raises(ValueError, match="cycle"):
        r.critical_path_us()


EMPTY = ()


def reachable(objects):
    """Every object reachable from ``objects`` through gc.get_referents,
    not walking into types."""
    seen = {}
    stack = list(objects)
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def assert_records_hold_tuples(records):
    assert records
    assert not [o for o in reachable(records) if type(o) is list]
    for r in records:
        assert type(r.stages) is tuple
        for s in r.stages:
            assert type(s.durations_us) is tuple
            assert type(s.deps) is tuple
            if not s.deps:
                assert s.deps is EMPTY


def test_records_are_exact_size_tuples(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        {"id": "a", "submit_us": 0, "stages": [{"durations_us": [US]}]},
        {"id": "b", "submit_us": 1, "stages": [
            {"durations_us": [US, 2 * US], "deps": []},
            {"durations_us": [US], "deps": [0]},
            {"durations_us": [3 * US], "deps": [0, 1]}]},
    ])
    loaded, _ = load_trace(path)
    assert_records_hold_tuples(loaded)
    for model in ("lognormal", "two_class"):
        generated = generate(SyntheticSpec(load=0.5, job_count=50, seed=1,
                                           duration_model=model), 10)
        assert_records_hold_tuples(generated)
        save_trace(generated, path)
        again, _ = load_trace(path)
        assert_records_hold_tuples(again)
    save_trace(loaded, path)
    again, _ = load_trace(path)
    assert_records_hold_tuples(again)


def test_critical_path_spans_chained_stages():
    r = TraceRecord("j", 0, [Stage([4 * US, 9 * US]),
                             Stage([5 * US], deps=[0])])
    assert r.critical_path_us() == 14 * US
    assert r.task_count == 3
    assert r.total_work_us == 18 * US


# -- calibration -------------------------------------------------------------

def test_mean_interarrival_example():
    # 10-task jobs of 5s tasks on 100 workers at half load: one job/second.
    assert mean_interarrival_us(0.5, 100, 10, 5 * US) == 1.0 * US


def test_mean_interarrival_scales_inversely_with_load():
    base = mean_interarrival_us(0.5, 100, 10, 5 * US)
    assert mean_interarrival_us(1.0, 100, 10, 5 * US) == base / 2


def test_mean_interarrival_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mean_interarrival_us(0, 100, 10, US)
    with pytest.raises(ValueError):
        mean_interarrival_us(0.5, 0, 10, US)
    # 1e308 * 2 workers is inf, so the gap would be 0.0 us.
    with pytest.raises(LoadError, match="gap of 0.0 us"):
        mean_interarrival_us(1e308, 2, 8, 2 * US)
    with pytest.raises(LoadError, match="gap of nan us"):
        mean_interarrival_us(math.nan, 2, 8, 2 * US)


# -- synthetic generation ----------------------------------------------------

def test_arrival_clock_past_the_largest_float_is_a_load_error():
    # The mean gap, 1.6e306 us, is finite, but about 110 of them sum past
    # the largest float, and int() of an infinite arrival time overflows.
    spec = SyntheticSpec(load=1e-300, job_count=200, seed=0)
    with pytest.raises(LoadError, match="^load 1e-300 on 10 workers "):
        generate(spec, 10)


def test_generation_is_deterministic():
    spec = SyntheticSpec(load=0.5, job_count=50, seed=9)
    a = generate(spec, 100)
    b = generate(spec, 100)
    assert [(r.job_id, r.submit_us, r.stages[0].durations_us) for r in a] == \
           [(r.job_id, r.submit_us, r.stages[0].durations_us) for r in b]


def test_empirical_load_matches_target():
    spec = SyntheticSpec(load=0.8, job_count=4000, seed=3, mean_tasks=6.0,
                         mean_duration_us=2 * US, sigma=1.0)
    workers = 100
    records = generate(spec, workers)
    span_us = records[-1].submit_us
    offered = sum(r.total_work_us for r in records)
    achieved = offered / (span_us * workers)
    assert achieved == pytest.approx(0.8, rel=0.15)


def test_task_count_mean_is_close():
    spec = SyntheticSpec(load=0.5, job_count=4000, seed=4, mean_tasks=8.0)
    records = generate(spec, 100)
    mean_tasks = sum(r.task_count for r in records) / len(records)
    assert mean_tasks == pytest.approx(8.0, rel=0.1)
    assert min(r.task_count for r in records) >= 1


def test_two_class_jobs_are_homogeneous():
    spec = SyntheticSpec(load=0.5, job_count=2000, seed=5,
                         duration_model="two_class", short_fraction=0.9,
                         short_duration_us=3 * US, long_duration_us=100 * US)
    records = generate(spec, 100)
    kinds = set()
    for r in records:
        durs = set(r.stages[0].durations_us)
        assert durs in ({3 * US}, {100 * US})   # never mixed within a job
        kinds.add(durs.pop())
    assert kinds == {3 * US, 100 * US}
    short_jobs = sum(1 for r in records
                     if r.stages[0].durations_us[0] == 3 * US)
    assert short_jobs / len(records) == pytest.approx(0.9, abs=0.03)


def test_lognormal_mean_duration_is_calibrated():
    spec = SyntheticSpec(load=0.5, job_count=3000, seed=6, mean_tasks=4.0,
                         mean_duration_us=2 * US, sigma=1.0)
    records = generate(spec, 100)
    durs = [d for r in records for d in r.stages[0].durations_us]
    assert sum(durs) / len(durs) == pytest.approx(2 * US, rel=0.15)
    assert all(d >= 1 for d in durs)


def test_arrivals_are_nondecreasing():
    records = generate(SyntheticSpec(load=1.0, job_count=200, seed=7), 50)
    submits = [r.submit_us for r in records]
    assert submits == sorted(submits)
    assert submits[0] == 0


@pytest.mark.parametrize("bad", [
    dict(load=0, job_count=1),
    dict(load=0.5, job_count=0),
    dict(load=0.5, job_count=1, duration_model="uniform"),
])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        SyntheticSpec(**bad)


@pytest.mark.parametrize("bad, field", [
    # _sample_tasks draws at least one task, so a lower mean is missed:
    # 0.5 offered about twice the target load.
    (dict(mean_tasks=0.5), "mean_tasks"),
    (dict(mean_tasks=math.nan), "mean_tasks"),
    (dict(duration_model="two_class", short_fraction=-0.2),
     "short_fraction"),
    (dict(duration_model="two_class", short_fraction=1.5), "short_fraction"),
    # A two-class duration is a task's duration as it stands, so it must
    # be a positive integer here, before any job is built from it.
    (dict(duration_model="two_class", short_duration_us=0),
     "short_duration_us"),
    (dict(duration_model="two_class", short_duration_us=-US),
     "short_duration_us"),
    (dict(duration_model="two_class", long_duration_us=0),
     "long_duration_us"),
    (dict(duration_model="two_class", long_duration_us=-US),
     "long_duration_us"),
    (dict(duration_model="two_class", short_duration_us=1.5 * US),
     "short_duration_us"),
    # The lognormal mean calibrates the arrival gap, which needs it
    # positive.
    (dict(mean_duration_us=0), "mean_duration_us"),
    (dict(mean_duration_us=-US), "mean_duration_us"),
    (dict(mean_duration_us=math.nan), "mean_duration_us"),
    # An infinite mean would otherwise be blamed on the load.
    (dict(mean_tasks=math.inf), "mean_tasks"),
    (dict(mean_duration_us=math.inf), "mean_duration_us"),
    # Finite, but log(1 - 1/mean_tasks), which the task-count sampler
    # divides by, is 0.0 from 2 ** 54 up.
    (dict(mean_tasks=1e17), "mean_tasks"),
    (dict(mean_tasks=float(2 ** 54)), "mean_tasks"),
    # sigma is a standard deviation, so finite and not negative.
    (dict(sigma=math.nan), "sigma"),
    (dict(sigma=math.inf), "sigma"),
    (dict(sigma=-1.0), "sigma"),
    # Finite, but its square, which the duration sampler takes, is not.
    (dict(sigma=1e200), "sigma"),
    # The load itself: positive and finite.
    (dict(load=0.0), "load"),
    (dict(load=-1.0), "load"),
    (dict(load=math.nan), "load"),
    (dict(load=math.inf), "load"),
], ids=["half-task", "nan-tasks", "negative-fraction", "fraction-above-1",
        "zero-short", "negative-short", "zero-long", "negative-long",
        "fractional-short", "zero-mean-duration", "negative-mean-duration",
        "nan-mean-duration", "infinite-tasks", "infinite-mean-duration",
        "huge-tasks", "tasks-2-to-54", "nan-sigma", "infinite-sigma",
        "negative-sigma", "huge-sigma",
        "zero-load", "negative-load", "nan-load", "infinite-load"])
def test_spec_that_cannot_meet_its_load_names_the_field(bad, field):
    with pytest.raises(ValueError, match="^%s " % field):
        SyntheticSpec(**{"load": 1.0, "job_count": 10, **bad})


@pytest.mark.parametrize("bad, field", [
    # generate would fail deep inside range() on a fractional count.
    (dict(job_count=2.5), "job_count"),
    (dict(job_count=True), "job_count"),
    (dict(job_count=0), "job_count"),
    # The seed is formatted with %d, so 1.7 and True would both pass as
    # seed 1.
    (dict(seed=1.7), "seed"),
    (dict(seed=True), "seed"),
    (dict(seed="1"), "seed"),
], ids=["fractional-count", "bool-count", "zero-count", "fractional-seed",
        "bool-seed", "string-seed"])
def test_spec_count_and_seed_must_be_integers(bad, field):
    with pytest.raises(ValueError, match="^%s " % field):
        SyntheticSpec(**{"load": 1.0, "job_count": 10, **bad})


def test_spec_takes_the_largest_mean_tasks_it_can_sample():
    # The float just below 2 ** 54 still gives a nonzero log.  Only built:
    # generate would draw jobs of about this many tasks.
    largest = 1.8014398509481982e16
    assert largest < 2 ** 54 and largest.hex() == "0x1.fffffffffffffp+53"
    assert SyntheticSpec(load=1.0, job_count=1,
                         mean_tasks=largest).mean_tasks == largest
