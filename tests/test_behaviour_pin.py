"""Behaviour pins: each algorithm's report digest on small fixed configs,
the entity classes and payload kinds of each algorithm's run, the state
attributes of its workers, schedulers and running jobs, and the fields of
SimConfig.

A refactor that is meant to keep behaviour must keep these digests; one
that changes behaviour on purpose updates them and says why in
CHANGES.md.  The digest is the first 16 hex digits of the sha256 of the
sorted-keys JSON of the report and the per-job records, as ROADMAP.md
defines it.

The benchmark (``perfbench/tracer.py``) names its per-layer metrics after
each entity's module and class and the payload kinds it handles, and it
drops metric names it does not declare.  A renamed class or kind would
therefore read 0 in the benchmark without failing it; the class pin makes
such a rename fail here instead.
"""

import dataclasses
import gc
import hashlib
import json
import random

import pytest

from peacock_sim import driver
from peacock_sim.baselines import LONG_CUTOFF_US, PROBE_RATIO
from peacock_sim.engine import SimConfig, Simulation
from peacock_sim.metrics import summarize
from peacock_sim.probes import Probe
from peacock_sim.scheduler import JobState
from peacock_sim.workload import (Stage, SyntheticSpec, TraceRecord, generate,
                                  load_trace, save_trace)

US = 1_000_000
WORKERS = 50


def report_digest(result):
    report = summarize(result.records, result.counters, result.workers)
    blob = json.dumps({"report": report.to_dict(),
                       "records": [r.to_dict() for r in result.records]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def records():
    # The criterion-8 job shape (3 s / 200 s, 95% short) at a size that
    # runs in well under a second, and still rotates probes on the ring.
    spec = SyntheticSpec(load=2.0, job_count=400, seed=1, mean_tasks=6.0,
                         duration_model="two_class", short_duration_us=3 * US,
                         long_duration_us=200 * US, short_fraction=0.95)
    return generate(spec, WORKERS)


@pytest.mark.parametrize("net_delay_us, expected", [
    (5_000, "4607719558fb2d54"),
    (0, "2c456cdb63231197"),
    # Equal to the rotation interval: a round's rotations land at the same
    # instant as the next round, and must be delivered before it.
    (US, "f9977515b7cb5462"),
    # Twice the interval: a round's rotations land at the same instant as
    # the round after next, and must be delivered before it.
    (2 * US, "ee537fa444480c32"),
])
def test_peacock_report_digest_is_pinned(records, net_delay_us, expected):
    result = driver.run_simulation(
        SimConfig(workers=WORKERS, schedulers=4, seed=1,
                  rotation_interval_us=US, net_delay_us=net_delay_us),
        records)
    assert result.counters["probe_hops"] > 0
    assert report_digest(result) == expected


@pytest.mark.parametrize("algo, net_delay_us, expected", [
    ("sparrow", 5_000, "c897ae33d82b46de"),
    ("eagle", 5_000, "24e65217669f4cc3"),
    # At a zero delay a stage's probes land at the instant they are sent,
    # behind the events already due then.
    ("sparrow", 0, "8543dfc7c74cc378"),
    ("eagle", 0, "2ffd4cc1bb8a5556"),
    ("sparrow", US, "221a006cbb8233cd"),
    ("eagle", US, "45fc4163c56dc9ea"),
])
def test_baseline_report_digest_is_pinned(records, algo, net_delay_us,
                                          expected):
    result = driver.run_simulation(
        SimConfig(workers=WORKERS, schedulers=4, seed=1, algo=algo,
                  net_delay_us=net_delay_us), records)
    assert result.counters["probes_cancelled"] > 0
    assert report_digest(result) == expected


def test_eagle_wide_general_partition_digest_is_pinned():
    # Light two-class load on 400 workers: every long task is placed while
    # many of the 340 general workers tie at load zero, some of them back
    # at zero after a long finish, so the placer's lowest-index tie-break
    # decides each placement.
    spec = SyntheticSpec(load=0.3, job_count=300, seed=1, mean_tasks=6.0,
                         duration_model="two_class", short_duration_us=3 * US,
                         long_duration_us=200 * US, short_fraction=0.8)
    config = SimConfig(workers=400, schedulers=4, seed=1, algo="eagle")
    records = generate(spec, config.workers)
    assert any(s.durations_us[0] > LONG_CUTOFF_US
               for r in records for s in r.stages)
    result = driver.run_simulation(config, records)
    assert report_digest(result) == "9d6c9d1fcf64b0cc"


@pytest.fixture(scope="module")
def dag_records(tmp_path_factory):
    # Multi-stage jobs read back from a trace: every stage after the first
    # depends on one or two earlier ones, so most admissions come from
    # task_finish.  One stage in four has tasks of 2-8 s, whose mean is
    # often above Eagle's 3 s long cutoff.
    rng = random.Random(6)
    jobs = []
    for i in range(60):
        stages = []
        for s in range(rng.randint(2, 4)):
            low, high = (2 * US, 8 * US) if rng.random() < 0.25 \
                else (US // 10, US)
            durations = [rng.randint(low, high)
                         for _ in range(rng.randint(2, 5))]
            deps = sorted(rng.sample(range(s), min(s, rng.randint(1, 2))))
            stages.append(Stage(durations, deps))
        jobs.append(TraceRecord("d%d" % i, i * 400_000, stages))
    path = tmp_path_factory.mktemp("dag") / "dag.jsonl.gz"
    save_trace(jobs, path)
    records, dropped = load_trace(path)
    assert dropped == 0
    return records


@pytest.mark.parametrize("algo, expected", [
    ("peacock", "50fd5f3404fcb6d2"),
    ("sparrow", "3bbdef35db9467db"),
    ("eagle", "0e2ddc61ad175967"),
])
def test_dag_trace_digest_is_pinned(dag_records, algo, expected):
    config = SimConfig(workers=20, schedulers=2, seed=1, algo=algo)
    assert any(len(s.deps) == 2 for r in dag_records for s in r.stages)
    assert any(sum(s.durations_us) > LONG_CUTOFF_US * len(s.durations_us)
               for r in dag_records for s in r.stages)
    result = driver.run_simulation(config, dag_records)
    counters = result.counters
    tasks = sum(r.task_count for r in dag_records)
    assert counters["tasks_finished"] == tasks
    if algo == "peacock":
        assert counters["probe_hops"] > 0
    else:
        assert counters["probes_cancelled"] > 0
    if algo == "eagle":
        # Long stages were placed centrally, one probe per task.
        assert counters["probes_created"] < PROBE_RATIO * tasks
    assert report_digest(result) == expected


WORKER, SCHEDULER, BASELINES = ("peacock_sim.worker", "peacock_sim.scheduler",
                                 "peacock_sim.baselines")
SLOT_KINDS = {"probe", "assign", "cancel", "complete"}
SCHEDULER_KINDS = {"job", "task_request", "task_finish"}
ENTITY_KINDS = {
    "peacock": {
        (WORKER, "PeacockWorker"): {"probe", "assign", "complete"},
        (WORKER, "Ring"): {"round"},
        (SCHEDULER, "PeacockScheduler"): SCHEDULER_KINDS | {"peer"},
    },
    "sparrow": {
        (BASELINES, "SparrowWorker"): SLOT_KINDS,
        (BASELINES, "SparrowScheduler"): SCHEDULER_KINDS,
    },
    "eagle": {
        (BASELINES, "EagleWorker"): SLOT_KINDS,
        (BASELINES, "EagleCentral"): {"long_stage", "long_finish"},
        (BASELINES, "EagleScheduler"): SCHEDULER_KINDS,
    },
}


def test_config_fields_are_pinned():
    # Sparrow's and Eagle's parameters are constants in baselines; a new
    # knob has to be added here too.
    assert [f.name for f in dataclasses.fields(SimConfig)] == [
        "workers", "schedulers", "rotation_interval_us", "net_delay_us",
        "seed", "algo", "event_cap"]


SLOT_STATE = ["eid", "finish_us", "index", "queue", "sim", "slot"]
SCHEDULER_STATE = ["eid", "jobs", "rng", "sid", "sim", "worker_eids"]
ENTITY_STATE = {
    "peacock": (sorted(SLOT_STATE + ["dirty", "known_state"]),
                sorted(SCHEDULER_STATE + ["_state", "load_us", "peer_eids",
                                          "probe_count"])),
    "sparrow": (SLOT_STATE, SCHEDULER_STATE),
    "eagle": (sorted(SLOT_STATE + ["central_eid", "long_count", "partition",
                                   "rng", "short_worker_eids"]),
              sorted(SCHEDULER_STATE + ["central_eid"])),
}


@pytest.mark.parametrize("algo", sorted(ENTITY_STATE))
def test_entity_state_attributes_are_pinned(algo):
    # Each fact has one owner; a second copy of one has to be added here
    # too.  Built through the driver, since _build_eagle sets a worker's
    # central_eid after EagleWorker.__init__.
    config = SimConfig(workers=4, algo=algo)
    sim = Simulation(config)
    workers, schedulers = driver._BUILDERS[algo](sim, config)
    assert (sorted(vars(workers[0])), sorted(vars(schedulers[0]))) \
        == ENTITY_STATE[algo]


def test_job_state_slots_are_pinned():
    assert JobState.__slots__ == (
        "record", "result", "thetas", "stage_remaining", "remaining_deps",
        "dependents", "launched", "pool_next")


def test_probe_slots_are_pinned():
    # A probe's key is derived from job_id and task_id, not kept.
    assert Probe.__slots__ == (
        "job_id", "task_id", "arrival_us", "runtime_us", "allowance_us",
        "deadline_us", "rotations", "scheduler", "resampled", "enqueued_us")


@pytest.mark.parametrize("algo", sorted(ENTITY_KINDS))
def test_sent_probes_hold_no_tuple_but_their_job_key(dag_records, algo,
                                                     monkeypatch):
    # Thousands of probes can wait at once, so each holds its (job, stage)
    # key and no second tuple: no stored (job, task) key, no task label.
    sent = []
    send = Simulation.send

    def recording_send(sim, target, payload, now_us):
        if payload[0] == "probe":
            sent.append(payload[1])
        return send(sim, target, payload, now_us)

    monkeypatch.setattr(Simulation, "send", recording_send)
    driver.run_simulation(
        SimConfig(workers=20, schedulers=2, seed=1, algo=algo), dag_records)
    assert sent
    if algo != "peacock":
        assert any(p.task_id is None for p in sent)
    for p in sent:
        assert [r for r in gc.get_referents(p)
                if type(r) is tuple] == [p.job_id]


@pytest.mark.parametrize("algo", sorted(ENTITY_KINDS))
def test_entity_classes_and_payload_kinds_are_pinned(dag_records, algo,
                                                     monkeypatch):
    kinds = {}
    add_entity = Simulation.add_entity

    def recording_add_entity(sim, entity):
        cls = type(entity)
        seen = kinds.setdefault((cls.__module__, cls.__name__), set())
        handle = entity.handle

        def recording_handle(payload, now):
            seen.add(payload[0])
            return handle(payload, now)
        entity.handle = recording_handle
        return add_entity(sim, entity)

    monkeypatch.setattr(Simulation, "add_entity", recording_add_entity)
    driver.run_simulation(
        SimConfig(workers=20, schedulers=2, seed=1, algo=algo), dag_records)
    assert kinds == ENTITY_KINDS[algo]
