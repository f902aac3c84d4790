"""Event core tests: delivery order, delays, the causality and event-cap
guards, config validation, and end-to-end determinism of small runs."""

import json

import pytest

from peacock_sim import driver
from peacock_sim.engine import (ALGOS, SimConfig, Simulation, SimulationError,
                                derived_rng)
from peacock_sim.workload import Stage, TraceRecord

US = 1_000_000


class Recorder:
    def __init__(self, sim):
        self.eid = sim.add_entity(self)
        self.inbox = []

    def handle(self, payload, now):
        self.inbox.append((now, payload))


def test_send_adds_network_delay():
    sim = Simulation(SimConfig(workers=1, net_delay_us=5_000))
    r = Recorder(sim)
    sim.send(r.eid, ("x",), now_us=10)
    sim.run()
    assert r.inbox == [(5_010, ("x",))]
    assert sim.counters["messages"] == 1


def test_timers_have_no_delay_and_are_not_messages():
    sim = Simulation(SimConfig(workers=1, net_delay_us=5_000))
    r = Recorder(sim)
    sim.schedule_at(42, r.eid, ("t",))
    sim.run()
    assert r.inbox == [(42, ("t",))]
    assert sim.counters["messages"] == 0


def test_same_instant_events_delivered_in_send_order():
    sim = Simulation(SimConfig(workers=1, net_delay_us=0))
    r = Recorder(sim)
    for tag in ("a", "b", "c"):
        sim.send(r.eid, (tag,), now_us=7)
    sim.run()
    assert [m for _, m in r.inbox] == [("a",), ("b",), ("c",)]


def test_send_to_unknown_entity_fails():
    sim = Simulation(SimConfig(workers=1))
    with pytest.raises(SimulationError):
        sim.send(3, ("x",), 0)


def test_event_cap_guards_against_runaway():
    class Pingback:
        def __init__(self, sim):
            self.sim = sim
            self.eid = sim.add_entity(self)

        def handle(self, payload, now):
            self.sim.schedule_at(now + 1, self.eid, payload)

    sim = Simulation(SimConfig(workers=1, event_cap=50))
    p = Pingback(sim)
    sim.schedule_at(0, p.eid, ("loop",))
    with pytest.raises(SimulationError):
        sim.run()


def test_event_cap_is_the_most_events_a_run_may_handle():
    # Five timers at five instants: a cap of 5 lets the run end, and a cap
    # of 4 trips once the fifth has run.
    def five_timers(cap):
        sim = Simulation(SimConfig(workers=1, event_cap=cap))
        r = Recorder(sim)
        for t in range(5):
            sim.schedule_at(t, r.eid, ("t",))
        return sim

    assert five_timers(5).run() == 5
    with pytest.raises(SimulationError, match="event cap 4 exceeded at t=4us"):
        five_timers(4).run()


def test_event_before_the_clock_after_a_run_is_a_causality_violation():
    sim = Simulation(SimConfig(workers=1))
    r = Recorder(sim)
    sim.schedule_at(10, r.eid, ("t",))
    sim.run()
    sim.schedule_at(9, r.eid, ("late",))
    with pytest.raises(SimulationError, match="causality violation: "
                       "event at 9 before clock 10"):
        sim.run()
    assert r.inbox == [(10, ("t",))]


def test_event_before_the_clock_from_a_handler_is_a_causality_violation():
    class Backdater:
        def __init__(self, sim):
            self.sim = sim
            self.eid = sim.add_entity(self)

        def handle(self, payload, now):
            if payload == ("now",):
                self.sim.schedule_at(now - 1, self.eid, ("past",))

    sim = Simulation(SimConfig(workers=1))
    b = Backdater(sim)
    sim.schedule_at(20, b.eid, ("now",))
    with pytest.raises(SimulationError, match="causality violation: "
                       "event at 19 before clock 20"):
        sim.run()


# -- delivery order around one handler's sends -------------------------------

D = 5_000


class Tap:
    """Logs ``(now, name, payload tag)`` into a log shared by several taps."""

    def __init__(self, sim, log, name):
        self.eid = sim.add_entity(self)
        self.log = log
        self.name = name

    def handle(self, payload, now):
        self.log.append((now, self.name, payload[0]))


class Script:
    """Runs the callable its payload carries, so a test can act as a
    handler at a chosen instant."""

    def __init__(self, sim):
        self.eid = sim.add_entity(self)

    def handle(self, payload, now):
        payload[1](now)


def two_taps(net_delay_us=D):
    sim = Simulation(SimConfig(workers=1, net_delay_us=net_delay_us))
    log = []
    return sim, log, Tap(sim, log, "a"), Tap(sim, log, "b"), Script(sim)


def test_handler_sends_arrive_in_send_order_among_same_instant_events():
    sim, log, a, b, script = two_taps()

    def fan_out(now):
        sim.send(a.eid, ("m1",), now)
        sim.send(b.eid, ("m2",), now)
        sim.send(a.eid, ("m3",), now)

    def later(now):
        sim.schedule_at(D, b.eid, ("after",))

    sim.schedule_at(D, a.eid, ("before",))
    sim.schedule_at(0, script.eid, ("run", fan_out))
    sim.schedule_at(1, script.eid, ("run", later))
    assert sim.run() == 7
    assert log == [(D, "a", "before"), (D, "a", "m1"), (D, "b", "m2"),
                   (D, "a", "m3"), (D, "b", "after")]


def test_timer_due_with_the_sends_is_delivered_between_them():
    sim, log, a, b, script = two_taps()

    def sends_around_timers(now):
        sim.send(a.eid, ("m1",), now)
        sim.schedule_at(now + D, b.eid, ("timer",))
        sim.schedule_at(now + 1, b.eid, ("early",))
        sim.send(a.eid, ("m2",), now)

    sim.schedule_at(10, script.eid, ("run", sends_around_timers))
    sim.run()
    assert log == [(11, "b", "early"), (10 + D, "a", "m1"),
                   (10 + D, "b", "timer"), (10 + D, "a", "m2")]


def test_zero_delay_send_from_a_handler_follows_the_rest_of_its_instant():
    sim, log, a, b, script = two_taps(net_delay_us=0)

    def echo(now):
        sim.send(a.eid, ("echo",), now)

    def fan_out(now):
        sim.send(script.eid, ("run", echo), now)
        sim.send(a.eid, ("m1",), now)
        sim.send(b.eid, ("m2",), now)

    sim.schedule_at(3, script.eid, ("run", fan_out))
    sim.run()
    assert log == [(3, "a", "m1"), (3, "b", "m2"), (3, "a", "echo")]


def test_run_counts_messages_handled_and_can_resume():
    sim, log, a, b, script = two_taps()

    def fan_out(now):
        for _ in range(3):
            sim.send(a.eid, ("m",), now)

    sim.schedule_at(0, script.eid, ("run", fan_out))
    assert sim.run() == 4
    # Scheduled outside run(), at what is now + delay: still delivered.
    sim.schedule_at(sim.now + D, b.eid, ("late",))
    assert sim.run() == 1
    assert log[-1] == (2 * D, "b", "late")


def test_event_cap_trips_on_a_fan_out():
    class Doubler:
        def __init__(self, sim):
            self.sim = sim
            self.eid = sim.add_entity(self)

        def handle(self, payload, now):
            self.sim.send(self.eid, payload, now)
            self.sim.send(self.eid, payload, now)

    sim = Simulation(SimConfig(workers=1, event_cap=50))
    d = Doubler(sim)
    sim.schedule_at(0, d.eid, ("grow",))
    with pytest.raises(SimulationError, match="event cap 50"):
        sim.run()


# Two DAG jobs; stage 1 of "b" has a mean task above Eagle's 3 s cutoff.
CAP_JOBS = [
    TraceRecord("a", 0, [Stage([US, 2 * US]), Stage([US], deps=[0])]),
    TraceRecord("b", US // 2, [Stage([US // 2]),
                               Stage([4 * US, 5 * US], deps=[0]),
                               Stage([US, US, US], deps=[0, 1])]),
]
# One event per job and per stage, four per task.
CAP_BOUND = 2 + 5 + 4 * 9


@pytest.mark.parametrize("algo", ALGOS)
def test_event_cap_below_the_work_fails_before_any_event(algo, monkeypatch):
    handled = []
    run = Simulation.run
    monkeypatch.setattr(Simulation, "run",
                        lambda sim: handled.append(run(sim)) or handled[-1])
    driver.run_simulation(SimConfig(workers=4, seed=1, algo=algo), CAP_JOBS)
    (total,) = handled
    assert total >= CAP_BOUND
    driver.run_simulation(SimConfig(workers=4, seed=1, algo=algo,
                                    event_cap=total), CAP_JOBS)
    # At the bound itself the run starts, and its own guard trips.
    with pytest.raises(SimulationError, match="event cap %d exceeded"
                       % CAP_BOUND):
        driver.run_simulation(SimConfig(workers=4, seed=1, algo=algo,
                                        event_cap=CAP_BOUND), CAP_JOBS)
    handled.clear()
    with pytest.raises(SimulationError,
                       match="event_cap %d is below %d, "
                       % (CAP_BOUND - 1, CAP_BOUND)):
        driver.run_simulation(SimConfig(workers=4, seed=1, algo=algo,
                                        event_cap=CAP_BOUND - 1), CAP_JOBS)
    assert handled == []


# Each case's last record is the bad one; a good job comes before it.
BAD_RECORDS = {
    "negative-submit": [TraceRecord("late", -5, [Stage([US])])],
    "float-submit": [TraceRecord("half", 0.5, [Stage([US])])],
    "bool-submit": [TraceRecord("flag", True, [Stage([US])])],
    "no-submit": [TraceRecord("unset", None, [Stage([US])])],
    "equal-ids": [TraceRecord("twin", 0, [Stage([US])]),
                  TraceRecord("twin", US, [Stage([US])])],
    "same-printed-ids": [TraceRecord(17, 0, [Stage([US])]),
                         TraceRecord("17", 0, [Stage([US])])],
    "no-stages": [TraceRecord("bare", 0, [])],
    "empty-stage": [TraceRecord("hollow", 0, [Stage([US]),
                                              Stage([], deps=[0])])],
    "zero-duration": [TraceRecord("instant", 0, [Stage([US, 0])])],
    "negative-duration": [TraceRecord("rewind", 0, [Stage([-US])])],
    "bool-duration": [TraceRecord("truthy", 0, [Stage([True])])],
    "float-duration": [TraceRecord("fraction", 0, [Stage([1.5 * US])])],
    "str-dep": [TraceRecord("named", 0, [Stage([US]),
                                         Stage([US], deps=["0"])])],
    "bool-dep": [TraceRecord("flagged", 0, [Stage([US]),
                                            Stage([US], deps=[False])])],
    "dep-past-end": [TraceRecord("beyond", 0, [Stage([US], deps=[1])])],
    "negative-dep": [TraceRecord("before", 0, [Stage([US]),
                                               Stage([US], deps=[-1])])],
    "self-dep": [TraceRecord("ouroboros", 0, [Stage([US], deps=[0])])],
    "cyclic-deps": [TraceRecord("loop", 0, [Stage([US]),
                                            Stage([US], deps=[0, 2]),
                                            Stage([US], deps=[1])])],
    "none-id": [TraceRecord(None, 0, [Stage([US])])],
    "float-id": [TraceRecord(1.5, 0, [Stage([US])])],
    "tuple-id": [TraceRecord((1, 2), 0, [Stage([US])])],
    "bool-id": [TraceRecord(True, 0, [Stage([US])])],
}


@pytest.mark.parametrize("case", BAD_RECORDS)
@pytest.mark.parametrize("algo", ALGOS)
def test_bad_record_fails_before_any_event(algo, case, monkeypatch):
    started = []
    run = Simulation.run
    monkeypatch.setattr(Simulation, "run",
                        lambda sim: started.append(sim) or run(sim))
    records = [TraceRecord("ok", 0, [Stage([US])])] + BAD_RECORDS[case]
    with pytest.raises(SimulationError) as err:
        driver.run_simulation(SimConfig(workers=4, seed=1, algo=algo),
                              records)
    assert repr(records[-1].job_id) in str(err.value)
    assert started == []


@pytest.mark.parametrize("algo", ALGOS)
def test_acyclic_deps_that_point_forward_run(algo):
    # Stage 0 waits on stage 2, which waits on stage 1.
    record = TraceRecord("ahead", 0, [Stage([US], deps=[2]), Stage([US]),
                                      Stage([US, US], deps=[1])])
    result = driver.run_simulation(SimConfig(workers=4, seed=1, algo=algo),
                                   [record])
    (rec,) = result.records
    assert rec.completion_us >= 3 * US
    assert result.counters["tasks_finished"] == 4


@pytest.mark.parametrize("bad", [
    dict(workers=0),
    dict(schedulers=0),
    dict(rotation_interval_us=0),
    dict(net_delay_us=-1),
    dict(algo="fifo"),
    dict(algo="Peacock"),
    dict(workers=True),
    dict(schedulers=2.0),
    dict(rotation_interval_us=1.5e6),
    dict(net_delay_us=0.5),
    dict(event_cap="1000"),
    dict(workers=None),
    dict(schedulers=-2),
    dict(event_cap=0),
    dict(rotation_interval_us=-1),
    dict(net_delay_us=float("nan")),
    dict(seed=1.7),
    dict(net_delay_us=float("inf")),
    dict(rotation_interval_us=None),
    dict(seed=None),
    dict(seed="0"),
    dict(seed=True),
    dict(algo=None),
    dict(algo=""),
    dict(event_cap=-1),
    dict(event_cap=1e9),
    dict(workers=4.0),
    dict(schedulers=False),
    dict(net_delay_us=True),
    dict(algo=" peacock"),
])
def test_config_validation(bad):
    (field,) = bad
    with pytest.raises(SimulationError, match=field):
        SimConfig(**bad)


def test_derived_rng_is_stable_and_stream_separated():
    a = derived_rng(7, "worker", 3).random()
    b = derived_rng(7, "worker", 3).random()
    c = derived_rng(7, "worker", 4).random()
    assert a == b
    assert a != c


def test_derived_rng_does_not_depend_on_when_it_is_made():
    # Eagle makes a worker's stream on its first re-sample, so a stream
    # must draw the same whether it is made first or after other streams
    # have been made and drawn from.
    def draws(rng):
        return [rng.random(), rng.randrange(1000)] + rng.sample(range(100), 5)

    first = draws(derived_rng(7, "eagle-worker", 3))
    for i in range(8):
        draws(derived_rng(7, "eagle-worker", i))
    assert draws(derived_rng(7, "eagle-worker", 3)) == first


# -- tiny end-to-end runs ----------------------------------------------------

def one_task_job(job_id="j", duration_s=10, submit_us=0):
    return TraceRecord(job_id=job_id, submit_us=submit_us,
                       stages=[Stage([duration_s * US])])


def test_single_job_jct_includes_protocol_delays():
    # probe (D) + task request (D) + assignment (D) + execution.
    cfg = SimConfig(workers=1, schedulers=1, net_delay_us=5_000)
    result = driver.run_simulation(cfg, [one_task_job()])
    (rec,) = result.records
    assert rec.jct_us == 10 * US + 3 * 5_000


def test_zero_delay_single_job_jct_is_exact():
    cfg = SimConfig(workers=1, schedulers=1, net_delay_us=0)
    result = driver.run_simulation(cfg, [one_task_job(duration_s=3)])
    assert result.records[0].jct_us == 3 * US


def serialized_run(algo, seed):
    from peacock_sim.metrics import summarize
    from peacock_sim.workload import SyntheticSpec, generate
    spec = SyntheticSpec(load=0.6, job_count=40, seed=seed, mean_tasks=3.0,
                         mean_duration_us=2 * US)
    cfg = SimConfig(workers=20, schedulers=2, seed=seed, algo=algo)
    result = driver.run_simulation(cfg, generate(spec, cfg.workers))
    payload = {"records": [r.to_dict() for r in result.records],
               "report": summarize(result.records, result.counters,
                                   cfg.workers).to_dict()}
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("algo", ["peacock", "sparrow", "eagle"])
def test_repeat_runs_are_identical(algo):
    assert serialized_run(algo, 5) == serialized_run(algo, 5)


def test_different_seeds_differ():
    assert serialized_run("peacock", 5) != serialized_run("peacock", 6)
