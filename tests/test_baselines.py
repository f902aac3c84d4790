"""Baseline scheduler tests: batch sampling, late binding with lazy
cancellation, the static partition, re-sampling, and bounded
shortest-first reordering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peacock_sim import driver
from peacock_sim.baselines import (LONG_CUTOFF_US, PROBE_RATIO, SRPT_BOUND_US,
                                   EagleCentral, EagleScheduler, EagleWorker,
                                   SparrowScheduler, SparrowWorker)
from peacock_sim.engine import ProtocolError, SimConfig, Simulation, \
    derived_rng
from peacock_sim.probes import Probe
from peacock_sim.workload import Stage, SyntheticSpec, TraceRecord, generate

US = 1_000_000


class Recorder:
    def __init__(self, sim, index=None):
        sim.add_entity(self)
        self.index = index
        self.inbox = []

    def handle(self, payload, now):
        self.inbox.append((now, payload))


def job(job_id, durations_s, submit_us=0):
    return TraceRecord(job_id=job_id, submit_us=submit_us,
                       stages=[Stage([d * US for d in durations_s])])


def probe(job_key, task_id, theta_s, scheduler=None):
    return Probe(job_id=job_key, task_id=task_id, arrival_us=0,
                 runtime_us=theta_s * US, allowance_us=0, scheduler=scheduler)


# -- sparrow -----------------------------------------------------------------

def test_sparrow_probe_count_and_exactly_once():
    cfg = SimConfig(workers=20, schedulers=1, algo="sparrow",
                    net_delay_us=1000, seed=3)
    result = driver.run_simulation(cfg, [job("j", [5, 5, 5])])
    c = result.counters
    assert c["probes_created"] == PROBE_RATIO * 3
    assert c["tasks_launched"] == 3
    assert c["tasks_finished"] == 3
    # Surplus probes are cancelled lazily.
    assert c["probes_cancelled"] == (PROBE_RATIO - 1) * 3
    assert result.records[0].job_id == "j"


def test_sparrow_probes_hit_distinct_workers():
    sim = Simulation(SimConfig(workers=10, algo="sparrow"))
    recorders = [Recorder(sim) for _ in range(10)]
    sched = SparrowScheduler(sim, 0, recorders, derived_rng(1, "s"))
    sched.on_job_arrival(job("j", [5, 5, 5, 5]), 0)
    sim.run()
    hit = [r for r in recorders if r.inbox]
    assert len(hit) == 8                   # 8 probes, all distinct workers


class LogRecorder:
    """A worker stand-in that logs into a list shared across workers."""

    def __init__(self, sim, log):
        sim.add_entity(self)
        self.log = log

    def handle(self, payload, now):
        self.log.append((now, self, tuple(
            tuple(getattr(x, f) for f in Probe.__slots__)
            if isinstance(x, Probe) else x for x in payload)))


def make_baseline_scheduler(algo, sim, workers):
    rng = derived_rng(1, "s")
    if algo == "sparrow":
        return SparrowScheduler(sim, 0, workers, rng)
    return EagleScheduler(sim, 0, workers, rng, Recorder(sim))


def run_two_stages(algo, net_delay_us):
    """Two short one-stage jobs admitted at t=0, with timers due where
    their probes land; returns the delivery log, the events run() handled
    and the messages counted."""
    sim = Simulation(SimConfig(workers=10, algo=algo,
                               net_delay_us=net_delay_us))
    log = []
    recorders = [LogRecorder(sim, log) for _ in range(10)]
    sched = make_baseline_scheduler(algo, sim, recorders)
    sim.schedule_at(net_delay_us, recorders[0], ("early",))
    sim.schedule_at(0, sched, ("job", job("a", [1, 2, 3])))
    sim.schedule_at(0, sched, ("job", job("b", [1, 1])))
    sim.schedule_at(net_delay_us, recorders[1], ("late",))
    return log, sim.run(), sim.counters["messages"]


@pytest.mark.parametrize("net_delay_us", [0, 5_000])
@pytest.mark.parametrize("algo", ["sparrow", "eagle"])
def test_fan_out_delivers_as_one_send_per_probe(algo, net_delay_us):
    log, events, messages = run_two_stages(algo, net_delay_us)
    probes = [m for _, _, m in log if m[0] == "probe"]
    assert len(probes) == PROBE_RATIO * 5
    assert [m[1][0] for m in probes] == \
        [("a", 0)] * (PROBE_RATIO * 3) + [("b", 0)] * (PROBE_RATIO * 2)
    assert {t for t, _, m in log} == {net_delay_us}
    # Each probe is one message and one delivered event.
    assert messages == PROBE_RATIO * 5
    assert events == 2 + PROBE_RATIO * 5 + 2


def test_sparrow_worker_queue_is_fifo():
    sim = Simulation(SimConfig(workers=1, algo="sparrow", net_delay_us=0))
    sched = Recorder(sim)
    w = SparrowWorker(sim, 0)
    first = probe(("a", 0), None, 5, scheduler=sched)
    w.handle(("probe", first), 0)
    assert w.slot is first and w.finish_us is None
    later = [probe(("b", 0), None, 1, scheduler=sched)
             for _ in range(3)]
    for i, p in enumerate(later):
        w.handle(("probe", p), i + 1)
    assert list(w.queue) == later          # shorter probes do not jump ahead


def test_late_binding_maps_probes_to_remaining_tasks():
    # One 2-task stage, ratio 2: the first two probes to reach a slot get
    # tasks 0 and 1, the last two are cancelled.
    cfg = SimConfig(workers=4, schedulers=1, algo="sparrow",
                    net_delay_us=1000, seed=8)
    result = driver.run_simulation(cfg, [job("j", [7, 2])])
    assert result.counters["tasks_launched"] == 2
    assert result.counters["probes_cancelled"] == 2


# -- eagle -------------------------------------------------------------------

def make_eagle_worker(partition="general"):
    # With the 3 s cutoff the 100 s probes below are long and every other
    # probe, at most 3 s, is short.
    sim = Simulation(SimConfig(workers=2, algo="eagle", net_delay_us=0))
    sched = Recorder(sim)
    short_stub = Recorder(sim)
    w = EagleWorker(sim, 0)
    w.short_workers = [short_stub]
    # The placer's workers are the general partition.
    sched.workers = {0: w} if partition == "general" else {}
    w.central = sched
    return sim, w, sched, short_stub


def test_eagle_short_probe_resamples_off_long_work():
    sim, w, sched, short_stub = make_eagle_worker()
    w.handle(("probe", probe(("L", 0), 0, 100, scheduler=sched)), 0)
    assert w.long_count == 1
    p = probe(("s", 0), None, 2, scheduler=sched)
    w.handle(("probe", p), 1)
    sim.run()
    forwarded = [m for _, m in short_stub.inbox if m[0] == "probe"]
    assert len(forwarded) == 1 and forwarded[0][1] is p
    assert p.resampled


def test_eagle_resample_happens_at_most_once():
    sim, w, sched, short_stub = make_eagle_worker()
    w.handle(("probe", probe(("L", 0), 0, 100, scheduler=sched)), 0)
    p = probe(("s", 0), None, 2, scheduler=sched)
    p.resampled = True
    w.handle(("probe", p), 1)
    assert short_stub.inbox == []          # stays despite the long work
    assert p in w.queue


def test_eagle_long_probe_on_short_partition_is_protocol_violation():
    sim, w, sched, _ = make_eagle_worker(partition="short")
    with pytest.raises(ProtocolError):
        w.handle(("probe", probe(("L", 0), 0, 100, scheduler=sched)), 0)


def test_eagle_queue_orders_shortest_first():
    sim, w, sched, _ = make_eagle_worker()
    w.slot, w.finish_us = probe(("r", 0), 0, 1, scheduler=sched), 10 * US
    w.handle(("probe", probe(("a", 0), None, 3,
                             scheduler=sched)), 0)
    w.handle(("probe", probe(("b", 0), None, 1,
                             scheduler=sched)), 1)
    w.handle(("probe", probe(("c", 0), None, 2,
                             scheduler=sched)), 2)
    assert [p.runtime_us for p in w.queue] == [1 * US, 2 * US, 3 * US]


def test_eagle_starvation_bound_blocks_bypass():
    sim, w, sched, _ = make_eagle_worker()
    w.slot, w.finish_us = probe(("r", 0), 0, 1, scheduler=sched), 10 * US
    w.handle(("probe", probe(("old", 0), None, 3,
                             scheduler=sched)), 0)
    # 6s later the old probe has aged past the 5 s bound: no more bypassing.
    w.handle(("probe", probe(("new", 0), None, 1,
                             scheduler=sched)), 6 * US)
    assert [p.job_id[0] for p in w.queue] == ["old", "new"]


@pytest.mark.parametrize("waited_us, order", [
    (SRPT_BOUND_US - 1, ["new", "old"]),
    (SRPT_BOUND_US, ["old", "new"]),
], ids=["just-below-bound", "at-bound"])
def test_eagle_starvation_bound_holds_from_its_exact_instant(waited_us, order):
    # A shorter probe may pass an entry queued less than SRPT_BOUND_US ago,
    # and not one queued exactly that long ago.
    sim, w, sched, _ = make_eagle_worker()
    w.slot, w.finish_us = probe(("r", 0), 0, 1, scheduler=sched), 10 * US
    w.handle(("probe", probe(("old", 0), None, 3,
                             scheduler=sched)), US)
    w.handle(("probe", probe(("new", 0), None, 1,
                             scheduler=sched)), US + waited_us)
    assert [p.job_id[0] for p in w.queue] == order


def test_eagle_central_places_least_loaded():
    sim = Simulation(SimConfig(workers=3, algo="eagle", net_delay_us=0))
    recorders = [Recorder(sim, index=i) for i in range(3)]
    sched = Recorder(sim)
    central = EagleCentral(sim, recorders)
    central.handle(("long_stage", ("L", 0), 2, 100 * US, sched), 0)
    assert central.loads_us == {0: 100 * US, 1: 100 * US, 2: 0}
    central.handle(("long_finish", 0, 100 * US), 5)
    central.handle(("long_stage", ("M", 0), 1, 50 * US, sched), 10)
    # Workers 0 and 2 tie at load zero; the index tie-break picks 0.
    assert central.loads_us == {0: 50 * US, 1: 100 * US, 2: 0}
    sim.run()
    assert len([m for _, m in recorders[0].inbox if m[0] == "probe"]) == 2


@settings(max_examples=200, deadline=None)
@given(data=st.data(), general=st.integers(1, 8))
def test_eagle_central_matches_least_loaded_scan(data, general):
    # Two thetas and finishes of placed tasks keep loads tying often.
    sim = Simulation(SimConfig(workers=general + 2, algo="eagle"))
    # Indices 0 and 1 are a short partition, so the general workers'
    # indices are not their list positions.
    general_workers = [Recorder(sim, index=2 + i) for i in range(general)]
    central = EagleCentral(sim, general_workers)
    chosen = []
    sim.send = lambda target, payload, now: chosen.append(target.index)
    loads = {w.index: 0 for w in general_workers}
    running = []                            # (index, theta) not yet finished
    for step in range(data.draw(st.integers(1, 40))):
        if running and data.draw(st.booleans()):
            index, theta = running.pop(
                data.draw(st.integers(0, len(running) - 1)))
            central.handle(("long_finish", index, theta), step)
            loads[index] -= theta
        else:
            theta = data.draw(st.sampled_from([1, 2]))
            tasks = data.draw(st.integers(1, 3))
            central.handle(("long_stage", ("J", step), tasks, theta, 0), step)
            expected = []
            for _ in range(tasks):
                index = min(loads, key=lambda i: (loads[i], i))
                loads[index] += theta
                expected.append(index)
                running.append((index, theta))
            assert chosen == expected
            chosen.clear()
        assert central.loads_us == loads


def test_eagle_long_stage_goes_central_short_stays_sampled():
    cfg = SimConfig(workers=20, schedulers=1, algo="eagle",
                    net_delay_us=1000, seed=4)
    assert 2 * US <= LONG_CUTOFF_US < 30 * US
    result = driver.run_simulation(
        cfg, [job("short", [2, 2]), job("long", [30, 30], submit_us=1)])
    c = result.counters
    # Short stage: ratio x 2 probes; long stage: exactly one probe per task.
    assert c["probes_created"] == PROBE_RATIO * 2 + 2
    assert c["tasks_launched"] == c["tasks_finished"] == 4
    assert {r.job_id for r in result.records} == {"short", "long"}


@pytest.mark.parametrize("workers, short", [(1, 0), (2, 1), (3, 1), (10, 2),
                                            (20, 3)])
def test_eagle_short_partition_size(workers, short):
    # max(1, round(0.15 * W)) for W >= 2 never reaches W, so no bound on
    # the general side is needed: W = 2 keeps one general worker.
    sim = Simulation(SimConfig(workers=workers, algo="eagle"))
    built, _ = driver._build_eagle(sim, sim.config)
    central = built[0].central
    assert [w.index in central.workers for w in built] == \
        [False] * short + [True] * (workers - short)
    assert list(central.workers.values()) == built[short:]


@pytest.fixture
def eagle_builds(monkeypatch):
    """The (workers, schedulers) of each Eagle run the test makes."""
    built = []
    build = driver._BUILDERS["eagle"]
    monkeypatch.setitem(driver._BUILDERS, "eagle",
                        lambda sim, cfg: built.append(build(sim, cfg))
                        or built[-1])
    return built


def test_eagle_makes_a_worker_stream_only_when_it_resamples(eagle_builds,
                                                            monkeypatch):
    # Long work on three general workers; short probes landing there are
    # re-sampled, and only those workers may make a stream.
    resamples = {}
    arrive = EagleWorker.on_probe_arrival

    def counting_arrival(self, probe, now):
        before = probe.resampled
        arrive(self, probe, now)
        if probe.resampled and not before:
            resamples[self.index] = resamples.get(self.index, 0) + 1

    monkeypatch.setattr(EagleWorker, "on_probe_arrival", counting_arrival)
    cfg = SimConfig(workers=20, algo="eagle", seed=3)
    records = [job("long", [100, 100, 100])] + [
        job("s%d" % i, [1] * 4, submit_us=US + i * US // 10)
        for i in range(30)]
    driver.run_simulation(cfg, records)
    (workers, _), = eagle_builds
    with_rng = {w.index for w in workers if w.rng is not None}
    assert 0 < len(with_rng) <= 3
    assert with_rng == set(resamples)
    # Each stream is the worker's derived one, one draw per re-sample.
    for index, count in resamples.items():
        fresh = derived_rng(cfg.seed, "eagle-worker", index)
        for _ in range(count):
            fresh.choice(workers[0].short_workers)
        assert workers[index].rng.getstate() == fresh.getstate()


@pytest.mark.parametrize("algo", ["sparrow", "eagle"])
def test_baseline_runs_reach_quiescence(algo):
    spec = SyntheticSpec(load=0.7, job_count=60, seed=2, mean_tasks=4.0,
                         duration_model="two_class", short_fraction=0.8,
                         short_duration_us=US, long_duration_us=20 * US)
    cfg = SimConfig(workers=25, schedulers=2, seed=2, algo=algo)
    result = driver.run_simulation(cfg, generate(spec, cfg.workers))
    assert len(result.records) == 60
    assert result.counters["tasks_launched"] == \
        result.counters["tasks_finished"]


def dag_jobs(seed, count=20):
    """Multi-stage jobs: every stage after the first depends on one or two
    earlier ones, and one stage in four has tasks of 2-8 s, whose mean is
    often above Eagle's 3 s long cutoff."""
    rng = random.Random(seed)
    jobs = []
    for i in range(count):
        stages = []
        for s in range(rng.randint(2, 4)):
            low, high = (2 * US, 8 * US) if rng.random() < 0.25 \
                else (US // 10, US)
            durations = [rng.randint(low, high)
                         for _ in range(rng.randint(2, 5))]
            deps = sorted(rng.sample(range(s), min(s, rng.randint(1, 2))))
            stages.append(Stage(durations, deps))
        jobs.append(TraceRecord("d%d" % i, i * 400_000, stages))
    return jobs


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workers", [1, 2, 20])
@pytest.mark.parametrize("shape", ["two_class", "dag"])
def test_eagle_bookkeeping_drains(eagle_builds, shape, workers, seed):
    # The placer's loads and each worker's long-probe count return to 0
    # once every long task has finished.
    if shape == "dag":
        records = dag_jobs(seed)
    else:
        records = generate(
            SyntheticSpec(load=0.8, job_count=40, seed=seed, mean_tasks=3.0,
                          duration_model="two_class", short_fraction=0.7,
                          short_duration_us=US, long_duration_us=10 * US),
            workers)
    cfg = SimConfig(workers=workers, schedulers=2, seed=seed, algo="eagle")
    result = driver.run_simulation(cfg, records)
    # Some stage was long: it sent one probe per task, not PROBE_RATIO.
    tasks = sum(r.task_count for r in records)
    assert result.counters["probes_created"] < PROBE_RATIO * tasks
    (eagle_workers, _), = eagle_builds
    central = eagle_workers[0].central
    assert set(central.loads_us.values()) == {0}
    assert [w.long_count for w in eagle_workers] == [0] * workers
