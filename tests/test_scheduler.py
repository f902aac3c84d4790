"""Scheduler tests: quota arithmetic, aggregate accounting, peer updates,
probe placement, dispatch exactly-once, finished jobs, and DAG stage
ordering."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peacock_sim.baselines import EagleScheduler, SparrowScheduler
from peacock_sim.driver import run_simulation
from peacock_sim.engine import (ProtocolError, SimConfig, Simulation,
                                SimulationError, derived_rng)
from peacock_sim.metrics import JobRecord
from peacock_sim.probes import Probe, SharedState
from peacock_sim.scheduler import JobState, PeacockScheduler, Scheduler, \
    draw_below, mean_us, pick_workers, probe_quota
from peacock_sim.workload import Stage, TraceRecord

US = 1_000_000


class Recorder:
    def __init__(self, sim):
        self.eid = sim.add_entity(self)
        self.inbox = []

    def handle(self, payload, now):
        self.inbox.append((now, payload))


def make_scheduler(workers=100, with_peer=False, seed=3):
    sim = Simulation(SimConfig(workers=workers, schedulers=2, seed=seed))
    recorders = [Recorder(sim) for _ in range(workers)]
    sched = PeacockScheduler(sim, 0, [r.eid for r in recorders],
                             derived_rng(seed, "sched", 0))
    peer = None
    if with_peer:
        peer = Recorder(sim)
        sched.peer_eids = [peer.eid]
    return sim, sched, recorders, peer


def job(job_id, durations_s, submit_us=0):
    return TraceRecord(job_id=job_id, submit_us=submit_us,
                       stages=[Stage([d * US for d in durations_s])])


def apply_or_refuse(sched, delta, apply):
    """Run ``apply``, which changes the aggregate by ``delta``.  A delta that
    would drive a total below zero must raise ``ProtocolError`` and leave
    the aggregate as it was."""
    before = (sched.probe_count, sched.load_us)
    if before[0] + delta[0] < 0 or before[1] + delta[1] < 0:
        with pytest.raises(ProtocolError, match="below zero"):
            apply()
        assert (sched.probe_count, sched.load_us) == before
    else:
        apply()
        assert (sched.probe_count, sched.load_us) == (
            before[0] + delta[0], before[1] + delta[1])


# -- quota arithmetic --------------------------------------------------------

def test_probe_quota_rounds_half_up():
    assert probe_quota(1510, 100) == 15
    assert probe_quota(150, 100) == 2
    assert probe_quota(149, 100) == 1
    assert probe_quota(0, 100) == 0
    assert probe_quota(50, 100) == 1


def test_shared_state_reflects_aggregate():
    sim, sched, _, _ = make_scheduler(workers=100)
    sched.probe_count = 1510
    sched.load_us = 25_150 * US
    state = sched.shared_state(7 * US)
    assert state.probe_quota == 15
    assert state.load_quota_us == 251_500_000
    assert state.version == (7 * US, 0)


@pytest.mark.parametrize("seed", range(5))
def test_every_shared_state_read_follows_the_current_aggregate(seed):
    """Reads at one instant may share a state only while the aggregate
    holds still; peer deltas, admissions and releases all move it.  A
    peer delta or release that would drive a total below zero is refused
    and moves nothing."""
    workers = 7
    sim, sched, _, _ = make_scheduler(workers=workers, with_peer=True)
    rng = random.Random(seed)
    admitted = []
    now = 0
    for step in range(300):
        if rng.random() < 0.3:
            now += rng.randrange(1, 3)
        action = rng.randrange(3)
        if action == 0:
            delta = (rng.randrange(-3, 6), rng.randrange(-5, 10) * US)
            apply_or_refuse(sched, delta,
                            lambda: sched.handle(("peer",) + delta, now))
        elif action == 1:
            record = job("j%d" % step,
                         [rng.randrange(1, 9)
                          for _ in range(rng.randrange(1, 4))], now)
            sched.on_job_arrival(record, now)
            admitted.append(sched.jobs[record.job_id])
        elif admitted:
            chosen = rng.choice(admitted)
            apply_or_refuse(sched, (-1, -chosen.thetas[0]),
                            lambda: sched.release(chosen, 0, now))
        for _ in range(rng.randrange(1, 4)):
            assert sched.shared_state(now) == SharedState(
                probe_quota(sched.probe_count, workers),
                sched.load_us // workers, (now, sched.sid))


# -- aggregate accounting ----------------------------------------------------

def test_admission_updates_aggregate_and_broadcasts():
    sim, sched, _, peer = make_scheduler(with_peer=True)
    sched.on_peer_update(1500, 25_000 * US)
    sched.on_job_arrival(job("j", [15] * 10), now=0)
    assert (sched.probe_count, sched.load_us) == (1510, 25_150 * US)
    sim.run()
    assert peer.inbox == [(5_000, ("peer", 10, 150 * US))]


def test_finish_updates_aggregate_and_broadcasts():
    sim, sched, recorders, peer = make_scheduler(with_peer=True)
    sched.on_peer_update(1499, 24_980 * US)
    sched.on_job_arrival(job("j", [20]), now=0)
    assert (sched.probe_count, sched.load_us) == (1500, 25_000 * US)
    sim.run()
    probes = [m[1] for r in recorders for _, m in r.inbox if m[0] == "probe"]
    assert len(probes) == 1
    peer.inbox.clear()
    sched.handle(("task_request", probes[0], recorders[0].eid), 1 * US)
    sched.handle(("task_finish", probes[0].job_id, 0, 21 * US), 21 * US)
    assert (sched.probe_count, sched.load_us) == (1499, 24_980 * US)
    sim.run()
    assert ("peer", -1, -20 * US) in [m for _, m in peer.inbox]


def test_peer_updates_cancel_out():
    sim, sched, _, _ = make_scheduler()
    sched.on_peer_update(10, 150 * US)
    sched.on_peer_update(-10, -150 * US)
    assert (sched.probe_count, sched.load_us) == (0, 0)
    assert sim.counters["aggregate_clamps"] == 0


def test_peer_update_below_zero_is_a_protocol_error():
    sim, sched, _, _ = make_scheduler()
    with pytest.raises(ProtocolError, match=r"scheduler 0: .* \(0, 0 us\)"):
        sched.on_peer_update(-3, -5 * US)
    assert (sched.probe_count, sched.load_us) == (0, 0)
    # Either total alone going below zero is refused too.
    sched.on_peer_update(2, 10 * US)
    for delta in ((-3, 0), (0, -11 * US)):
        with pytest.raises(ProtocolError, match="below zero"):
            sched.on_peer_update(*delta)
        assert (sched.probe_count, sched.load_us) == (2, 10 * US)
    assert sim.counters["aggregate_clamps"] == 0


def test_finish_of_an_aggregate_a_peer_already_drained_is_a_protocol_error():
    sim, sched, recorders, peer = make_scheduler(with_peer=True)
    sched.on_job_arrival(job("j", [20]), now=0)
    sim.run()
    (probe,) = [m[1] for r in recorders for _, m in r.inbox
                if m[0] == "probe"]
    sched.on_peer_update(-1, -20 * US)
    sched.handle(("task_request", probe, recorders[0].eid), 1 * US)
    peer.inbox.clear()
    with pytest.raises(ProtocolError, match="below zero"):
        sched.handle(("task_finish", probe.job_id, 0, 21 * US), 21 * US)
    assert (sched.probe_count, sched.load_us) == (0, 0)
    # The refused delta reached no peer.
    sim.run()
    assert [m for _, m in peer.inbox if m[0] == "peer"] == []


# -- probe placement ---------------------------------------------------------

def test_probes_share_threshold_and_allowance():
    sim, sched, recorders, _ = make_scheduler()
    sched.on_job_arrival(job("j", [10, 20, 30]), now=0)
    sim.run()
    probes = [m[1] for r in recorders for _, m in r.inbox if m[0] == "probe"]
    assert len(probes) == 3
    assert {p.runtime_us for p in probes} == {20 * US}
    # One allowance for the whole job, equal to the post-admission average
    # load per worker.
    assert {p.allowance_us for p in probes} == {60 * US // 100}
    assert {p.task_id for p in probes} == {0, 1, 2}


def test_probes_go_to_distinct_workers():
    sim, sched, recorders, _ = make_scheduler(workers=10)
    sched.on_job_arrival(job("j", [5] * 10), now=0)
    sim.run()
    hit = [r for r in recorders if r.inbox]
    assert len(hit) == 10


def test_pick_workers_distinct_then_replacement():
    rng = derived_rng(1, "pick")
    assert sorted(pick_workers(rng, 8, 8)) == list(range(8))
    drawn = pick_workers(rng, 4, 11)
    assert len(drawn) == 11
    assert sorted(set(drawn[:4])) == list(range(4))


# Totals at and around Random.sample's two set sizes for these counts (21,
# and 85 for 6 to 21 draws, 277 for 22), plus larger clusters.
SAMPLE_TOTALS = [20, 21, 22, 84, 85, 86, 276, 277, 278, 100, 500, 2000]


@pytest.mark.parametrize("total", SAMPLE_TOTALS)
def test_pick_workers_matches_the_stdlib_draws(total):
    # The oracle: today's stdlib sample of distinct indices, then one
    # randrange per index beyond the total.  The indices and the stream's
    # state after must both match.
    for count in (0, 1, 5, 6, 21, 22, total, total + 1, 2 * total):
        for seed in range(4):
            ours, oracle = random.Random(seed), random.Random(seed)
            expected = oracle.sample(range(total), min(count, total))
            expected += [oracle.randrange(total)
                         for _ in range(count - total)]
            assert pick_workers(ours, total, count) == expected, \
                (total, count, seed)
            assert ours.getstate() == oracle.getstate()


@pytest.mark.parametrize("seed, total, count, expected", [
    # The set strategy: 100 is above the set size 85 for 6 draws.
    (1, 100, 6, [17, 72, 97, 8, 32, 15]),
    # The pool strategy: 21 distinct of 21.
    (7, 21, 21, [10, 4, 12, 1, 2, 3, 5, 9, 0, 8, 15, 18, 17, 6, 20, 13, 11,
                 14, 16, 19, 7]),
    # With replacement past the total.
    (5, 4, 9, [2, 3, 1, 0, 3, 1, 0, 1, 0]),
], ids=["set", "pool", "replacement"])
def test_pick_workers_pinned_draws(seed, total, count, expected):
    # Literal draws, so that a change in Python's stdlib sampler cannot move
    # them together with the oracle above.
    assert pick_workers(random.Random(seed), total, count) == expected


def test_pick_workers_from_no_workers_is_refused():
    with pytest.raises(ValueError, match="from none"):
        pick_workers(random.Random(1), 0, 1)
    assert pick_workers(random.Random(1), 0, 0) == []


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 75, 1000])
def test_draw_below_matches_randrange(n):
    ours, oracle = random.Random(n), random.Random(n)
    draws = [draw_below(ours.getrandbits, n) for _ in range(200)]
    assert draws == [oracle.randrange(n) for _ in range(200)]
    assert ours.getstate() == oracle.getstate()


# -- stage probes ------------------------------------------------------------

class LogRecorder:
    """A worker stand-in that logs into a list shared across workers."""

    def __init__(self, sim, log):
        self.eid = sim.add_entity(self)
        self.log = log

    def handle(self, payload, now):
        self.log.append((now, self.eid, tuple(
            tuple(getattr(x, f) for f in Probe.__slots__)
            if isinstance(x, Probe) else x for x in payload)))


def run_two_stages(net_delay_us):
    """Two one-stage jobs admitted at t=0, with timers due where their
    probes land; returns the delivery log, the events run() handled and
    the messages counted."""
    sim = Simulation(SimConfig(workers=6, net_delay_us=net_delay_us))
    log = []
    recorders = [LogRecorder(sim, log) for _ in range(6)]
    sched = PeacockScheduler(sim, 0, [r.eid for r in recorders],
                             derived_rng(3, "sched", 0))
    sim.schedule_at(net_delay_us, recorders[0].eid, ("early",))
    sim.schedule_at(0, sched.eid, ("job", job("a", [2, 4, 6])))
    sim.schedule_at(0, sched.eid, ("job", job("b", [1, 1])))
    sim.schedule_at(net_delay_us, recorders[1].eid, ("late",))
    return log, sim.run(), sim.counters["messages"]


@pytest.mark.parametrize("net_delay_us", [0, 5_000])
def test_fan_out_delivers_as_one_send_per_probe(net_delay_us):
    log, events, messages = run_two_stages(net_delay_us)
    probes = [m for _, _, m in log if m[0] == "probe"]
    assert len(probes) == 5
    assert [m[1][0] for m in probes] == [("a", 0)] * 3 + [("b", 0)] * 2
    # The timers were scheduled before run(), so they land first.
    assert [m[0] for _, _, m in log] == ["early", "late"] + ["probe"] * 5
    assert {t for t, _, m in log} == {net_delay_us}
    # Each probe is one message and one delivered event.
    assert messages == 5
    assert events == 2 + 5 + 2


# -- wiring ------------------------------------------------------------------

@pytest.mark.parametrize("bad", ["negative", "past the end"])
def test_worker_eid_naming_no_entity_is_rejected(bad):
    sim = Simulation(SimConfig(workers=2))
    eids = [Recorder(sim).eid for _ in range(2)]
    # The scheduler itself takes the next eid; the one after names nothing.
    eids.append(-1 if bad == "negative" else len(sim.entities) + 1)
    with pytest.raises(SimulationError, match="unknown worker entity"):
        PeacockScheduler(sim, 0, eids, derived_rng(3, "sched", 0))


# -- dispatch ----------------------------------------------------------------

def launch_all(sim, sched, recorders):
    sim.run()
    probes = [(m[1], r.eid) for r in recorders
              for _, m in r.inbox if m[0] == "probe"]
    for r in recorders:
        r.inbox.clear()
    for p, eid in probes:
        sched.handle(("task_request", p, eid), sim.now)
    return [p for p, _ in probes]


def test_duplicate_task_request_is_protocol_violation():
    sim, sched, recorders, _ = make_scheduler()
    sched.on_job_arrival(job("j", [5]), now=0)
    probes = launch_all(sim, sched, recorders)
    with pytest.raises(ProtocolError):
        sched.handle(("task_request", probes[0], recorders[0].eid), sim.now)


def test_finish_of_unlaunched_task_is_protocol_violation():
    sim, sched, recorders, _ = make_scheduler()
    sched.on_job_arrival(job("j", [5, 5]), now=0)
    sim.run()
    with pytest.raises(ProtocolError):
        sched.handle(("task_finish", ("j", 0), 0, 5 * US), 5 * US)


def test_second_finish_of_a_task_is_protocol_violation():
    # Task 0 of a two-task stage finishes twice while task 1 still runs:
    # the second finish fails at once, names task 0, and no record is made.
    sim, sched, recorders, _ = make_scheduler()
    sched.on_job_arrival(job("j", [1, 5]), now=0)
    launch_all(sim, sched, recorders)
    sched.handle(("task_finish", ("j", 0), 0, 1 * US), 1 * US)
    with pytest.raises(ProtocolError, match=r"double finish of task \(0, 0\)"):
        sched.handle(("task_finish", ("j", 0), 0, 2 * US), 2 * US)
    assert sim.records == []


def test_job_completion_emits_record_once():
    sim, sched, recorders, _ = make_scheduler()
    sched.on_job_arrival(job("j", [5, 7]), now=2 * US)
    probes = launch_all(sim, sched, recorders)
    state = sched.jobs["j"]
    for p in probes:
        sched.handle(("task_finish", p.job_id, p.task_id,
                      (10 + p.task_id) * US), (10 + p.task_id) * US)
    assert len(sim.records) == 1
    (rec,) = sim.records
    # The record the job filled while it ran, not a copy made at the end;
    # the job's state is freed once it is recorded.
    assert rec is state.result
    assert sched.jobs["j"] is None
    assert rec.job_id == "j"
    assert rec.arrival_us == 2 * US
    assert rec.completion_us == 11 * US
    assert sorted(rec.rotations) == [0, 0]


@pytest.mark.parametrize("algo", ["sparrow", "eagle"])
def test_late_binding_takes_the_first_unlaunched_task(algo):
    # A live job's three-task stage has six unbound probes.  Requests take
    # tasks 0, 1 and 2 in request order, not in the order the probes were
    # made, and task 0's finish between them is not handed out again; a
    # fourth request is cancelled while the job still runs.  An Eagle
    # stage of 1 s tasks is short, so it is sampled as in Sparrow.
    sim = Simulation(SimConfig(workers=6, algo=algo))
    recorders = [Recorder(sim) for _ in range(6)]
    eids = [r.eid for r in recorders]
    rng = derived_rng(3, "sched", 0)
    sched = (SparrowScheduler(sim, 0, eids, rng) if algo == "sparrow"
             else EagleScheduler(sim, 0, eids, rng, Recorder(sim).eid))
    sched.on_job_arrival(job("j", [1, 1, 1]), now=0)
    sim.run()
    probes = [(r.eid, m[1]) for r in recorders for _, m in r.inbox
              if m[0] == "probe"]
    assert len(probes) == 6
    assert all(p.task_id is None for _, p in probes)
    probes.reverse()
    for task_id, (eid, p) in enumerate(probes[:3]):
        sched.handle(("task_request", p, eid), sim.now)
        sim.run()
        assert sim.entities[eid].inbox[-1][1] == ("assign", p, task_id, US)
        if task_id == 0:
            sched.handle(("task_finish", ("j", 0), 0, sim.now), sim.now)
    assert sched.jobs["j"].launched[0] == bytearray([2, 1, 1])
    eid, fourth = probes[3]
    cancelled = sim.counters["probes_cancelled"]
    sched.handle(("task_request", fourth, eid), sim.now)
    assert sim.counters["probes_cancelled"] == cancelled + 1
    sim.run()
    assert sim.entities[eid].inbox[-1][1] == ("cancel", fourth)
    assert sched.jobs["j"] is not None


# -- finished jobs -----------------------------------------------------------

def complete_one_task_job(algo, duration_s):
    """Admit job "j" of one task to a scheduler of ``algo``, launch the task
    with the job's first probe and finish it.  Returns the simulation, the
    scheduler and every probe of the job as ``(worker eid, probe)``."""
    if algo == "peacock":
        sim, sched, recorders, _ = make_scheduler(workers=4)
    else:
        sim = Simulation(SimConfig(workers=4, algo=algo))
        recorders = [Recorder(sim) for _ in range(4)]
        eids = [r.eid for r in recorders]
        rng = derived_rng(3, "sched", 0)
        sched = (SparrowScheduler(sim, 0, eids, rng) if algo == "sparrow"
                 else EagleScheduler(sim, 0, eids, rng, Recorder(sim).eid))
    sched.on_job_arrival(job("j", [duration_s]), now=0)
    sim.run()
    probes = [(r.eid, m[1]) for r in recorders for _, m in r.inbox
              if m[0] == "probe"]
    if not probes:
        # An Eagle long stage went to the central placer, which binds its
        # probe to the task.
        probes = [(recorders[0].eid,
                   Probe(("j", 0), 0, 0, duration_s * US, 0, sched.eid))]
    eid, first = probes[0]
    now = sim.now
    sched.handle(("task_request", first, eid), now)
    sched.handle(("task_finish", ("j", 0), 0, now + duration_s * US),
                 now + duration_s * US)
    assert len(sim.records) == 1
    assert sched.jobs == {"j": None}
    return sim, sched, probes


def test_surplus_probe_of_a_finished_job_is_cancelled():
    sim, sched, probes = complete_one_task_job("sparrow", 5)
    eid, surplus = probes[1]
    cancelled = sim.counters["probes_cancelled"]
    sched.handle(("task_request", surplus, eid), sim.now)
    assert sim.counters["probes_cancelled"] == cancelled + 1
    sim.run()
    assert sim.entities[eid].inbox[-1][1] == ("cancel", surplus)


@pytest.mark.parametrize("algo, duration_s", [("peacock", 5), ("eagle", 10)])
def test_bound_probe_of_a_finished_job_is_already_launched(algo, duration_s):
    sim, sched, probes = complete_one_task_job(algo, duration_s)
    eid, first = probes[0]
    with pytest.raises(ProtocolError,
                       match=r"task \(0, 0\) of job 'j' already launched"):
        sched.handle(("task_request", first, eid), sim.now)


@pytest.mark.parametrize("algo", ["peacock", "sparrow", "eagle"])
def test_finish_for_a_finished_job_is_a_double_finish(algo):
    sim, sched, _ = complete_one_task_job(algo, 5)
    with pytest.raises(ProtocolError,
                       match=r"double finish of task \(0, 0\) of job 'j'"):
        sched.handle(("task_finish", ("j", 0), 0, sim.now), sim.now)


def test_job_never_admitted_is_unknown_after_others_finish():
    sim, sched, _ = complete_one_task_job("peacock", 5)
    stranger = Probe(("k", 0), 0, 0, 5 * US, 0, sched.eid)
    with pytest.raises(ProtocolError,
                       match="task request for unknown job 'k'"):
        sched.handle(("task_request", stranger, 0), sim.now)
    with pytest.raises(ProtocolError, match="finish for unknown job 'k'"):
        sched.handle(("task_finish", ("k", 0), 0, sim.now), sim.now)


@pytest.mark.parametrize("algo", ["peacock", "sparrow", "eagle"])
def test_quiescence_rejects_a_job_state_never_released(algo, monkeypatch):
    finish = Scheduler.on_task_finish

    def keep_state(self, job_key, task_id, finish_us, now):
        state = self.jobs[job_key[0]]
        finish(self, job_key, task_id, finish_us, now)
        self.jobs[job_key[0]] = state       # as if it were never released

    monkeypatch.setattr(Scheduler, "on_task_finish", keep_state)
    with pytest.raises(SimulationError,
                       match="scheduler 0 still holds the state of job 'j'"):
        run_simulation(SimConfig(workers=2, schedulers=1, algo=algo),
                       [job("j", [5])])


# -- DAG stage ordering ------------------------------------------------------

def two_stage_chain():
    return TraceRecord(job_id="dag", submit_us=0,
                       stages=[Stage([4 * US, 6 * US]),
                               Stage([2 * US], deps=[0])])


def test_dependent_stage_waits_for_parent():
    sim, sched, recorders, _ = make_scheduler()
    sched.on_job_arrival(two_stage_chain(), now=0)
    assert sched.probe_count == 2          # only stage 0 submitted
    probes = launch_all(sim, sched, recorders)
    assert all(p.job_id == ("dag", 0) for p in probes)
    sched.handle(("task_finish", ("dag", 0), 0, 4 * US), 4 * US)
    assert sched.probe_count == 1
    sched.handle(("task_finish", ("dag", 0), 1, 6 * US), 6 * US)
    # Stage 1 submitted the moment stage 0 drained.
    assert sched.probe_count == 1
    new = [p for p in launch_all(sim, sched, recorders)
           if p.job_id == ("dag", 1)]
    assert len(new) == 1
    sched.handle(("task_finish", ("dag", 1), 0, 8 * US), 8 * US)
    assert len(sim.records) == 1
    assert sim.records[0].completion_us == 8 * US


def test_job_state_diamond_readiness():
    record = TraceRecord(job_id="d", submit_us=0, stages=[
        Stage([1 * US]), Stage([1 * US], deps=[0]),
        Stage([1 * US], deps=[0]), Stage([1 * US], deps=[1, 2])])
    js = JobState(record, JobRecord("d", 0, 0, 0))
    for stage in js.launched:
        stage[0] = 1                        # every task running
    assert sorted(js.task_finished(0, 0, 1)) == [1, 2]
    assert js.task_finished(1, 0, 2) == []
    assert js.task_finished(2, 0, 3) == [3]
    assert js.task_finished(3, 0, 4) == []
    assert js.done
    assert js.result.completion_us == 4


def test_theta_is_rounded_stage_mean():
    js = JobState(job("j", [10, 20, 31]), JobRecord("j", 0, 0, 0))
    assert js.thetas == [int(round((10 + 20 + 31) * US / 3))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4) | st.integers(1, 10 ** 9), min_size=1,
                max_size=12))
def test_stage_mean_matches_rounded_statistics_mean(durations):
    assert mean_us(durations) == int(round(statistics.mean(durations)))


@pytest.mark.parametrize("durations, expected", [
    ([1, 2], 2), ([2, 3], 2), ([1, 2, 2, 2], 2), ([1, 1, 2], 1),
    ([US, US + 1], US), ([US + 1, US + 2], US + 2),
])
def test_stage_mean_rounds_ties_to_even(durations, expected):
    assert mean_us(durations) == expected
    js = JobState(TraceRecord("j", 0, [Stage(durations)]),
                  JobRecord("j", 0, 0, 0))
    assert js.thetas == [expected]
