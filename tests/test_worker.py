"""Worker state machine tests: probe arrival scenarios, rotation rounds,
shared-state adoption, and the task lifecycle."""

import copy

import pytest

from peacock_sim import driver
from peacock_sim.engine import ProtocolError, SimConfig, Simulation
from peacock_sim.probes import Probe, SharedState, WaitingQueue
from peacock_sim.baselines import EagleWorker, SparrowWorker
from peacock_sim.worker import PeacockWorker, Ring
from peacock_sim.workload import Stage, TraceRecord

US = 1_000_000


class Recorder:
    """Stand-in entity that just logs everything sent to it."""

    def __init__(self, sim):
        self.eid = sim.add_entity(self)
        self.inbox = []

    def handle(self, payload, now):
        self.inbox.append((now, payload))


def drain(sim):
    """Deliver all pending events (without running entity logic beyond
    handle calls)."""
    sim.run()


def make_worker(schedulers=1):
    """Worker 0 of a two-worker ring; ``ring.workers[1]`` is its
    successor."""
    sim = Simulation(SimConfig(workers=2, schedulers=schedulers,
                               net_delay_us=5_000))
    sched = Recorder(sim)
    workers = [PeacockWorker(sim, i) for i in range(2)]
    ring = Ring(sim, workers)
    return sim, workers[0], sched, ring


def record_rotations(ring):
    """Log each ``rotation`` message a worker of the ring receives, as
    (now, receiver index, probes, state), before it is handled."""
    log = []
    for worker in ring.workers:
        def recording(payload, now, index=worker.index,
                      handle=worker.handle):
            if payload[0] == "rotation":
                log.append((now, index, payload[1], payload[2]))
            return handle(payload, now)
        worker.handle = recording
    return log


def state(phi, omega_s, version=(0, 0)):
    return SharedState(phi, omega_s * US, version)


def probe(job, task=0, lam=0, theta=5, mu=100, scheduler=None):
    return Probe(job, task, lam * US, theta * US, mu * US,
                 scheduler=scheduler)


def run_busy(worker, sched, finish_s=500):
    """Occupy the slot with a task running until ``finish_s``, so that
    arriving probes queue or rotate."""
    worker.slot = probe("r", scheduler=sched.eid)
    worker.finish_us = finish_s * US


def test_idle_worker_reserves_and_requests_task():
    sim, worker, sched, _ = make_worker()
    p = probe("j", scheduler=sched.eid)
    worker.handle(("probe", p, state(5, 100)), 0)
    assert worker.slot is p and worker.finish_us is None
    drain(sim)
    assert sched.inbox == [(5_000, ("task_request", p, worker.eid))]


def test_busy_worker_enqueues_without_message():
    sim, worker, sched, _ = make_worker()
    run_busy(worker, sched, finish_s=50)
    p = probe("j", scheduler=sched.eid)
    worker.handle(("probe", p, state(5, 100)), 10 * US)
    assert worker.queue.entries == [p]
    drain(sim)
    assert sched.inbox == []


def test_tight_quota_sends_probe_to_rotating_buffer():
    sim, worker, sched, _ = make_worker()
    run_busy(worker, sched, finish_s=50)
    p = probe("j", scheduler=sched.eid)
    worker.handle(("probe", p, state(1, 1000)), 10 * US)
    assert worker.queue.entries == []
    assert worker.queue.rotating == [p]


@pytest.mark.parametrize("gap_us", [0, 3 * US],
                         ids=["same-instant", "after-first-finished"])
def test_duplicate_probe_is_refused_by_its_scheduler(gap_us):
    sim = Simulation(SimConfig(workers=2, schedulers=1))
    _, (scheduler,) = driver._build_peacock(sim, sim.config)
    sim.total_jobs = 1
    probes = []
    send = sim.send

    def recording_send(target, payload, now):
        if payload[0] == "probe":
            probes.append((target, payload))
        send(target, payload, now)
    sim.send = recording_send
    scheduler.handle(("job", TraceRecord("j", 0, [Stage([2 * US])])), 0)
    # A second copy of the job's one probe message reaches the same worker,
    # at the first copy's instant or after its 2 s task has finished.
    ((target, payload),) = probes
    sim.schedule_at(sim.net_delay_us + gap_us, target, payload)
    with pytest.raises(ProtocolError, match="already launched"):
        sim.run()


def test_rotation_round_without_work_or_news_sends_nothing():
    sim, _, _, ring = make_worker()
    ring.handle(("round",), 1 * US)
    assert sim.run() == 0
    assert sim.counters["messages"] == sim.counters["rotation_messages"] == 0


def test_rotate_sends_each_jobs_probes_together_as_the_same_objects():
    sim, worker, sched, ring = make_worker()
    successor = ring.workers[1]
    log = record_rotations(ring)
    run_busy(worker, sched)
    a0, b0, a1 = (probe(job, task=task, scheduler=sched.eid)
                  for job, task in (("a", 0), ("b", 0), ("a", 1)))
    s = state(1, 10_000)
    for p in (a0, b0, a1):
        worker.handle(("probe", p, s), 10 * US)
    assert worker.queue.rotating == [a0, b0, a1]
    ring.handle(("round",), 11 * US)
    assert worker.queue.rotating == []
    drain(sim)
    # One rotation message, a network delay after the round.
    ((at, to, sent, carried),) = log
    assert at == 11 * US + 5_000 and to == successor.index
    assert carried is s and successor.known_state is s
    assert len(sent) == 3
    assert all(got is want for got, want in zip(sent, (a0, a1, b0)))
    assert [p.rotations for p in sent] == [1, 1, 1]
    # The idle successor reserved its slot for the first; under the tight
    # quota the rest went on to its rotating buffer.
    assert successor.slot is a0
    assert successor.queue.rotating == [a1, b0]


def test_rotation_sends_on_state_news_alone():
    sim, worker, _, ring = make_worker()
    log = record_rotations(ring)
    worker.adopt_shared_state(state(5, 100, version=(2 * US, 0)))
    ring.handle(("round",), 3 * US)
    drain(sim)
    ((_, _to, sent, carried),) = log
    assert sent == ()
    assert carried.version == (2 * US, 0)
    assert ring.workers[1].known_state is carried
    # The successor adopted fresh news, so it alone sends next round.
    ring.handle(("round",), 4 * US)
    drain(sim)
    assert [(to, sent) for _, to, sent, _ in log[1:]] == [(0, ())]
    # A third round with no further news stays quiet.
    ring.handle(("round",), 5 * US)
    drain(sim)
    assert len(log) == 2


def test_ring_round_sends_only_from_workers_with_probes_or_news_in_order():
    sim = Simulation(SimConfig(workers=4, net_delay_us=5_000))
    sched = Recorder(sim)
    workers = [PeacockWorker(sim, i) for i in range(4)]
    ring = Ring(sim, workers)
    log = record_rotations(ring)
    workers[3].adopt_shared_state(state(5, 100, version=(2 * US, 0)))
    run_busy(workers[1], sched)
    p = probe("j", scheduler=sched.eid)
    workers[1].handle(("probe", p, state(1, 10_000)), 1 * US)
    assert workers[1].queue.rotating == [p]
    ring.handle(("round",), 3 * US)
    assert sim.counters["messages"] == sim.counters["rotation_messages"] == 2
    drain(sim)
    # Worker 1 hands p to worker 2; worker 3 wraps round to worker 0.
    assert [(at, to, sent, carried.version) for at, to, sent, carried in log] \
        == [(3 * US + 5_000, 2, [p], (0, 0)),
            (3 * US + 5_000, 0, (), (2 * US, 0))]


def test_probe_convoy_moves_one_worker_per_round_and_drops_one_probe():
    """Today's rotation hands a worker's whole buffer to its successor.  An
    idle successor reserves its slot for one probe and, under a quota of
    one, sends the rest on: the pack moves one worker per round and loses
    one probe at each, while the workers it has passed sit reserved with
    empty queues."""
    sim = Simulation(SimConfig(workers=6, net_delay_us=5_000))
    sched = Recorder(sim)
    workers = [PeacockWorker(sim, i) for i in range(6)]
    ring = Ring(sim, workers)
    run_busy(workers[0], sched)
    pack = [probe(job, scheduler=sched.eid) for job in "abcde"]
    tight = state(1, 10_000)
    for p in pack:
        workers[0].handle(("probe", p, tight), 10 * US)
    assert workers[0].queue.rotating == pack
    for k in range(1, 6):
        ring.handle(("round",), (10 + k) * US)
        drain(sim)
        assert [len(w.queue.rotating) for w in workers] \
            == [5 - k if i == k else 0 for i in range(6)]
        for i, w in enumerate(workers[1:k + 1], start=1):
            # Each passed worker holds the pack's first probe at its visit.
            assert w.slot is pack[i - 1] and w.finish_us is None
            assert w.slot.rotations == i and w.queue.entries == []
        assert all(w.slot is None for w in workers[k + 1:])
    assert [m[1] for _, m in sched.inbox] == pack


def count_trims(monkeypatch):
    """Count WaitingQueue.trim_to_quota calls from here on."""
    calls = []
    trim = WaitingQueue.trim_to_quota

    def counting(queue, state):
        calls.append(state)
        return trim(queue, state)
    monkeypatch.setattr(WaitingQueue, "trim_to_quota", counting)
    return calls


@pytest.mark.parametrize("version", [(2 * US, 0), (1 * US, 1)],
                         ids=["same", "older"])
def test_rotation_with_stale_state_changes_nothing(monkeypatch, version):
    sim, worker, sched, _ = make_worker()
    run_busy(worker, sched)
    known = state(10, 10_000, version=(2 * US, 0))
    queued = [probe("j", task=t, mu=10_000, scheduler=sched.eid)
              for t in range(3)]
    for p in queued:
        worker.handle(("probe", p, known), 10 * US)
    before = list(worker.queue.entries)
    assert len(before) == 3
    worker.dirty.clear()
    trims = count_trims(monkeypatch)
    worker.handle(("rotation", (), state(1, 1, version=version)), 11 * US)
    assert worker.known_state is known
    assert worker.queue.entries == before and worker.queue.rotating == []
    assert trims == [] and worker.dirty == set()


def test_fresher_state_on_empty_queue_marks_dirty_without_trim(monkeypatch):
    sim, worker, _, _ = make_worker()
    trims = count_trims(monkeypatch)
    fresh = state(5, 100, version=(3 * US, 0))
    worker.handle(("rotation", (), fresh), 4 * US)
    assert worker.known_state is fresh
    assert worker.dirty == {worker.index}
    assert trims == []


@pytest.mark.parametrize("buffered", [0, 1], ids=["empty", "one-probe"])
def test_sent_rotation_probes_are_not_the_live_buffer(buffered):
    sim, worker, sched, ring = make_worker()
    log = record_rotations(ring)
    run_busy(worker, sched)
    tight = state(1, 10_000, version=(1 * US, 0))
    # Fresh news makes the worker send even with an empty buffer.
    worker.adopt_shared_state(tight)
    first = [probe("a", task=t, scheduler=sched.eid) for t in range(buffered)]
    for p in first:
        worker.handle(("probe", p, tight), 10 * US)
    ring.handle(("round",), 11 * US)
    # A probe bounced into the buffer after the send, before delivery.
    late = probe("b", scheduler=sched.eid)
    worker.handle(("probe", late, tight), 11 * US)
    assert worker.queue.rotating == [late]
    drain(sim)
    ((_, _to, sent, _state),) = log
    assert sent == (first or ())
    assert sent is not worker.queue.rotating


@pytest.mark.parametrize("buffer, sent_order", [
    (("b0", "a0", "b1", "a1", "b2"), ("b0", "b1", "b2", "a0", "a1")),
    (("a2", "a0", "a1"), ("a2", "a0", "a1")),
], ids=["two-jobs", "one-job"])
def test_rotate_groups_by_job_in_first_seen_order(buffer, sent_order):
    sim, worker, sched, _ = make_worker()
    run_busy(worker, sched)
    by_name = {name: probe(name[0], task=int(name[1]), scheduler=sched.eid)
               for name in buffer}
    for name in buffer:
        worker.handle(("probe", by_name[name], state(1, 10_000)), 10 * US)
    assert worker.queue.rotating == [by_name[n] for n in buffer]
    sent = worker.rotate()
    assert worker.queue.rotating == []
    assert sim.counters["probe_hops"] == len(buffer)
    assert len(sent) == len(sent_order)
    assert all(got is by_name[n] for got, n in zip(sent, sent_order))


class JobFinisher:
    """Stand-in entity that records the run's only job as done when
    called."""

    def __init__(self, sim):
        self.sim = sim
        self.eid = sim.add_entity(self)

    def handle(self, payload, now):
        self.sim.records.append(payload)


@pytest.mark.parametrize("payload", [("rotation", (), state(5, 100)),
                                     ("complete", 0, 1)],
                         ids=["rotation", "complete"])
def test_ring_rejects_any_payload_but_round(payload):
    sim, worker, _, ring = make_worker()
    worker.adopt_shared_state(state(5, 100, version=(1, 0)))
    with pytest.raises(ProtocolError, match="ring: unknown payload"):
        ring.handle(payload, 1 * US)
    assert sim.run() == 0


def test_ring_stops_rearming_once_all_jobs_are_done():
    sim, _, _, ring = make_worker()
    interval = sim.config.rotation_interval_us
    finisher = JobFinisher(sim)
    sim.total_jobs = 1
    sim.schedule_at(interval, ring.eid, ("round",))
    sim.schedule_at(5 * interval // 2, finisher.eid, ("done",))
    # Rounds at 1, 2 and 3 intervals, plus the finisher's event; the
    # round at 3 intervals sees every job done and does not re-arm.
    assert sim.run() == 4
    assert sim.now == 3 * interval


def test_adopt_same_version_is_noop():
    sim, worker, _, _ = make_worker()
    worker.adopt_shared_state(state(5, 100, version=(1, 0)))
    before = worker.known_state
    worker.adopt_shared_state(state(9, 900, version=(1, 0)))
    assert worker.known_state is before


def test_adopt_smaller_quota_trims_queue():
    sim, worker, sched, _ = make_worker()
    run_busy(worker, sched)
    s = state(10, 10_000, version=(1, 0))
    for task in range(4):
        worker.handle(("probe", probe("j", task=task, mu=10_000,
                                      scheduler=sched.eid),
                       s), 10 * US)
    assert len(worker.queue.entries) == 4
    worker.adopt_shared_state(state(3, 10_000, version=(2, 0)))
    assert len(worker.queue.entries) == 2
    assert len(worker.queue.rotating) == 2


def test_adopt_larger_quota_evicts_nothing():
    sim, worker, sched, _ = make_worker()
    run_busy(worker, sched)
    s = state(10, 10_000, version=(1, 0))
    for task in range(4):
        worker.handle(("probe", probe("j", task=task, mu=10_000,
                                      scheduler=sched.eid),
                       s), 10 * US)
    before = list(worker.queue.entries)
    assert len(before) == 4
    worker.adopt_shared_state(state(50, 99_000, version=(2, 0)))
    assert worker.queue.entries == before
    assert worker.queue.rotating == []


def test_assign_runs_task_and_completion_promotes_queue():
    sim, worker, sched, _ = make_worker()
    p = probe("j", scheduler=sched.eid)
    worker.handle(("probe", p, state(5, 100)), 0)
    q = probe("k", lam=1, theta=3, scheduler=sched.eid)
    worker.handle(("probe", q, state(5, 100)), 1 * US)
    assert worker.queue.entries == [q]
    worker.handle(("assign", p, 0, 68 * US, state(5, 100)), 10 * US)
    assert worker.slot is p
    assert worker.finish_us == 78 * US
    sim.run()
    # Completion at t=78 notified the scheduler and promoted q.
    finishes = [(t, m) for t, m in sched.inbox if m[0] == "task_finish"]
    assert finishes[0][1][:3] == ("task_finish", "j", 0)
    requests = [m for _, m in sched.inbox if m[0] == "task_request"]
    assert [m[1] for m in requests] == [p, q]


def test_completion_with_empty_queue_goes_idle():
    sim, worker, sched, _ = make_worker()
    p = probe("j", scheduler=sched.eid)
    worker.handle(("probe", p, state(5, 100)), 0)
    worker.handle(("assign", p, 0, 10 * US, state(5, 100)), 0)
    sim.run()
    assert worker.slot is None and worker.finish_us is None
    assert worker.queue.entries == []


def test_assign_without_reservation_is_protocol_violation():
    sim, worker, _, _ = make_worker()
    with pytest.raises(ProtocolError):
        worker.handle(("assign", probe("j"), 0, 10 * US, state(5, 100)), 0)


# -- the slot, on every algorithm's worker -----------------------------------

SLOT_WORKERS = [PeacockWorker, SparrowWorker, EagleWorker]


def make_slot_worker(cls):
    """A worker of class ``cls``, its scheduler stand-in, and a function that
    builds a message to the worker from its kind and fields (Peacock's
    messages carry a shared state too)."""
    sim = Simulation(SimConfig(workers=2, net_delay_us=0))
    sched = Recorder(sim)
    if cls is EagleWorker:
        worker = cls(sim, 0, "general", short_worker_eids=[sched.eid])
    else:
        worker = cls(sim, 0)
    if cls is PeacockWorker:
        s = state(5, 100)
        return sim, worker, sched, lambda *message: message + (s,)
    return sim, worker, sched, lambda *message: message


@pytest.mark.parametrize("cls", SLOT_WORKERS, ids=lambda c: c.__name__)
def test_slot_holds_its_probe_and_finish_through_the_lifecycle(cls):
    sim, worker, sched, message = make_slot_worker(cls)
    # Estimates below 3 s are short for Eagle, so no probe leaves for the
    # placer; r's longer one keeps it behind q in every queue order.
    p, q, r, t = (probe(job, theta=theta, scheduler=sched.eid)
                  for job, theta in zip("pqrt", (1, 1, 2, 1)))

    def slot():
        return worker.slot, worker.finish_us

    assert slot() == (None, None)
    worker.handle(message("probe", p), 0)
    assert slot() == (p, None)
    for x in (q, r):
        worker.handle(message("probe", x), 1 * US)
    assert slot() == (p, None)
    worker.handle(message("assign", p, 0, 10 * US), 2 * US)
    assert slot() == (p, 12 * US)
    # The complete timer at 12 s reports p's task and reserves for q.
    sim.run()
    assert sim.now == 12 * US and slot() == (q, None)
    finishes = [m for _, m in sched.inbox if m[0] == "task_finish"]
    assert finishes == [("task_finish", p.job_id, 0, 12 * US)]
    assert sim.counters["busy_us"] == 10 * US
    if cls is PeacockWorker:
        # Peacock's schedulers have a task for every probe; run q's.
        worker.handle(message("assign", q, 1, 1 * US), sim.now)
        sim.run()
    else:
        worker.handle(("cancel", q), sim.now)
    assert slot() == (r, None)
    worker.handle(message("assign", r, 2, 1 * US), sim.now)
    sim.run()
    assert slot() == (None, None)
    if cls is not PeacockWorker:
        worker.handle(message("probe", t), sim.now)
        assert slot() == (t, None)
        worker.handle(("cancel", t), sim.now)
        assert slot() == (None, None)


@pytest.mark.parametrize("cls", SLOT_WORKERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("phase", ["idle", "reserved", "running"])
def test_complete_outside_its_tasks_end_is_protocol_violation(cls, phase):
    sim, worker, sched, message = make_slot_worker(cls)
    p = probe("j", theta=1, scheduler=sched.eid)
    if phase != "idle":
        worker.handle(message("probe", p), 0)
    if phase == "running":
        worker.handle(message("assign", p, 0, 10 * US), 0)
    with pytest.raises(ProtocolError, match="complete without a task"):
        worker.handle(("complete", 0, 10 * US), 5 * US)


@pytest.mark.parametrize("cls", SLOT_WORKERS, ids=lambda c: c.__name__)
def test_assign_on_a_running_slot_is_protocol_violation(cls):
    sim, worker, sched, message = make_slot_worker(cls)
    p = probe("j", theta=1, scheduler=sched.eid)
    worker.handle(message("probe", p), 0)
    worker.handle(message("assign", p, 0, 10 * US), 0)
    with pytest.raises(ProtocolError, match="without matching reservation"):
        worker.handle(message("assign", p, 0, 10 * US), 1 * US)
    assert worker.slot is p and worker.finish_us == 10 * US


@pytest.mark.parametrize("cls, kind", [
    (PeacockWorker, "assign"), (SparrowWorker, "assign"),
    (SparrowWorker, "cancel"), (EagleWorker, "assign"),
    (EagleWorker, "cancel"),
], ids=lambda x: getattr(x, "__name__", x))
def test_answer_for_a_copy_of_the_reserved_probe_is_protocol_violation(
        cls, kind):
    # An answer is matched to the slot by identity: an equal copy of the
    # reserved probe holds no reservation.  Peacock never cancels.
    sim, worker, sched, message = make_slot_worker(cls)
    p = probe("j", theta=1, scheduler=sched.eid)
    worker.handle(message("probe", p), 0)
    twin = copy.copy(p)
    assert twin is not p and twin.key == p.key
    answer = (message("assign", twin, 0, 10 * US) if kind == "assign"
              else ("cancel", twin))
    with pytest.raises(ProtocolError, match="without matching reservation"):
        worker.handle(answer, 1 * US)
    assert worker.slot is p and worker.finish_us is None
