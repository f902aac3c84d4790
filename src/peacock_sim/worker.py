"""Worker state machine on the ring.

A worker executes one task at a time.  Between requesting a task and
receiving its data the single slot is *reserved*: the worker neither
executes nor pulls another probe, and concurrent enqueues see a remaining
runtime of zero.  Probes marked for rotation wait in the rotating buffer
until the next ring round hands them, each job's together, to the successor.
A worker that gains rotating probes or adopts a fresher shared state adds
its index to the ring's dirty set, so a round visits only those workers.
"""

from .engine import ProtocolError
from .probes import EMPTY_STATE, WaitingQueue

IDLE = "idle"
RESERVED = "reserved"
RUNNING = "running"


class PeacockWorker:
    """One ring node: elastic queue, single execution slot, rotating buffer."""

    def __init__(self, sim, index, successor_eid):
        self.sim = sim
        self.index = index
        self.eid = sim.add_entity(self)
        self.successor_eid = successor_eid
        self.queue = WaitingQueue()
        self.known_state = EMPTY_STATE
        self.last_sent_version = EMPTY_STATE.version
        self.slot = IDLE
        self.reserved_probe = None
        self.running_probe = None
        self.running_duration_us = 0
        self.finish_us = 0
        self.held = set()
        # Indices of workers the next ring round must visit; a Ring
        # replaces this with the set it shares among its workers.
        self.dirty = set()

    # -- event dispatch -----------------------------------------------------

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "probe":
            _, probe, state, _via = payload
            self.adopt_shared_state(state)
            self.on_probe_arrival(probe, now)
        elif kind == "rotation":
            _, probes, state = payload
            self.adopt_shared_state(state)
            for probe in probes:
                self.on_probe_arrival(probe, now)
        elif kind == "assign":
            _, job_id, task_id, duration_us, state = payload
            self.adopt_shared_state(state)
            self.on_task_assign(job_id, task_id, duration_us, now)
        elif kind == "complete":
            self.on_task_complete(now)
        else:
            raise ProtocolError("worker %d: unknown payload %r"
                                % (self.index, kind))

    # -- probe handling -----------------------------------------------------

    def on_probe_arrival(self, probe, now):
        if probe.key in self.held:
            raise ProtocolError(
                "worker %d: duplicate probe arrival for %r"
                % (self.index, probe.key))
        self.held.add(probe.key)
        if self.slot == IDLE and not self.queue.entries:
            self._reserve(probe, now)
            return
        if self.slot == RUNNING:
            delta = max(0, self.finish_us - now)
        else:
            delta = 0
        self.queue.enqueue(probe, now, delta, self.known_state,
                           bypass_rule=self.sim.config.bypass_rule)
        if self.queue.rotating:
            self.dirty.add(self.index)
        # Evicted probes are already in the rotating buffer; they stay held
        # until the next rotation round carries them off.

    def adopt_shared_state(self, state):
        """Adopt a fresher shared state and re-trim the queue to its quotas."""
        if state.version <= self.known_state.version:
            return []
        self.known_state = state
        self.dirty.add(self.index)
        return self.queue.trim_to_quota(state)

    # -- rotation rounds ----------------------------------------------------

    def rotate(self, now):
        """Send the rotating probes, each job's together in first-seen order,
        and the known shared state to the ring successor."""
        probes = self.queue.rotating
        self.queue.rotating = []
        by_job = {}
        for p in probes:
            p.rotations += 1
            self.held.discard(p.key)
            by_job.setdefault(p.job_id, []).append(p)
        if len(by_job) > 1:
            probes = [p for group in by_job.values() for p in group]
        self.sim.send(self.successor_eid,
                      ("rotation", probes, self.known_state), now)
        self.sim.counters["rotation_messages"] += 1
        self.sim.counters["probe_hops"] += len(probes)
        self.last_sent_version = self.known_state.version

    # -- task lifecycle -----------------------------------------------------

    def _reserve(self, probe, now):
        self.slot = RESERVED
        self.reserved_probe = probe
        self.sim.send(probe.scheduler,
                      ("task_request", probe, self.eid), now)

    def on_task_assign(self, job_id, task_id, duration_us, now):
        if self.slot != RESERVED or self.reserved_probe.key != (job_id, task_id):
            raise ProtocolError(
                "worker %d: task assignment without matching reservation"
                % self.index)
        self.slot = RUNNING
        self.running_probe = self.reserved_probe
        self.reserved_probe = None
        self.running_duration_us = duration_us
        self.finish_us = now + duration_us
        self.sim.schedule_at(self.finish_us, self.eid, ("complete",))

    def on_task_complete(self, now):
        probe = self.running_probe
        self.running_probe = None
        self.held.discard(probe.key)
        self.sim.counters["tasks_finished"] += 1
        self.sim.counters["busy_us"] += self.running_duration_us
        self.sim.last_completion_us = max(self.sim.last_completion_us, now)
        self.sim.send(probe.scheduler,
                      ("task_finish", probe.job_id, probe.task_id, now), now)
        head = self.queue.pop_head()
        if head is not None:
            self._reserve(head, now)
        else:
            self.slot = IDLE
            assert not self.queue.entries, \
                "worker went idle with queued probes"


class Ring:
    """One rotation round per interval.  ``workers[i]`` is the worker with
    index ``i``; a round visits only the dirty ones, in index order, and
    each with rotating probes or a fresher shared state than it last sent
    rotates."""

    def __init__(self, sim, workers):
        self.sim = sim
        self.workers = workers
        self.eid = sim.add_entity(self)
        self.dirty = set()
        for w in workers:
            w.dirty = self.dirty

    def handle(self, payload, now):
        workers = self.workers
        for i in sorted(self.dirty):
            w = workers[i]
            if w.queue.rotating or w.known_state.version > w.last_sent_version:
                w.rotate(now)
        self.dirty.clear()
        sim = self.sim
        if sim.jobs_done < sim.total_jobs:
            sim.schedule_at(now + sim.config.rotation_interval_us, self.eid,
                            ("round",))
