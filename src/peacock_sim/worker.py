"""Worker state machines.

Every algorithm's worker runs one late-binding slot, kept once in
``SlotWorker``.  A probe that reaches a free slot *reserves* it and asks
its scheduler for the task; the scheduler answers ``assign`` (or, when it
has no task left for the probe, ``cancel``).  Both carry the reserved
probe itself, and the worker matches them to its slot by identity: an
answer for any other probe, even an equal copy, is a ``ProtocolError``.
The task runs until its ``complete`` timer, the worker reports
``task_finish`` and then reserves for the next probe of its queue or, with
the queue empty, goes idle; so an idle worker's queue is empty.  While
reserved, the worker neither executes nor pulls another probe.  Two
attributes hold the slot's state: ``slot`` is the probe that holds it
(None while idle), and ``finish_us`` the instant its task ends (None while
reserved or idle).  Each algorithm's worker adds only its arrival rule,
its queue order and a hook run after the finish report.

``PeacockWorker`` is one node of the ring.  Its elastic queue sees a
remaining runtime of zero while the slot is reserved.  Probes marked for
rotation wait in the rotating buffer until the next ring round hands them,
each job's together, to the successor.  A worker that gains rotating
probes or adopts a fresher shared state adds its index to the ring's dirty
set.  Both persist until the next round, so a round visits exactly the
dirty workers.

A round is one engine event.  It builds a batch of hand-offs, one from
each dirty worker in index order, each carrying the rotated probes (the
empty tuple for news of state alone) and the sender's shared state for its
successor.  The batch lands as one event a network delay later, and the
round still counts one message per hand-off.  On landing, each successor
in turn adopts the state only if its version is newer, re-trimming its
queue only when the queue holds probes, and then takes the probes, if any,
through ``accept`` as it takes a fresh ``probe`` message: a duplicate is
refused by its scheduler when it requests its task, the first probe
reserves the slot if it is idle, and the others go to the elastic queue
in one ``WaitingQueue.enqueue_all`` call.  An idle worker never holds
queued probes: its slot goes idle only when its queue is empty, an idle
worker reserves for the first probe it gets, and adopting a state only
evicts.  The handed-off probes are never the sender's live rotating
buffer.
"""

from .engine import ProtocolError
from .probes import EMPTY_STATE, WaitingQueue


class SlotWorker:
    """A single execution slot fed from a probe queue.  ``slot`` is the
    probe that holds the slot, None while it is idle; ``finish_us`` is the
    instant that probe's task ends, None while reserved or idle.
    Subclasses define ``on_probe_arrival`` and ``_pop_queue`` (the next
    probe, or None); ``PeacockWorker`` replaces ``handle`` and takes probes
    in ``accept``."""

    def __init__(self, sim, index):
        self.sim = sim
        self.index = index
        self.eid = sim.add_entity(self)
        self.slot = None
        self.finish_us = None

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "probe":
            self.on_probe_arrival(payload[1], now)
        elif kind == "assign":
            _, probe, task_id, duration_us = payload
            self.on_task_assign(probe, task_id, duration_us, now)
        elif kind == "cancel":
            self.on_task_cancel(payload[1], now)
        elif kind == "complete":
            _, task_id, duration_us = payload
            self.on_task_complete(task_id, duration_us, now)
        else:
            raise ProtocolError("worker %d: unknown payload %r"
                                % (self.index, kind))

    def _reserve(self, probe, now):
        self.slot = probe
        self.sim.send(probe.scheduler, ("task_request", probe, self.eid), now)

    def _take_reservation(self, probe, what):
        if (probe is None or self.slot is not probe
                or self.finish_us is not None):
            raise ProtocolError("worker %d: %s without matching reservation"
                                % (self.index, what))

    def on_task_assign(self, probe, task_id, duration_us, now):
        self._take_reservation(probe, "task assignment")
        self.finish_us = now + duration_us
        self.sim.schedule_at(self.finish_us, self.eid,
                             ("complete", task_id, duration_us))

    def on_task_cancel(self, probe, now):
        self._take_reservation(probe, "cancel")
        self._next_or_idle(now)

    def on_task_complete(self, task_id, duration_us, now):
        if self.finish_us != now:
            raise ProtocolError("worker %d: complete without a task ending now"
                                % self.index)
        probe = self.slot
        self.finish_us = None
        sim = self.sim
        sim.counters["tasks_finished"] += 1
        sim.counters["busy_us"] += duration_us
        sim.send(probe.scheduler,
                 ("task_finish", probe.job_id, task_id, now), now)
        self._finished(probe, now)
        self._next_or_idle(now)

    def _finished(self, probe, now):
        """Runs after the finish of ``probe``'s task is reported."""

    def _next_or_idle(self, now):
        head = self._pop_queue()
        if head is None:
            self.slot = None
        else:
            self._reserve(head, now)


class PeacockWorker(SlotWorker):
    """One ring node: elastic queue, single execution slot, rotating buffer.
    Every message it receives but ``complete`` carries a shared state."""

    def __init__(self, sim, index):
        super().__init__(sim, index)
        self.queue = WaitingQueue()
        self.known_state = EMPTY_STATE
        # Indices of workers the next ring round must visit; a Ring
        # replaces this with the set it shares among its workers.
        self.dirty = set()

    # -- event dispatch -----------------------------------------------------

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "probe":
            _, probe, state = payload
            self.adopt_shared_state(state)
            self.accept((probe,), now)
        elif kind == "assign":
            _, probe, task_id, duration_us, state = payload
            self.adopt_shared_state(state)
            self.on_task_assign(probe, task_id, duration_us, now)
        elif kind == "complete":
            _, task_id, duration_us = payload
            self.on_task_complete(task_id, duration_us, now)
        else:
            raise ProtocolError("worker %d: unknown payload %r"
                                % (self.index, kind))

    # -- probe handling -----------------------------------------------------

    def accept(self, probes, now):
        """Take arriving probes in order.  If the slot is idle, the queue is
        empty too, and the first probe reserves the slot; the others go to
        the queue in one ``enqueue_all`` call under the known shared
        state, which places and trims them one by one."""
        queue = self.queue
        if self.slot is None:
            self._reserve(probes[0], now)
            probes = probes[1:]
            if not probes:
                return
            delta = 0
        else:
            # The slot's remaining runtime; 0 while it is reserved.
            finish_us = self.finish_us
            delta = 0 if finish_us is None else finish_us - now
        queue.enqueue_all(probes, now, delta, self.known_state)
        # Evicted and rejected probes wait in the rotating buffer until the
        # next round carries them off.
        if queue.rotating:
            self.dirty.add(self.index)

    def adopt_shared_state(self, state):
        """Adopt a fresher shared state and re-trim the queue to its
        quotas."""
        if state.version <= self.known_state.version:
            return
        self.known_state = state
        self.dirty.add(self.index)
        if self.queue.entries:
            self.queue.trim_to_quota(state)

    def _pop_queue(self):
        return self.queue.pop_head()

    # -- rotation rounds ----------------------------------------------------

    def rotate(self):
        """Empty the rotating buffer, which must not be empty, and return
        its probes, each job's together in first-seen order."""
        queue = self.queue
        probes = queue.rotating
        queue.rotating = []
        first_job = probes[0].job_id
        mixed = False
        for p in probes:
            p.rotations += 1
            if p.job_id != first_job:
                mixed = True
        if mixed:
            by_job = {}
            for p in probes:
                by_job.setdefault(p.job_id, []).append(p)
            probes = [p for group in by_job.values() for p in group]
        self.sim.counters["probe_hops"] += len(probes)
        return probes


class Ring:
    """One rotation round per interval.  ``workers[i]`` is the worker with
    index ``i`` and ``workers[(i + 1) % W]`` its successor; a round rotates
    the dirty ones, in index order.  A worker is dirty only while it holds
    rotating probes or a shared state fresher than it last sent, so each of
    them has something to send.

    A round is one event: its ``("round",)`` timer builds a batch of
    (successor, probes, state) hand-offs, one per dirty worker, and
    schedules the batch as one ``("round", batch)`` event a network delay
    later.  It still counts one message per hand-off in both ``messages``
    and ``rotation_messages``.  When the batch lands, each successor in
    turn adopts the state and then takes the probes, if any."""

    def __init__(self, sim, workers):
        self.sim = sim
        self.workers = workers
        self.eid = sim.add_entity(self)
        self.dirty = set()
        for w in workers:
            w.dirty = self.dirty

    def handle(self, payload, now):
        if payload[0] != "round":
            raise ProtocolError("ring: unknown payload %r" % (payload[0],))
        if len(payload) > 1:
            for successor, probes, state in payload[1]:
                successor.adopt_shared_state(state)
                if probes:
                    successor.accept(probes, now)
            return
        sim = self.sim
        dirty = self.dirty
        if dirty:
            workers = self.workers
            count = len(workers)
            batch = []
            for i in sorted(dirty):
                w = workers[i]
                batch.append((workers[(i + 1) % count],
                              w.rotate() if w.queue.rotating else (),
                              w.known_state))
            dirty.clear()
            counters = sim.counters
            counters["messages"] += len(batch)
            counters["rotation_messages"] += len(batch)
            # Scheduled before the re-arm, so a batch that lands at the
            # next round's instant is delivered before that round.
            sim.schedule_at(now + sim.net_delay_us, self.eid,
                            ("round", batch))
        if len(sim.records) < sim.total_jobs:
            sim.schedule_at(now + sim.config.rotation_interval_us, self.eid,
                            ("round",))
