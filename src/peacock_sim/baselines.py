"""Sparrow and Eagle baselines on the slot machine (``worker.SlotWorker``)
and scheduler protocol (``scheduler.Scheduler``) that Peacock also runs.
Both bind late: their probes carry no task (``task_id`` None), so the
shared ``Scheduler.on_task_request`` gives a probe that reaches a slot the
first unlaunched task of its stage and cancels surplus probes.  Neither
scheduler adds a binding rule of its own.

Sparrow: batch sampling (PROBE_RATIO probes per task to random workers)
and a FIFO worker queue.

Eagle: a static long/short job split.  A stage whose mean task estimate
is above LONG_CUTOFF_US is long.  A centralized placer puts each long
task on the least-loaded worker of the general partition (lowest eid on
ties), kept in a heap of (load, eid); the placer binds each long probe to
its task, so long probes are the only Eagle probes with a ``task_id``.
Short stages are sampled as in Sparrow, a short probe landing on a worker
with long work is re-sampled once into the short-only partition (the
first SHORT_FRACTION of the workers), and worker queues reorder
shortest-estimate-first, except that a probe queued for SRPT_BOUND_US can
no longer be bypassed.  A worker draws its re-sample targets from a
stream of its own, split from the run's seed by ``derived_rng`` and made
the first time that worker re-samples.

The baselines are fixed comparison points, so these parameters are module
constants rather than configuration.
"""

import heapq
from collections import deque

from .engine import ProtocolError, US_PER_S, derived_rng
from .probes import Probe
from .scheduler import Scheduler, pick_workers
from .worker import SlotWorker

PROBE_RATIO = 2                 # probes per sampled task, both baselines
LONG_CUTOFF_US = 3 * US_PER_S   # Eagle: a longer stage is placed centrally
SHORT_FRACTION = 0.15           # Eagle: share of workers kept for short tasks
SRPT_BOUND_US = 5 * US_PER_S    # Eagle: queue wait after which no bypassing


class SparrowWorker(SlotWorker):
    """Plain FIFO queue, no rotation, no shared state."""

    def __init__(self, sim, index):
        super().__init__(sim, index)
        self.queue = deque()

    def on_probe_arrival(self, probe, now):
        if self.slot is None and not self.queue:
            self._reserve(probe, now)
        else:
            self.queue.append(probe)

    def _pop_queue(self):
        return self.queue.popleft() if self.queue else None


class EagleWorker(SlotWorker):
    """Shortest-estimate-first queue with a starvation bound, plus the
    re-sample-once rule for short probes meeting long work.  A probe is
    long when its runtime estimate is above ``LONG_CUTOFF_US``, the test
    that sent its stage to the central placer.

    The worker draws re-sample targets from its own stream,
    ``derived_rng(seed, "eagle-worker", index)``, made the first time it
    re-samples; most workers never do.  A stream hashes only the seed and
    its tags, so making it late gives the same draws as making it at
    build time."""

    def __init__(self, sim, index, partition, short_worker_eids):
        super().__init__(sim, index)
        self.partition = partition          # "short" or "general"
        self.short_worker_eids = short_worker_eids
        self.rng = None                     # made on the first re-sample
        self.queue = []
        self.long_count = 0                 # long probes queued or running

    def on_probe_arrival(self, probe, now):
        if probe.runtime_us > LONG_CUTOFF_US:
            if self.partition == "short":
                raise ProtocolError(
                    "long probe reached short-partition worker %d" % self.index)
            self.long_count += 1
        elif self.long_count > 0 and not probe.resampled:
            probe.resampled = True
            if self.rng is None:
                self.rng = derived_rng(self.sim.config.seed, "eagle-worker",
                                       self.index)
            target = self.rng.choice(self.short_worker_eids)
            self.sim.send(target, ("probe", probe), now)
            return
        if self.slot is None and not self.queue:
            self._reserve(probe, now)
            return
        probe.enqueued_us = now
        self._srpt_insert(probe, now)

    def _srpt_insert(self, probe, now):
        """Descend from the tail past longer probes; a probe that has
        waited past the starvation bound can no longer be bypassed."""
        entries = self.queue
        i = len(entries)
        while i > 0:
            q = entries[i - 1]
            if (probe.runtime_us < q.runtime_us
                    and now < q.enqueued_us + SRPT_BOUND_US):
                i -= 1
            else:
                break
        entries.insert(i, probe)

    def _pop_queue(self):
        return self.queue.pop(0) if self.queue else None

    def _finished(self, probe, now):
        if probe.runtime_us > LONG_CUTOFF_US:
            self.long_count -= 1
            self.sim.send(self.central_eid,
                          ("long_finish", self.eid, probe.runtime_us), now)


class EagleCentral:
    """Centralized long-job placer with a global view of its own
    placements; finish notifications arrive with network delay.

    Each long task goes to the least-loaded general worker, the lowest
    eid on ties; the driver creates workers in index order, so that is the
    lowest index too.  ``loads_us`` holds the loads by worker eid; ``heap``
    holds ``(load_us, eid)`` entries, and an entry whose load differs from
    ``loads_us`` is stale and is dropped when it reaches the top.  Every
    worker keeps one entry that matches its load, so the first matching
    entry on top is the least ``(load_us, eid)``.
    """

    def __init__(self, sim, general_worker_eids):
        self.sim = sim
        self.eid = sim.add_entity(self)
        self.loads_us = dict.fromkeys(general_worker_eids, 0)
        self.heap = [(0, eid) for eid in general_worker_eids]
        heapq.heapify(self.heap)

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "long_stage":
            _, job_key, tasks, theta, scheduler_eid = payload
            self.place_stage(job_key, tasks, theta, scheduler_eid, now)
        elif kind == "long_finish":
            _, worker_eid, theta = payload
            load = self.loads_us[worker_eid] - theta
            self.loads_us[worker_eid] = load
            heapq.heappush(self.heap, (load, worker_eid))
        else:
            raise ProtocolError("eagle central: unknown payload %r" % kind)

    def place_stage(self, job_key, tasks, theta, scheduler_eid, now):
        self.sim.counters["probes_created"] += tasks
        heap = self.heap
        loads_us = self.loads_us
        for task_id in range(tasks):
            while heap[0][0] != loads_us[heap[0][1]]:
                heapq.heappop(heap)
            load, worker_eid = heap[0]
            load += theta
            loads_us[worker_eid] = load
            heapq.heapreplace(heap, (load, worker_eid))
            probe = Probe(job_id=job_key, task_id=task_id, arrival_us=now,
                          runtime_us=theta, allowance_us=0,
                          scheduler=scheduler_eid)
            self.sim.send(worker_eid, ("probe", probe), now)


class SparrowScheduler(Scheduler):
    """Batch sampling with late binding."""

    def submit_stage(self, job, stage_idx, now):
        count = PROBE_RATIO * len(job.record.stages[stage_idx].durations_us)
        worker_eids = self.worker_eids
        job_key = (job.record.job_id, stage_idx)
        theta = job.thetas[stage_idx]
        eid = self.eid
        targets = pick_workers(self.rng, len(worker_eids), count)
        self.sim.counters["probes_created"] += count
        # Probe((job, stage), task, arrival, runtime estimate, allowance,
        # scheduler); the task is None, picked when the probe reaches a slot.
        send = self.sim.send
        for w in targets:
            send(worker_eids[w], ("probe", Probe(job_key, None, now, theta, 0,
                                                 eid)), now)


class EagleScheduler(SparrowScheduler):
    """Long stages go to the central placer; short ones are sampled and
    bound late as in Sparrow."""

    def __init__(self, sim, sid, worker_eids, rng, central_eid):
        super().__init__(sim, sid, worker_eids, rng)
        self.central_eid = central_eid

    def submit_stage(self, job, stage_idx, now):
        theta = job.thetas[stage_idx]
        if theta > LONG_CUTOFF_US:
            self.sim.send(self.central_eid,
                          ("long_stage", (job.record.job_id, stage_idx),
                           len(job.record.stages[stage_idx].durations_us),
                           theta, self.eid), now)
        else:
            super().submit_stage(job, stage_idx, now)
