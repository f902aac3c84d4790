"""Sparrow and Eagle baselines on the slot machine (``worker.SlotWorker``)
and scheduler protocol (``scheduler.Scheduler``) that Peacock also runs.
Both bind late: their probes carry no task (``task_id`` None), so the
shared ``Scheduler.on_task_request`` gives a probe that reaches a slot the
first unlaunched task of its stage and cancels surplus probes.  Neither
scheduler adds a binding rule of its own.

Sparrow: batch sampling (PROBE_RATIO probes per task to random workers)
and a FIFO worker queue, the slot machine's list with each arrival
appended.

Eagle: a static long/short job split.  A stage whose mean task estimate
is above LONG_CUTOFF_US is long.  A centralized placer puts each long
task on the least-loaded worker of the general partition (lowest index on
ties), kept in a heap of (load, index); the placer binds each long probe to
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

from .engine import ProtocolError, US_PER_S, derived_rng
from .probes import Probe
from .scheduler import Scheduler, draw_below, pick_workers
from .worker import SlotWorker

PROBE_RATIO = 2                 # probes per sampled task, both baselines
LONG_CUTOFF_US = 3 * US_PER_S   # Eagle: a longer stage is placed centrally
SHORT_FRACTION = 0.15           # Eagle: share of workers kept for short tasks
SRPT_BOUND_US = 5 * US_PER_S    # Eagle: queue wait after which no bypassing


class SparrowWorker(SlotWorker):
    """FIFO queue, no rotation, no shared state."""

    def on_probe_arrival(self, probe, now):
        if self.slot is None:
            self._reserve(probe, now)
        else:
            self.queue.append(probe)


class EagleWorker(SlotWorker):
    """Shortest-estimate-first queue with a starvation bound, plus the
    re-sample-once rule for short probes meeting long work.  A probe is
    long when its runtime estimate is above ``LONG_CUTOFF_US``, the test
    that sent its stage to the central placer.  The driver sets
    ``short_workers`` and ``central`` once every worker exists.

    The worker draws re-sample targets from its own stream,
    ``derived_rng(seed, "eagle-worker", index)``, made the first time it
    re-samples; most workers never do.  A stream hashes only the seed and
    its tags, so making it late gives the same draws as making it at
    build time."""

    def __init__(self, sim, index):
        super().__init__(sim, index)
        self.rng = None                     # made on the first re-sample
        self.long_count = 0                 # long probes queued or running

    def on_probe_arrival(self, probe, now):
        if probe.runtime_us > LONG_CUTOFF_US:
            # The placer's workers are the general partition.
            if self.index not in self.central.workers:
                raise ProtocolError(
                    "long probe reached short-partition worker %d" % self.index)
            self.long_count += 1
        elif self.long_count > 0 and not probe.resampled:
            probe.resampled = True
            if self.rng is None:
                self.rng = derived_rng(self.sim.config.seed, "eagle-worker",
                                       self.index)
            short = self.short_workers
            target = short[draw_below(self.rng.getrandbits, len(short))]
            self.sim.send(target, ("probe", probe), now)
            return
        if self.slot is None:
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

    def _finished(self, probe, now):
        if probe.runtime_us > LONG_CUTOFF_US:
            self.long_count -= 1
            self.sim.send(self.central,
                          ("long_finish", self.index, probe.runtime_us), now)


class EagleCentral:
    """Centralized long-job placer with a global view of its own
    placements; finish notifications arrive with network delay.

    Each long task goes to the least-loaded general worker, the lowest
    index on ties.  ``workers`` maps each general worker's index to the
    worker; ``loads_us`` holds their loads by index, and ``heap`` holds
    ``(load_us, index)`` entries of plain ints.  An entry whose load differs
    from ``loads_us`` is stale and is dropped when it reaches the top.
    Every worker keeps one entry that matches its load, so the first
    matching entry on top is the least ``(load_us, index)``.
    """

    def __init__(self, sim, general_workers):
        self.sim = sim
        sim.add_entity(self)
        self.workers = {w.index: w for w in general_workers}
        self.loads_us = dict.fromkeys(self.workers, 0)
        self.heap = [(0, i) for i in self.workers]
        heapq.heapify(self.heap)

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "long_stage":
            _, job_key, tasks, theta, scheduler = payload
            self.place_stage(job_key, tasks, theta, scheduler, now)
        elif kind == "long_finish":
            _, index, theta = payload
            load = self.loads_us[index] - theta
            self.loads_us[index] = load
            heapq.heappush(self.heap, (load, index))
        else:
            raise ProtocolError("eagle central: unknown payload %r" % kind)

    def place_stage(self, job_key, tasks, theta, scheduler, now):
        self.sim.counters["probes_created"] += tasks
        heap = self.heap
        loads_us = self.loads_us
        for task_id in range(tasks):
            while heap[0][0] != loads_us[heap[0][1]]:
                heapq.heappop(heap)
            load, index = heap[0]
            load += theta
            loads_us[index] = load
            heapq.heapreplace(heap, (load, index))
            probe = Probe(job_id=job_key, task_id=task_id, arrival_us=now,
                          runtime_us=theta, allowance_us=0,
                          scheduler=scheduler)
            self.sim.send(self.workers[index], ("probe", probe), now)


class SparrowScheduler(Scheduler):
    """Batch sampling with late binding."""

    def submit_stage(self, job, stage_idx, now):
        count = PROBE_RATIO * len(job.record.stages[stage_idx].durations_us)
        workers = self.workers
        job_key = (job.record.job_id, stage_idx)
        theta = job.thetas[stage_idx]
        targets = pick_workers(self.rng, len(workers), count)
        self.sim.counters["probes_created"] += count
        # Probe((job, stage), task, arrival, runtime estimate, allowance,
        # scheduler); the task is None, picked when the probe reaches a slot.
        send = self.sim.send
        for w in targets:
            send(workers[w], ("probe", Probe(job_key, None, now, theta, 0,
                                             self)), now)


class EagleScheduler(SparrowScheduler):
    """Long stages go to the central placer; short ones are sampled and
    bound late as in Sparrow."""

    def __init__(self, sim, sid, workers, rng, central):
        super().__init__(sim, sid, workers, rng)
        self.central = central

    def submit_stage(self, job, stage_idx, now):
        theta = job.thetas[stage_idx]
        if theta > LONG_CUTOFF_US:
            self.sim.send(self.central,
                          ("long_stage", (job.record.job_id, stage_idx),
                           len(job.record.stages[stage_idx].durations_us),
                           theta, self), now)
        else:
            super().submit_stage(job, stage_idx, now)
