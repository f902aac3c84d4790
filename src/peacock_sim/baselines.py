"""Sparrow and Eagle baseline schedulers, sharing the same event engine,
workload format, and metrics as the primary scheduler.

Sparrow: batch sampling (probe_ratio probes per task to random workers)
with late binding -- a worker fetches the actual task only when a probe
reaches its slot, and surplus probes are cancelled.

Eagle: a static long/short job split.  A centralized placer puts each long
task on the least-loaded worker of the general partition (lowest index on
ties), kept in a heap of (load, index); short jobs use batch sampling over
all workers, a short probe landing on a worker with long work is
re-sampled once into the short-only partition, and worker queues reorder
shortest-estimate-first under a starvation bound.
"""

import heapq
from collections import deque

from .engine import ProtocolError
from .metrics import JobRecord
from .probes import Probe
from .scheduler import JobState, pick_workers
from .worker import IDLE, RESERVED, RUNNING


class _BaselineWorker:
    """Shared slot machinery: reserve/request, assign, complete, cancel."""

    def __init__(self, sim, index):
        self.sim = sim
        self.index = index
        self.eid = sim.add_entity(self)
        self.slot = IDLE
        self.reserved_probe = None
        self.running_probe = None
        self.running_duration_us = 0
        self.finish_us = 0
        self.assigned_task = None

    def _reserve(self, probe, now):
        self.slot = RESERVED
        self.reserved_probe = probe
        self.sim.send(probe.scheduler, ("task_request", probe, self.eid), now)

    def _next_or_idle(self, now):
        head = self._pop_queue()
        if head is not None:
            self._reserve(head, now)
        else:
            self.slot = IDLE

    def on_task_assign(self, probe_key, task_id, duration_us, now):
        if self.slot != RESERVED or self.reserved_probe.key != probe_key:
            raise ProtocolError(
                "worker %d: assignment without matching reservation"
                % self.index)
        probe = self.reserved_probe
        self.reserved_probe = None
        self.slot = RUNNING
        self.running_probe = probe
        self.assigned_task = (probe.job_id, task_id)
        self.running_duration_us = duration_us
        self.finish_us = now + duration_us
        self.sim.schedule_at(self.finish_us, self.eid, ("complete",))

    def on_task_cancel(self, probe_key, now):
        if self.slot != RESERVED or self.reserved_probe.key != probe_key:
            raise ProtocolError(
                "worker %d: cancel without matching reservation" % self.index)
        self.reserved_probe = None
        self._next_or_idle(now)

    def on_task_complete(self, now):
        probe = self.running_probe
        self.running_probe = None
        job_id, task_id = self.assigned_task
        self.sim.counters["tasks_finished"] += 1
        self.sim.counters["busy_us"] += self.running_duration_us
        self.sim.last_completion_us = max(self.sim.last_completion_us, now)
        self.sim.send(probe.scheduler,
                      ("task_finish", job_id, task_id, now), now)
        self._finished(probe)
        self._next_or_idle(now)

    def _finished(self, probe):
        pass


class SparrowWorker(_BaselineWorker):
    """Plain FIFO queue, no rotation, no shared state."""

    def __init__(self, sim, index):
        super().__init__(sim, index)
        self.queue = deque()

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "probe":
            self.on_probe_arrival(payload[1], now)
        elif kind == "assign":
            _, probe_key, task_id, duration_us = payload
            self.on_task_assign(probe_key, task_id, duration_us, now)
        elif kind == "cancel":
            self.on_task_cancel(payload[1], now)
        elif kind == "complete":
            self.on_task_complete(now)
        else:
            raise ProtocolError("sparrow worker: unknown payload %r" % kind)

    def on_probe_arrival(self, probe, now):
        if self.slot == IDLE and not self.queue:
            self._reserve(probe, now)
        else:
            self.queue.append(probe)

    def _pop_queue(self):
        return self.queue.popleft() if self.queue else None


class EagleWorker(_BaselineWorker):
    """Shortest-estimate-first queue with a starvation bound, plus the
    re-sample-once rule for short probes meeting long work."""

    def __init__(self, sim, index, partition, short_worker_eids, rng,
                 srpt_bound_us):
        super().__init__(sim, index)
        self.partition = partition          # "short" or "general"
        self.short_worker_eids = short_worker_eids
        self.rng = rng
        self.srpt_bound_us = srpt_bound_us
        self.queue = []
        self.long_count = 0                 # long probes queued or running

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "probe":
            self.on_probe_arrival(payload[1], now)
        elif kind == "assign":
            _, probe_key, task_id, duration_us = payload
            self.on_task_assign(probe_key, task_id, duration_us, now)
        elif kind == "cancel":
            self.on_task_cancel(payload[1], now)
        elif kind == "complete":
            self.on_task_complete(now)
        else:
            raise ProtocolError("eagle worker: unknown payload %r" % kind)

    def on_probe_arrival(self, probe, now):
        if probe.is_long:
            if self.partition == "short":
                raise ProtocolError(
                    "long probe reached short-partition worker %d" % self.index)
            self.long_count += 1
        elif self.long_count > 0 and not probe.resampled:
            probe.resampled = True
            target = self.rng.choice(self.short_worker_eids)
            self.sim.send(target, ("probe", probe), now)
            return
        if self.slot == IDLE and not self.queue:
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
                    and now < q.enqueued_us + self.srpt_bound_us):
                i -= 1
            else:
                break
        entries.insert(i, probe)

    def _pop_queue(self):
        return self.queue.pop(0) if self.queue else None

    def _finished(self, probe):
        if probe.is_long:
            self.long_count -= 1
            self.sim.send(self.central_eid,
                          ("long_finish", self.index, probe.runtime_us),
                          self.sim.now)


class EagleCentral:
    """Centralized long-job placer with a global view of its own
    placements; finish notifications arrive with network delay.

    Each long task goes to the least-loaded general worker, the lowest
    index on ties.  ``loads_us`` holds the loads; ``heap`` holds
    ``(load_us, index)`` entries, and an entry whose load differs from
    ``loads_us`` is stale and is dropped when it reaches the top.  Every
    worker keeps one entry that matches its load, so the first matching
    entry on top is the least ``(load_us, index)``.
    """

    def __init__(self, sim, general_worker_eids, general_indices):
        self.sim = sim
        self.eid = sim.add_entity(self)
        self.eid_by_index = dict(zip(general_indices, general_worker_eids))
        self.loads_us = {i: 0 for i in general_indices}
        self.heap = [(0, i) for i in general_indices]
        heapq.heapify(self.heap)

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "long_stage":
            _, job_key, durations, theta, scheduler_eid = payload
            self.place_stage(job_key, durations, theta, scheduler_eid, now)
        elif kind == "long_finish":
            _, widx, theta = payload
            load = self.loads_us[widx] - theta
            self.loads_us[widx] = load
            heapq.heappush(self.heap, (load, widx))
        else:
            raise ProtocolError("eagle central: unknown payload %r" % kind)

    def place_stage(self, job_key, durations, theta, scheduler_eid, now):
        self.sim.counters["probes_created"] += len(durations)
        heap = self.heap
        loads_us = self.loads_us
        for task_id in range(len(durations)):
            while heap[0][0] != loads_us[heap[0][1]]:
                heapq.heappop(heap)
            load, widx = heap[0]
            load += theta
            loads_us[widx] = load
            heapq.heapreplace(heap, (load, widx))
            probe = Probe(job_id=job_key, task_id=task_id, arrival_us=now,
                          runtime_us=theta, allowance_us=0,
                          scheduler=scheduler_eid, is_long=True)
            self.sim.send(self.eid_by_index[widx], ("probe", probe), now)


class _BaselineScheduler:
    """Late-binding pool: probes of a stage map to whichever of that
    stage's tasks are still unlaunched when they reach a slot."""

    def __init__(self, sim, sid, worker_eids, rng):
        self.sim = sim
        self.sid = sid
        self.eid = sim.add_entity(self)
        self.worker_eids = worker_eids
        self.rng = rng
        self.jobs = {}

    def handle(self, payload, now):
        kind = payload[0]
        if kind == "job":
            self.on_job_arrival(payload[1], now)
        elif kind == "task_request":
            _, probe, worker_eid = payload
            self.on_task_request(probe, worker_eid, now)
        elif kind == "task_finish":
            _, job_key, task_id, finish_us = payload
            self.on_task_finish(job_key, task_id, finish_us, now)
        else:
            raise ProtocolError("scheduler %d: unknown payload %r"
                                % (self.sid, kind))

    def on_job_arrival(self, record, now):
        job = JobState(record, now)
        self.jobs[record.job_id] = job
        for i, stage in enumerate(record.stages):
            if not stage.deps:
                self.submit_stage(job, i, now)

    def on_task_request(self, probe, worker_eid, now):
        job_id, stage_idx = probe.job_id
        job = self.jobs[job_id]
        if probe.is_long:
            # Fixed binding for centrally placed long tasks.
            task_id = probe.task_id
            if (stage_idx, task_id) in job.launched:
                raise ProtocolError("long task launched twice")
        else:
            durations = job.record.stages[stage_idx].durations_us
            if job.pool_next[stage_idx] >= len(durations):
                self.sim.counters["probes_cancelled"] += 1
                self.sim.send(worker_eid, ("cancel", probe.key), now)
                return
            task_id = job.pool_next[stage_idx]
            job.pool_next[stage_idx] += 1
        job.launched.add((stage_idx, task_id))
        job.rotations.append(probe.rotations)
        self.sim.counters["tasks_launched"] += 1
        duration = job.record.stages[stage_idx].durations_us[task_id]
        self.sim.send(worker_eid,
                      ("assign", probe.key, task_id, duration), now)

    def on_task_finish(self, job_key, task_id, finish_us, now):
        job_id, stage_idx = job_key
        job = self.jobs[job_id]
        for ready in job.task_finished(stage_idx, task_id, finish_us):
            self.submit_stage(job, ready, now)
        if job.done:
            self.sim.records.append(JobRecord(
                job_id=job_id, scheduler=self.sid,
                arrival_us=job.arrival_us, completion_us=job.completion_us,
                rotations=list(job.rotations)))
            self.sim.jobs_done += 1

    def _submit_sampled(self, job, stage_idx, now, ratio, theta):
        n = len(job.record.stages[stage_idx].durations_us)
        count = ratio * n
        targets = pick_workers(self.rng, len(self.worker_eids), count)
        self.sim.counters["probes_created"] += count
        for i, widx in enumerate(targets):
            probe = Probe(job_id=(job.record.job_id, stage_idx),
                          task_id=("probe", i), arrival_us=now,
                          runtime_us=theta, allowance_us=0,
                          scheduler=self.eid)
            self.sim.send(self.worker_eids[widx], ("probe", probe), now)


class SparrowScheduler(_BaselineScheduler):
    def __init__(self, sim, sid, worker_eids, rng, probe_ratio):
        super().__init__(sim, sid, worker_eids, rng)
        self.probe_ratio = probe_ratio

    def submit_stage(self, job, stage_idx, now):
        job.submitted[stage_idx] = True
        self._submit_sampled(job, stage_idx, now, self.probe_ratio,
                             job.thetas[stage_idx])


class EagleScheduler(_BaselineScheduler):
    def __init__(self, sim, sid, worker_eids, rng, probe_ratio,
                 long_cutoff_us, central_eid):
        super().__init__(sim, sid, worker_eids, rng)
        self.probe_ratio = probe_ratio
        self.long_cutoff_us = long_cutoff_us
        self.central_eid = central_eid

    def submit_stage(self, job, stage_idx, now):
        job.submitted[stage_idx] = True
        theta = job.thetas[stage_idx]
        durations = job.record.stages[stage_idx].durations_us
        if theta > self.long_cutoff_us:
            self.sim.send(self.central_eid,
                          ("long_stage", (job.record.job_id, stage_idx),
                           tuple(durations), theta, self.eid), now)
        else:
            self._submit_sampled(job, stage_idx, now, self.probe_ratio, theta)
