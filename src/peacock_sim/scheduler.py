"""Scheduler state machines.

Every algorithm's scheduler runs one protocol, kept once in ``Scheduler``:
it admits a job's dependency-free stages on ``job``; on ``task_request``
it launches the probe's task with ``assign``, or sends ``cancel`` when it
has none; on ``task_finish`` it admits the stages that became ready and,
after the job's last task, records the job and frees its state.  Each
stage of a job DAG is scheduled as an independent unit.  Each algorithm
adds only where a stage's probes go.

A probe's ``task_id`` says how it is bound.  A probe bound at admission
(Peacock's, and Eagle's centrally placed long ones) launches that task.
A late-binding one (None) takes its stage's first unlaunched task, and
is cancelled once every task has launched or the job has finished.

A scheduler's ``jobs`` holds the jobs in flight, each with its
``JobState``, and None for a job that has finished.  So its memory follows
the jobs in flight, while a late request for a finished job is still told
apart from one for a job it never admitted.  A job's launch state is one
byte per task, kept per stage: 0 unlaunched, 1 running, 2 finished.

``PeacockScheduler`` sends one probe per task, bound to its task at
admission, to randomly drawn workers.  Its scheduler-wide aggregate (probe
count, total estimated load) is kept in step with its peers and feeds the
shared state that workers use to size their elastic queues.
"""

from math import ceil, log

from .engine import ProtocolError, SimulationError
from .metrics import JobRecord
from .probes import Probe, SharedState


def draw_below(getrandbits, n):
    """A uniform int in [0, n), for n >= 1: ``getrandbits(n.bit_length())``
    repeated until it falls below n.  Every scheduling draw is made here,
    from the generator's raw output, so no draw rests on the algorithms of
    ``sample``, ``choice`` or ``randrange``, which Python does not promise
    to keep.  It consumes the stream as ``randrange(n)`` does on Python
    3.10 to 3.13, and so gives the same value."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def pick_workers(rng, total, count):
    """Draw ``count`` worker indices, distinct while count <= total and
    with replacement beyond.  The indices, and the stream's state after,
    are those that ``Random.sample`` draws from ``range(total)``, then one
    ``randrange`` draw per index beyond ``total``.

    The distinct draws follow ``Random.sample``'s size rule, since that
    rule is what keeps these draws equal to the reports' past ones.  With
    k distinct indices, ``setsize`` is 21, plus ``4 ** ceil(log(3k, 4))``
    when k > 5.  When total <= setsize, a pool of all indices is drawn
    from without replacement; otherwise each index is redrawn until it is
    new."""
    getrandbits = rng.getrandbits
    k = min(count, total)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if total <= setsize:
        pool = list(range(total))
        ids = []
        for n in range(total, total - k, -1):
            j = draw_below(getrandbits, n)
            ids.append(pool[j])
            pool[j] = pool[n - 1]
    else:
        # A dict keeps the first draw of each index, in draw order.
        picked = {}
        while len(picked) < k:
            picked[draw_below(getrandbits, total)] = None
        ids = list(picked)
    if count > total:
        if not total:
            raise ValueError("cannot draw %d workers from none" % count)
        ids += [draw_below(getrandbits, total) for _ in range(count - total)]
    return ids


def probe_quota(probe_count, workers):
    """Average probes per worker, rounded half-up."""
    return (2 * probe_count + workers) // (2 * workers)


def mean_us(durations):
    """Mean of integer durations, rounded half to even as round() does."""
    n = len(durations)
    q, r = divmod(sum(durations), n)
    if 2 * r > n or (2 * r == n and q & 1):
        return q + 1
    return q


# What ``Scheduler.jobs.get`` returns for a job it never admitted; None is
# a finished job.
_UNSEEN = object()


def _double_finish(key, job_id):
    return ProtocolError("double finish of task %r of job %r" % (key, job_id))


class JobState:
    """A job in flight.  ``result`` is the job's ``JobRecord``: filled in as
    its tasks launch and finish, and final once it is in ``sim.records``.
    ``launched[stage][task]`` is that task's state: 0 unlaunched, 1
    running, 2 finished."""

    __slots__ = ("record", "result", "thetas", "stage_remaining",
                 "remaining_deps", "dependents", "launched")

    def __init__(self, record, result):
        self.record = record
        self.result = result
        self.thetas = [mean_us(s.durations_us) for s in record.stages]
        self.stage_remaining = [len(s.durations_us) for s in record.stages]
        self.remaining_deps = [len(s.deps) for s in record.stages]
        self.dependents = [[] for _ in record.stages]
        for i, stage in enumerate(record.stages):
            for d in stage.deps:
                self.dependents[d].append(i)
        self.launched = [bytearray(len(s.durations_us))
                         for s in record.stages]

    def task_finished(self, stage_idx, task_id, finish_us):
        """Record one task completion, exactly once per launched task;
        return stage indices that became ready for submission."""
        launched = self.launched[stage_idx]
        state = launched[task_id]
        if state != 1:
            key = (stage_idx, task_id)
            if not state:
                raise ProtocolError("finish for unlaunched task %r of job %r"
                                    % (key, self.record.job_id))
            raise _double_finish(key, self.record.job_id)
        launched[task_id] = 2
        self.result.completion_us = max(self.result.completion_us, finish_us)
        self.stage_remaining[stage_idx] -= 1
        ready = []
        if self.stage_remaining[stage_idx] == 0:
            for dep in self.dependents[stage_idx]:
                self.remaining_deps[dep] -= 1
                if self.remaining_deps[dep] == 0:
                    ready.append(dep)
        return ready

    @property
    def done(self):
        return not any(self.stage_remaining)


class Scheduler:
    """The protocol shared by every algorithm.  Subclasses define
    ``submit_stage``, which sends a stage's probes, and may override
    ``release`` and ``assignment``.  Each of ``worker_eids`` is checked
    here, so a bad one fails at wiring, before any event runs."""

    def __init__(self, sim, sid, worker_eids, rng):
        self.sim = sim
        self.sid = sid
        self.eid = sim.add_entity(self)
        for eid in worker_eids:
            if not 0 <= eid < len(sim.entities):
                raise SimulationError("scheduler %d: unknown worker entity %r"
                                      % (sid, eid))
        self.worker_eids = worker_eids
        self.rng = rng
        # job id -> its JobState while in flight; None once finished.
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
        job = JobState(record, JobRecord(record.job_id, self.sid, now, now))
        self.jobs[record.job_id] = job
        for i, stage in enumerate(record.stages):
            if not stage.deps:
                self.submit_stage(job, i, now)

    def on_task_request(self, probe, worker_eid, now):
        job_id, stage_idx = probe.job_id
        job = self.jobs.get(job_id, _UNSEEN)
        if job is _UNSEEN:
            raise ProtocolError("task request for unknown job %r" % (job_id,))
        task_id = probe.task_id
        if task_id is None:
            # Late binding: the stage's first unlaunched task, if any.
            task_id = -1 if job is None else job.launched[stage_idx].find(0)
            if task_id < 0:
                self.sim.counters["probes_cancelled"] += 1
                self.sim.send(worker_eid, ("cancel", probe), now)
                return
        elif job is None or job.launched[stage_idx][task_id]:
            raise ProtocolError("task %r of job %r already launched"
                                % ((stage_idx, task_id), job_id))
        job.launched[stage_idx][task_id] = 1
        job.result.rotations.append(probe.rotations)
        self.sim.counters["tasks_launched"] += 1
        duration = job.record.stages[stage_idx].durations_us[task_id]
        self.sim.send(worker_eid,
                      self.assignment(probe, task_id, duration, now), now)

    def assignment(self, probe, task_id, duration_us, now):
        """The ``assign`` payload that launches ``task_id`` for ``probe``."""
        return ("assign", probe, task_id, duration_us)

    def on_task_finish(self, job_key, task_id, finish_us, now):
        job_id, stage_idx = job_key
        job = self.jobs.get(job_id, _UNSEEN)
        if job is _UNSEEN:
            raise ProtocolError("finish for unknown job %r" % (job_id,))
        if job is None:
            raise _double_finish((stage_idx, task_id), job_id)
        self.release(job, stage_idx, now)
        for ready in job.task_finished(stage_idx, task_id, finish_us):
            self.submit_stage(job, ready, now)
        if job.done:
            self.sim.records.append(job.result)
            self.jobs[job_id] = None

    def release(self, job, stage_idx, now):
        """Runs for each finished task of ``stage_idx``, before the stages
        it makes ready are submitted."""


class PeacockScheduler(Scheduler):
    """One of a few equal schedulers; owns the full life cycle of its jobs
    and keeps the scheduler-wide aggregate in step with its peers."""

    def __init__(self, sim, sid, worker_eids, rng):
        super().__init__(sim, sid, worker_eids, rng)
        self.peer_eids = []
        self.probe_count = 0
        self.load_us = 0
        # The state shared_state last built; its version is (now, sid), so
        # it stands until the clock moves or the aggregate changes.
        self._state = None

    def handle(self, payload, now):
        if payload[0] == "peer":
            _, dcount, dload = payload
            self.on_peer_update(dcount, dload)
        else:
            super().handle(payload, now)

    # -- shared state -------------------------------------------------------

    def shared_state(self, now):
        """The quotas of the current aggregate, stamped ``(now, sid)``."""
        state = self._state
        if state is None or state.version[0] != now:
            workers = len(self.worker_eids)
            state = self._state = SharedState(
                probe_quota=probe_quota(self.probe_count, workers),
                load_quota_us=self.load_us // workers,
                version=(now, self.sid),
            )
        return state

    def change_aggregate(self, dcount, dload_us, now):
        """Apply this scheduler's own aggregate delta and send it to the
        peers."""
        self.on_peer_update(dcount, dload_us)
        for eid in self.peer_eids:
            self.sim.send(eid, ("peer", dcount, dload_us), now)

    def on_peer_update(self, dcount, dload_us):
        """Apply an aggregate delta, a peer's or this scheduler's own.  One
        that would drive a total below zero is a ``ProtocolError`` and
        leaves the aggregate as it was."""
        probe_count = self.probe_count + dcount
        load_us = self.load_us + dload_us
        if probe_count < 0 or load_us < 0:
            raise ProtocolError(
                "scheduler %d: delta (%d, %d us) would drive its aggregate "
                "(%d, %d us) below zero" % (self.sid, dcount, dload_us,
                                             self.probe_count, self.load_us))
        self.probe_count = probe_count
        self.load_us = load_us
        self._state = None

    def release(self, job, stage_idx, now):
        self.change_aggregate(-1, -job.thetas[stage_idx], now)

    # -- probe placement ----------------------------------------------------

    def submit_stage(self, job, stage_idx, now):
        durations = job.record.stages[stage_idx].durations_us
        n = len(durations)
        theta = job.thetas[stage_idx]
        self.change_aggregate(n, n * theta, now)
        state = self.shared_state(now)
        allowance = state.load_quota_us
        worker_eids = self.worker_eids
        job_key = (job.record.job_id, stage_idx)
        eid = self.eid
        targets = pick_workers(self.rng, len(worker_eids), n)
        self.sim.counters["probes_created"] += n
        # Probe((job, stage), task, arrival, runtime estimate, allowance,
        # scheduler); each probe is bound to its task here.
        send = self.sim.send
        for task_id, w in enumerate(targets):
            send(worker_eids[w], ("probe", Probe(job_key, task_id, now, theta,
                                                 allowance, eid), state), now)

    def assignment(self, probe, task_id, duration_us, now):
        return ("assign", probe, task_id, duration_us,
                self.shared_state(now))
