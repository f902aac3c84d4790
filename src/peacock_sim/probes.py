"""Elastic worker queue: priority insertion with starvation guards and
quota-driven trimming.

All times and durations are integer microseconds so that the cached load
total stays exact under any operation sequence.

A probe descends from the tail of the queue towards the head, passing an
entry only when doing so shortens head-of-line blocking without pushing an
already-waiting probe past its deadline.  Where it stops, it is inserted
if its wait there is tolerable or its deadline has already passed, and
otherwise marked for rotation to the ring successor.  A probe that passes
every entry is inserted at the head.
"""

from dataclasses import dataclass


class InvalidProbeError(ValueError):
    """Raised when a probe violates the queue's contract."""


@dataclass(frozen=True, slots=True)
class SharedState:
    """Cluster-wide elasticity signal: probe quota, load quota, freshness.

    ``version`` is a totally ordered (time_us, scheduler_id) stamp; adopting
    a state with a lower or equal version is a no-op.
    """

    probe_quota: int
    load_quota_us: int
    version: tuple

    def __post_init__(self):
        if self.probe_quota < 0 or self.load_quota_us < 0:
            raise ValueError("quotas must be non-negative")


#: State a worker holds before it has seen any real shared state.
EMPTY_STATE = SharedState(0, 0, (-1, -1))


class Probe:
    """Placeholder for one task, enqueued at workers ahead of the task data.

    ``job_id`` is the ``(job, stage)`` key of the probe's stage and
    ``task_id`` the task it is bound to, None for a late-binding probe,
    whose scheduler picks the task when the probe reaches a slot.
    ``arrival_us`` (job arrival), ``runtime_us`` (runtime estimate) and
    ``allowance_us`` (waiting-time allowance, frozen at admission) never
    change after creation, so ``deadline_us`` is computed once and only
    ``__init__`` checks that ``runtime_us`` is positive.  ``rotations``
    counts ring hops, and ``scheduler`` is the scheduler entity that its
    ``task_request`` and ``task_finish`` go to.
    """

    __slots__ = (
        "job_id", "task_id", "arrival_us", "runtime_us", "allowance_us",
        "deadline_us", "rotations", "scheduler",
        "resampled", "enqueued_us",
    )

    def __init__(self, job_id, task_id, arrival_us, runtime_us, allowance_us,
                 scheduler=None):
        if runtime_us <= 0:
            raise InvalidProbeError("probe runtime estimate must be positive")
        if allowance_us < 0:
            raise InvalidProbeError("probe allowance must be non-negative")
        self.job_id = job_id
        self.task_id = task_id
        self.arrival_us = arrival_us
        self.runtime_us = runtime_us
        self.allowance_us = allowance_us
        self.deadline_us = arrival_us + allowance_us
        self.rotations = 0
        self.scheduler = scheduler
        # Eagle-only bookkeeping (re-sampling, SRPT ordering).
        self.resampled = False
        self.enqueued_us = 0

    def __repr__(self):
        return ("Probe(job=%r, task=%r, arr=%d, rt=%d, allow=%d, rot=%d)"
                % (self.job_id, self.task_id, self.arrival_us,
                   self.runtime_us, self.allowance_us, self.rotations))


INSERTED = "inserted"
ROTATED = "rotated"


class WaitingQueue:
    """Ordered probe queue with cached load total and a rotation buffer.

    ``entries[0]`` is the head (next to execute).  ``total_runtime_us``
    always equals the exact sum of runtime estimates over ``entries``.
    Probes evicted by quota trimming or rejected at placement move to
    ``rotating`` and leave on the next rotation round.  ``enqueue_all``
    places a batch of probes, trimming after each one; ``enqueue`` is its
    one-probe case.
    """

    __slots__ = ("entries", "total_runtime_us", "rotating")

    def __init__(self):
        self.entries = []
        self.total_runtime_us = 0
        self.rotating = []

    def __len__(self):
        return len(self.entries)

    def enqueue(self, probe, now_us, running_remaining_us, state):
        """Place one probe: the one-probe case of ``enqueue_all``.  Returns
        ``(outcome, evicted)``: INSERTED, or ROTATED when the probe was
        rejected at placement, and the probes the trim moved to the
        rotating buffer.
        """
        rotating = self.rotating
        before = len(rotating)
        rejected = self.enqueue_all((probe,), now_us, running_remaining_us,
                                    state)
        return ((ROTATED if rejected else INSERTED),
                rotating[before + rejected:])

    def enqueue_all(self, probes, now_us, running_remaining_us, state):
        """Place each of ``probes`` in order by the reordering rule, and
        after each one trim the queue by ``trim_to_quota``'s rule, inlined.

        ``running_remaining_us`` is the remaining runtime of the task
        currently running on the owning worker (0 when idle or reserved).
        The scan from the tail decides only whether the probe passes the
        entry ahead of it.  Where it stops, it is inserted if ``now + wait
        <= deadline`` or its deadline has passed, and rotated otherwise; a
        probe that passed every entry goes to the head.  Returns how many
        probes were rejected at placement.
        """
        if running_remaining_us < 0:
            raise InvalidProbeError("running remainder cannot be negative")
        entries = self.entries
        rotating = self.rotating
        total_us = self.total_runtime_us
        probe_quota = state.probe_quota
        load_quota_us = state.load_quota_us
        rejected = 0
        for probe in probes:
            runtime_us = probe.runtime_us
            arrival_us = probe.arrival_us
            deadline_us = probe.deadline_us
            wait_us = running_remaining_us + total_us
            position = 0
            for i in range(len(entries) - 1, -1, -1):
                q = entries[i]
                if arrival_us >= q.arrival_us:
                    # Later-scheduled probe: passes q only if it is shorter
                    # and q stays within its deadline.
                    if (runtime_us > q.runtime_us or now_us >= q.deadline_us
                            or now_us + wait_us - q.runtime_us + runtime_us
                            > q.deadline_us):
                        position = i + 1
                        break
                elif (q.runtime_us <= runtime_us
                      and now_us + wait_us <= deadline_us):
                    # Earlier-scheduled probe: stops behind a q no longer
                    # than itself while its own wait is tolerable.
                    position = i + 1
                    break
                wait_us -= q.runtime_us
            if position and now_us < deadline_us < now_us + wait_us:
                # Stopped behind an entry with an intolerable wait and a
                # deadline still ahead: rejected.
                rotating.append(probe)
                rejected += 1
            else:
                entries.insert(position, probe)
                total_us += runtime_us
            # The trim: evict tail probes while either quota is broken.
            while entries and (len(entries) >= probe_quota
                               or total_us >= load_quota_us):
                q = entries.pop()
                total_us -= q.runtime_us
                rotating.append(q)
        self.total_runtime_us = total_us
        return rejected

    def trim_to_quota(self, state):
        """Evict tail probes while the queue exceeds either quota.

        Post-state: queue empty, or strictly below both quotas.  Evicted
        probes are appended to the rotating buffer, and that slice of it is
        returned.  ``enqueue_all`` inlines this loop on its local total
        rather than call it after every placed probe, which gave back a
        measurable part of the batch's saving; ``tests/test_elastic_queue.py``
        holds both copies to the reference model's trim.
        """
        entries = self.entries
        rotating = self.rotating
        before = len(rotating)
        while entries and (len(entries) >= state.probe_quota
                           or self.total_runtime_us >= state.load_quota_us):
            q = entries.pop()
            self.total_runtime_us -= q.runtime_us
            rotating.append(q)
        return rotating[before:]

    def pop_head(self):
        """Remove and return the head probe, or None when empty."""
        if not self.entries:
            return None
        p = self.entries.pop(0)
        self.total_runtime_us -= p.runtime_us
        return p
