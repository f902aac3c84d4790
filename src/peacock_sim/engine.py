"""Deterministic discrete-event core.

The virtual clock is integer microseconds.  Events are totally ordered by
(time, sequence number); the sequence number is a global send counter, so
two events scheduled for the same instant are delivered in send order.
Messages between entities incur the configured network delay; timers
(task completions, ring rotation rounds) are delivered without delay.
"""

import hashlib
import heapq
import random
from dataclasses import dataclass, field

US_PER_S = 1_000_000


class SimulationError(RuntimeError):
    """Configuration error or non-termination guard trip."""


class ProtocolError(SimulationError):
    """An entity observed a message that its protocol forbids."""


@dataclass
class SimConfig:
    workers: int = 100
    schedulers: int = 1
    rotation_interval_us: int = 1 * US_PER_S
    net_delay_us: int = 5_000
    seed: int = 0
    algo: str = "peacock"
    event_cap: int = 200_000_000
    # Elastic-queue bypass rule; see probes.BYPASS_PROSE / BYPASS_LITERAL.
    bypass_rule: str = "prose"
    # Job-to-scheduler assignment: "round_robin" or "random".
    job_assignment: str = "round_robin"
    # Sparrow
    sparrow_probe_ratio: int = 2
    # Eagle (static parameters; defaults are assumptions, tune per workload)
    eagle_long_cutoff_us: int = 3 * US_PER_S
    eagle_short_fraction: float = 0.15
    eagle_probe_ratio: int = 2
    eagle_srpt_bound_us: int = 5 * US_PER_S

    def __post_init__(self):
        if self.workers < 1:
            raise SimulationError("need at least one worker")
        if self.schedulers < 1:
            raise SimulationError("need at least one scheduler")
        if self.rotation_interval_us <= 0:
            raise SimulationError("rotation interval must be positive")
        if self.net_delay_us < 0:
            raise SimulationError("network delay cannot be negative")
        if self.algo not in ("peacock", "sparrow", "eagle"):
            raise SimulationError("unknown algorithm %r" % self.algo)


def derived_rng(seed, *tags):
    """A deterministic per-entity random stream split from one seed.

    Uses a hash of (seed, tags) so streams are independent of the order in
    which entities are created.
    """
    label = "%d/%s" % (seed, "/".join(str(t) for t in tags))
    digest = hashlib.sha256(label.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Simulation:
    """Event loop plus shared run-wide counters and job records."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.now = 0
        self._heap = []
        self._seq = 0
        self.entities = []
        self.counters = {
            "messages": 0,
            "rotation_messages": 0,
            "probe_hops": 0,
            "probes_created": 0,
            "tasks_launched": 0,
            "tasks_finished": 0,
            "probes_cancelled": 0,
            "aggregate_clamps": 0,
            "busy_us": 0,
        }
        self.records = []
        self.total_jobs = 0
        self.jobs_done = 0
        self.last_completion_us = 0

    def add_entity(self, entity):
        self.entities.append(entity)
        return len(self.entities) - 1

    def schedule_at(self, time_us, target, payload):
        """Schedule a timer event; not counted as a network message."""
        heapq.heappush(self._heap, (time_us, self._seq, target, payload))
        self._seq += 1

    def send(self, target, payload, now_us):
        """Deliver ``payload`` to ``target`` after the network delay."""
        if not 0 <= target < len(self.entities):
            raise SimulationError("send to unknown entity %r" % target)
        self.counters["messages"] += 1
        self.schedule_at(now_us + self.config.net_delay_us, target, payload)

    def run(self):
        """Process events in (time, seq) order until the queue drains."""
        heap = self._heap
        cap = self.config.event_cap
        processed = 0
        while heap:
            time_us, _seq, target, payload = heapq.heappop(heap)
            if time_us < self.now:
                raise SimulationError(
                    "causality violation: event at %d before clock %d"
                    % (time_us, self.now))
            self.now = time_us
            self.entities[target].handle(payload, time_us)
            processed += 1
            if processed > cap:
                raise SimulationError(
                    "event cap %d exceeded at t=%dus (%d/%d jobs done)"
                    % (cap, self.now, self.jobs_done, self.total_jobs))
        return processed
