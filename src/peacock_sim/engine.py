"""Deterministic discrete-event core.

The virtual clock is integer microseconds.  Events are totally ordered by
(time, sequence number); the sequence number is a global send counter, so
two events scheduled for the same instant are delivered in send order.
Messages between entities incur the configured network delay; timers
(task completions, ring rotation rounds) are delivered without delay.

A heap entry is a list of (target, payload) events for one instant.  The
events that the handlers of one entry schedule for ``now + net_delay_us``
-- all their sends, and any timer due at that instant -- are collected in
call order and pushed as one entry when the handlers return.  Nothing
else can fall between them at that instant, so delivering the list in
order is the (time, seq) order of pushing each event alone.  Events
scheduled outside ``run()`` or for any other instant are pushed alone.
Every delivered event counts toward the event cap.
"""

import hashlib
import heapq
import random
from dataclasses import dataclass

US_PER_S = 1_000_000


class SimulationError(RuntimeError):
    """Configuration error or non-termination guard trip."""


class ProtocolError(SimulationError):
    """An entity observed a message that its protocol forbids."""


ALGOS = ("peacock", "sparrow", "eagle")

#: SimConfig's integer fields and the least value of each (None: no bound).
#: A bool is not an integer here.
_INT_FIELDS = {"workers": 1, "schedulers": 1, "rotation_interval_us": 1,
               "net_delay_us": 0, "seed": None, "event_cap": 1}


@dataclass
class SimConfig:
    """What a run varies: system size, Peacock's rotation interval, the
    network delay, the seed and the algorithm.  Sparrow's and Eagle's
    parameters are fixed constants in ``baselines``.  ``event_cap`` is a
    non-termination guard."""
    workers: int = 100
    schedulers: int = 1
    rotation_interval_us: int = 1 * US_PER_S
    net_delay_us: int = 5_000
    seed: int = 0
    algo: str = "peacock"
    event_cap: int = 200_000_000

    def __post_init__(self):
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if type(value) is not int:
                raise SimulationError("%s must be an integer, not %r"
                                      % (name, value))
            if low is not None and value < low:
                raise SimulationError("%s must be at least %d, not %r"
                                      % (name, low, value))
        if self.algo not in ALGOS:
            raise SimulationError("algo must be one of %s, not %r"
                                  % (", ".join(ALGOS), self.algo))


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
        # Read once: every send adds it.
        self.net_delay_us = config.net_delay_us
        self.now = 0
        self._heap = []
        self._seq = 0
        # While run() handles an entry: the instant now + net_delay_us and
        # the events collected for it.  None outside run().
        self._batch_us = None
        self._batch = None
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

    def add_entity(self, entity):
        self.entities.append(entity)
        return len(self.entities) - 1

    def schedule_at(self, time_us, target, payload):
        """Schedule a timer event; not counted as a network message."""
        if time_us == self._batch_us:
            self._batch.append((target, payload))
        else:
            heapq.heappush(self._heap,
                           (time_us, self._seq, [(target, payload)]))
            self._seq += 1

    def send(self, target, payload, now_us):
        """Deliver ``payload`` to ``target`` after the network delay."""
        if not 0 <= target < len(self.entities):
            raise SimulationError("send to unknown entity %r" % target)
        self.counters["messages"] += 1
        self.schedule_at(now_us + self.net_delay_us, target, payload)

    def run(self):
        """Process events in (time, seq) order until the queue drains;
        returns the number of events handled."""
        heap = self._heap
        entities = self.entities
        cap = self.config.event_cap
        delay = self.net_delay_us
        processed = 0
        try:
            while heap:
                time_us, _seq, events = heapq.heappop(heap)
                if time_us < self.now:
                    raise SimulationError(
                        "causality violation: event at %d before clock %d"
                        % (time_us, self.now))
                self.now = time_us
                self._batch_us = time_us + delay
                batch = self._batch = []
                for target, payload in events:
                    entities[target].handle(payload, time_us)
                if batch:
                    heapq.heappush(heap, (time_us + delay, self._seq, batch))
                    self._seq += 1
                processed += len(events)
                if processed > cap:
                    raise SimulationError(
                        "event cap %d exceeded at t=%dus (%d/%d jobs done)"
                        % (cap, self.now, self.jobs_done, self.total_jobs))
        finally:
            self._batch_us = self._batch = None
        return processed
