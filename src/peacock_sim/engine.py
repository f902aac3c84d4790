"""Deterministic discrete-event core.

The virtual clock is integer microseconds.  Events are totally ordered by
time, then by the order in which they were scheduled, so two events for
the same instant are delivered in send order.  An event's target is the
entity itself, whose ``handle(payload, time_us)`` runs it.  Messages
between entities incur the configured network delay; timers (task
completions, ring rotation rounds) are delivered without delay.

The pending events are one list per instant, in schedule order, and a
heap of those instants.  ``run()`` takes the earliest instant's list and
delivers it in order.  An event scheduled for that same instant while the
list is delivered (a zero delay) starts a fresh list for it, which runs
after the rest of the instant.  Every delivered event counts toward the
event cap, which is checked after each instant's list, so at most one
instant can run past it.
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
        # A heap of the instants that have events pending, and each one's
        # (target entity, payload) list in schedule order.
        self._times = []
        self._pending = {}
        # Every entity of the run, in creation order.
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

    def add_entity(self, entity):
        """Register ``entity`` in the run's registry; events address it by
        reference."""
        self.entities.append(entity)

    def schedule_at(self, time_us, target, payload):
        """Schedule a timer event for the entity ``target``; not counted as
        a network message."""
        events = self._pending.get(time_us)
        if events is None:
            self._pending[time_us] = [(target, payload)]
            heapq.heappush(self._times, time_us)
        else:
            events.append((target, payload))

    def send(self, target, payload, now_us):
        """Deliver ``payload`` to the entity ``target`` after the network
        delay."""
        self.counters["messages"] += 1
        self.schedule_at(now_us + self.net_delay_us, target, payload)

    def run(self):
        """Process events in time order, each instant's in schedule order,
        until none is pending; returns the number of events handled."""
        times = self._times
        pending = self._pending
        cap = self.config.event_cap
        processed = 0
        while times:
            time_us = heapq.heappop(times)
            if time_us < self.now:
                raise SimulationError(
                    "causality violation: event at %d before clock %d"
                    % (time_us, self.now))
            self.now = time_us
            events = pending.pop(time_us)
            for target, payload in events:
                target.handle(payload, time_us)
            processed += len(events)
            if processed > cap:
                raise SimulationError(
                    "event cap %d exceeded at t=%dus (%d/%d jobs done)"
                    % (cap, self.now, len(self.records), self.total_jobs))
        return processed
