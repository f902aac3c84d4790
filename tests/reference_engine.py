"""Naive reference model of the event loop, written independently of the
production engine.

Every event is its own heap entry, keyed by ``(time, seq)`` with ``seq`` a
global counter bumped at each schedule call, so the heap alone gives the
order "by time, then in the order scheduled".  The cap is checked after
every event.  Used as the oracle for randomized equivalence tests.
"""

import heapq

from peacock_sim.engine import Simulation, SimulationError


class ReferenceSimulation(Simulation):
    """``Simulation`` with its event queue replaced; ``send`` and the
    counters are inherited, so only the delivery order is under test."""

    def __init__(self, config):
        super().__init__(config)
        self.ref_heap = []
        self.ref_seq = 0

    def schedule_at(self, time_us, target, payload):
        heapq.heappush(self.ref_heap, (time_us, self.ref_seq, target, payload))
        self.ref_seq += 1

    def run(self):
        processed = 0
        while self.ref_heap:
            time_us, _seq, target, payload = heapq.heappop(self.ref_heap)
            if time_us < self.now:
                raise SimulationError(
                    "causality violation: event at %d before clock %d"
                    % (time_us, self.now))
            self.now = time_us
            target.handle(payload, time_us)
            processed += 1
            if processed > self.config.event_cap:
                raise SimulationError("event cap %d exceeded"
                                      % self.config.event_cap)
        return processed
