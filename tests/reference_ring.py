"""Reference model of the ring round, one message per rotating worker.

``ReferenceRing`` keeps the round as a sequence of sends: each dirty
worker, in index order, sends its own ``rotation`` message through
``Simulation.send``, and each message is its own engine event, handled
when it lands by the successor adopting the state and then taking the
probes.  The production ``Ring`` delivers a round's hand-offs as one
batched event; both must give the same reports and job records.  Used as
the oracle for randomized equivalence tests.
"""

from peacock_sim.worker import Ring


class ReferenceRing(Ring):
    """``Ring`` with the round and its delivery replaced; the dirty set and
    ``PeacockWorker.rotate`` are inherited."""

    def handle(self, payload, now):
        sim = self.sim
        workers = self.workers
        if payload[0] == "rotation":
            _, successor, probes, state = payload
            workers[successor].adopt_shared_state(state)
            if probes:
                workers[successor].accept(probes, now)
            return
        assert payload == ("round",), payload
        for i in sorted(self.dirty):
            w = workers[i]
            probes = w.rotate() if w.queue.rotating else ()
            sim.send(self.eid, ("rotation", (i + 1) % len(workers), probes,
                                w.known_state), now)
            sim.counters["rotation_messages"] += 1
        self.dirty.clear()
        if len(sim.records) < sim.total_jobs:
            sim.schedule_at(now + sim.config.rotation_interval_us, self.eid,
                            ("round",))
