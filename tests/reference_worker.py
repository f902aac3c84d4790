"""Reference model of a Peacock worker's probe arrival, one enqueue per
probe.

``ReferenceWorker.accept`` takes a batch of arriving probes one at a time:
a probe that finds the slot idle and the queue empty reserves the slot,
and every other probe goes through its own ``WaitingQueue.enqueue`` call,
which places it and trims the queue.  The production ``PeacockWorker``
places a batch with one ``enqueue_all`` call; both must give the same
reports, job records and messages.  Used as the oracle for randomized
equivalence tests.
"""

from peacock_sim.worker import PeacockWorker


class ReferenceWorker(PeacockWorker):
    """``PeacockWorker`` with ``accept`` replaced by the per-probe loop."""

    def accept(self, probes, now):
        queue = self.queue
        state = self.known_state
        idle = self.slot is None
        finish_us = self.finish_us
        delta = 0 if finish_us is None else finish_us - now
        for probe in probes:
            if idle and not queue.entries:
                self._reserve(probe, now)
                idle = False
            else:
                queue.enqueue(probe, now, delta, state)
        if queue.rotating:
            self.dirty.add(self.index)
