"""Differential test of the ring round against ``reference_ring``.

The production ``Ring`` delivers a round's hand-offs as one event a
network delay after the round; the reference sends one ``rotation``
message per dirty worker.  Peacock runs on tiny systems through ``driver``
with each ring must give the same reports, job records and counters, and
must send every other message at the same instant, to the same entity, in
the same order and with the same fields (a probe as its key, an entity as
its index or sid).  The systems
are ``tied_systems`` with idle gaps of many rotation intervals, and their
network delays include 0, below the interval, equal to it and twice it, so
that a round's hand-offs often land at the instant of a later round, of a
task completion or of a job arrival.
"""

from unittest import mock

from hypothesis import given, settings

from peacock_sim import driver
from peacock_sim.engine import SimConfig, Simulation
from peacock_sim.probes import Probe
from peacock_sim.scheduler import PeacockScheduler
from peacock_sim.worker import PeacockWorker
from reference_queue import probe_key
from reference_ring import ReferenceRing
from test_engine_reference import tied_systems
from test_system_properties import serialized


def label(x):
    """``x`` as it can be compared across runs: a probe as its key, a worker
    or a scheduler as its index or sid."""
    if isinstance(x, Probe):
        return probe_key(x)
    if isinstance(x, PeacockWorker):
        return ("worker", x.index)
    if isinstance(x, PeacockScheduler):
        return ("scheduler", x.sid)
    return x


def run_peacock(config, jobs):
    """The run's serialized report and records, its counters, and every
    message it sends but the reference ring's own ``rotation`` ones."""
    sends = []
    send = Simulation.send

    def recording_send(sim, target, payload, now_us):
        if payload[0] != "rotation":
            sends.append((now_us, label(target))
                         + tuple(label(x) for x in payload))
        return send(sim, target, payload, now_us)

    with mock.patch.object(Simulation, "send", recording_send):
        result = driver.run_simulation(SimConfig(algo="peacock", **config),
                                       jobs)
    return serialized(result), result.counters, sends


@settings(max_examples=300, deadline=None)
@given(tied_systems(idle_gaps=True))
def test_tiny_systems_match_the_reference_ring(system):
    config, jobs = system
    batched = run_peacock(config, jobs)
    with mock.patch.object(driver, "Ring", ReferenceRing):
        per_message = run_peacock(config, jobs)
    assert batched == per_message
