"""Differential test of a Peacock worker's probe arrival against
``reference_worker``.

The production ``PeacockWorker.accept`` places an arriving batch with one
``WaitingQueue.enqueue_all`` call; the reference makes one ``enqueue``
call per probe.  Peacock runs on tiny systems through ``driver``, once
with each worker, must give the same reports, job records and counters,
and must send every message at the same instant, to the same entity, in
the same order and with the same fields (a probe as its key).  The
systems are ``tied_systems`` with idle gaps, so ring rounds hand batches
of probes to idle, reserved and busy workers under changing quotas.
"""

from unittest import mock

from hypothesis import given, settings

from peacock_sim import driver
from reference_worker import ReferenceWorker
from test_engine_reference import tied_systems
from test_ring_reference import run_peacock


@settings(max_examples=300, deadline=None)
@given(tied_systems(idle_gaps=True))
def test_tiny_systems_match_the_reference_worker(system):
    config, jobs = system
    batched = run_peacock(config, jobs)
    with mock.patch.object(driver, "PeacockWorker", ReferenceWorker):
        per_probe = run_peacock(config, jobs)
    assert batched == per_probe
