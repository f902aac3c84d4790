"""Whole-system property fuzz: all three algorithms on tiny random systems
with small DAG traces.

Each run must launch and finish every task exactly once, launch as many
tasks of each job as it has (its record holds one rotation count per
launch), keep workers busy for exactly the offered work, finish no job
faster than its critical path, raise no SimulationError or ProtocolError
(the driver also checks quiescence before it returns), and serialize to
the same bytes when run again.  In Peacock's runs, no idle worker may
hold queued probes after any event.  The network delay is drawn up to the
rotation interval and is often 0 or equal to it.
"""

import contextlib
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from peacock_sim.driver import run_simulation
from peacock_sim.engine import SimConfig
from peacock_sim.metrics import summarize
from peacock_sim.worker import PeacockWorker, Ring
from peacock_sim.workload import Stage, TraceRecord

US = 1_000_000


@st.composite
def stages(draw):
    count = draw(st.integers(1, 3))
    return [Stage(draw(st.lists(st.integers(1, 5 * US), min_size=1,
                                max_size=3)),
                  sorted(draw(st.sets(st.integers(0, i - 1), max_size=i)))
                  if i else [])
            for i in range(count)]


@st.composite
def systems(draw):
    interval = draw(st.integers(US // 10, 2 * US))
    # Eagle keeps round(0.15 * W) short workers: 0 or 1 up to W = 9, and
    # 2 from W = 10.
    config = dict(workers=draw(st.integers(1, 14)),
                  schedulers=draw(st.integers(1, 4)),
                  rotation_interval_us=interval,
                  net_delay_us=draw(st.sampled_from([0, interval])
                                    | st.integers(0, interval)),
                  seed=draw(st.integers(0, 2 ** 16)))
    jobs = [TraceRecord(i, draw(st.integers(0, 10 * US)), draw(stages()))
            for i in range(draw(st.integers(1, 6)))]
    return config, jobs


@contextlib.contextmanager
def idle_workers_hold_no_queue():
    """After every event that ``PeacockWorker.handle`` or ``Ring.handle``
    handles, the only two that change a worker's slot or queue, require
    every Peacock worker with an idle slot to have an empty queue.
    ``PeacockWorker.accept`` relies on this: only the first probe of a
    batch can find the slot idle.  Yields the list of events checked."""
    checked = []

    def checking(handle):
        def checked_handle(entity, payload, now):
            handle(entity, payload, now)
            for w in entity.sim.entities:
                if isinstance(w, PeacockWorker):
                    assert w.slot is not None or not w.queue.entries, (
                        "idle worker %d holds %d queued probes after %r at %d"
                        % (w.index, len(w.queue.entries), payload[0], now))
            checked.append(payload[0])
        return checked_handle

    with mock.patch.object(PeacockWorker, "handle",
                           checking(PeacockWorker.handle)), \
            mock.patch.object(Ring, "handle", checking(Ring.handle)):
        yield checked


def serialized(result):
    report = summarize(result.records, result.counters, result.workers)
    return json.dumps({"report": report.to_dict(),
                       "records": [r.to_dict() for r in result.records]},
                      sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_tiny_systems_conserve_work_and_respect_critical_paths(system):
    config, jobs = system
    tasks = sum(j.task_count for j in jobs)
    work = sum(j.total_work_us for j in jobs)
    paths = {j.job_id: j.critical_path_us() for j in jobs}
    task_counts = {j.job_id: j.task_count for j in jobs}
    for algo in ("peacock", "sparrow", "eagle"):
        if algo == "peacock":
            with idle_workers_hold_no_queue() as checked:
                result = run_simulation(SimConfig(algo=algo, **config), jobs)
            assert checked
        else:
            result = run_simulation(SimConfig(algo=algo, **config), jobs)
        counters = result.counters
        assert counters["tasks_launched"] == counters["tasks_finished"] \
            == tasks, algo
        assert counters["busy_us"] == work, algo
        assert sorted(r.job_id for r in result.records) == sorted(paths)
        for r in result.records:
            assert r.jct_us >= paths[r.job_id], (algo, r)
            assert len(r.rotations) == task_counts[r.job_id], (algo, r)
        again = run_simulation(SimConfig(algo=algo, **config), jobs)
        assert serialized(again) == serialized(result), algo
