"""Builds a simulation for one algorithm, runs it to quiescence, and
verifies the run-wide invariants before handing back results."""

from dataclasses import dataclass

from .baselines import (SHORT_FRACTION, EagleCentral, EagleScheduler,
                        EagleWorker, SparrowScheduler, SparrowWorker)
from .engine import SimConfig, Simulation, SimulationError, derived_rng
from .scheduler import PeacockScheduler
from .worker import PeacockWorker, Ring
from .workload import id_problem, stage_problem


@dataclass
class RunResult:
    config: SimConfig
    records: list
    counters: dict

    @property
    def workers(self):
        return self.config.workers


def _build_peacock(sim, config):
    workers = [PeacockWorker(sim, i) for i in range(config.workers)]
    schedulers = [PeacockScheduler(sim, s, workers,
                                   derived_rng(config.seed, "scheduler", s))
                  for s in range(config.schedulers)]
    for s in schedulers:
        s.peers = [p for p in schedulers if p is not s]
    sim.schedule_at(config.rotation_interval_us, Ring(sim, workers),
                    ("round",))
    return workers, schedulers


def _build_sparrow(sim, config):
    workers = [SparrowWorker(sim, i) for i in range(config.workers)]
    schedulers = [SparrowScheduler(sim, s, workers,
                                   derived_rng(config.seed, "scheduler", s))
                  for s in range(config.schedulers)]
    return workers, schedulers


def _build_eagle(sim, config):
    W = config.workers
    # One short worker at least once W >= 2; SHORT_FRACTION = 0.15 always
    # leaves general ones.
    short_count = max(1, round(SHORT_FRACTION * W)) if W > 1 else 0
    workers = [EagleWorker(sim, i) for i in range(W)]
    short_workers = workers[:short_count] or workers
    central = EagleCentral(sim, workers[short_count:])
    for w in workers:
        w.short_workers = short_workers
        w.central = central
    schedulers = [EagleScheduler(sim, s, workers,
                                 derived_rng(config.seed, "scheduler", s),
                                 central)
                  for s in range(config.schedulers)]
    return workers, schedulers


_BUILDERS = {"peacock": _build_peacock,
             "sparrow": _build_sparrow,
             "eagle": _build_eagle}


def run_simulation(config, records):
    """Run one algorithm over a workload; returns a RunResult.

    Jobs are assigned to schedulers round-robin.  Raises SimulationError
    before any event runs if ``workload.id_problem`` rejects a record's
    id, if its submit time is not a non-negative ``int``, if
    ``workload.stage_problem`` finds its stages cannot run, or if
    ``event_cap`` is below the fewest events the workload needs: one per
    job (its arrival), one per stage (its first probe or long-stage
    placement) and four per task (``task_request``, ``assign``,
    ``complete`` and ``task_finish``); and after the run if it ends in a
    non-quiescent state.
    """
    sim = Simulation(config)
    workers, schedulers = _BUILDERS[config.algo](sim, config)
    sim.total_jobs = len(records)
    needed = len(records)
    printed_ids = set()
    for i, record in enumerate(records):
        job_id, submit_us = record.job_id, record.submit_us
        stages = record.stages
        problem = id_problem(job_id, printed_ids)
        if problem is not None:
            raise SimulationError(problem)
        if type(submit_us) is not int or submit_us < 0:
            raise SimulationError("job %r: submit time %r is not a "
                                  "non-negative integer" % (job_id, submit_us))
        problem = stage_problem(stages)
        if problem is not None:
            raise SimulationError("job %r%s" % (job_id, problem))
        needed += len(stages) + 4 * record.task_count
        sim.schedule_at(submit_us, schedulers[i % len(schedulers)],
                        ("job", record))
    if config.event_cap < needed:
        raise SimulationError(
            "event_cap %d is below %d, the fewest events these %d jobs need "
            "(jobs + stages + 4 x tasks)"
            % (config.event_cap, needed, len(records)))
    sim.run()
    _check_quiescence(sim, workers, schedulers)
    sim.records.sort(key=lambda r: str(r.job_id))
    return RunResult(config=config, records=sim.records,
                     counters=dict(sim.counters))


def _check_quiescence(sim, workers, schedulers):
    total = sim.total_jobs
    if len(sim.records) != total:
        raise SimulationError("run ended with %d of %d jobs incomplete"
                              % (total - len(sim.records), total))
    for s in schedulers:
        if isinstance(s, PeacockScheduler) and (s.probe_count or s.load_us):
            raise SimulationError(
                "scheduler %d aggregate not drained: (%d, %d)"
                % (s.sid, s.probe_count, s.load_us))
        for job_id, job in s.jobs.items():
            if job is not None:
                raise SimulationError("scheduler %d still holds the state "
                                      "of job %r" % (s.sid, job_id))
    for w in workers:
        if w.slot is not None:
            raise SimulationError("worker %d not idle at quiescence" % w.index)
        if len(w.queue) or (isinstance(w, PeacockWorker) and w.queue.rotating):
            raise SimulationError("worker %d still holds probes" % w.index)
    if sim.counters["tasks_launched"] != sim.counters["tasks_finished"]:
        raise SimulationError("launch/finish mismatch")
