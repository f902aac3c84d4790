"""The benchmark's three workloads.

Each workload is built from ``--seed`` alone (plus an optional job-count
override used by the tests), so the same seed always yields the same
inputs.  The simulator only ever receives the generated records: the
synthetic workloads come from ``workload.generate``, and ``dag-replay``
is written to a gzipped trace by this module's own generator and read
back through ``workload.load_trace``.
"""

import gzip
import json
import math
import random
from dataclasses import dataclass

from peacock_sim import workload
from peacock_sim.engine import SimConfig

US = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    schedulers: int
    load: float
    #: Each run pools ``parts`` inputs of ``jobs`` jobs; see run.py.
    parts: int
    jobs: int
    #: Extra ``SyntheticSpec`` fields; None marks the DAG trace workload.
    spec: dict = None

    def config(self, algo, seed):
        return SimConfig(workers=self.workers, schedulers=self.schedulers,
                         seed=seed, algo=algo)


WORKLOADS = {
    # Criterion-8 shape: queues grow long, so Peacock's time goes to
    # elastic-queue enqueues, rotation rounds and peer updates.  Many short
    # inputs rather than a few long ones, so that each timed step is short
    # enough for the yardstick in run.py to follow the machine's speed.
    "overload": Workload(
        "overload", workers=500, schedulers=4, load=2.0, parts=8, jobs=2000,
        spec=dict(mean_tasks=6.0, duration_model="two_class",
                  short_duration_us=3 * US, long_duration_us=200 * US,
                  short_fraction=0.95)),
    # Many workers at light load: queues stay near empty, so enqueue is
    # bypassed, while tick cost still scales with W and Eagle's central
    # placer scans the whole general partition per long task.
    "sparse-ring": Workload(
        "sparse-ring", workers=2000, schedulers=2, load=0.3, parts=8,
        jobs=1500,
        spec=dict(duration_model="lognormal", mean_duration_us=2 * US)),
    # Multi-stage DAG jobs of sub-second tasks replayed from a trace:
    # admissions come mostly from stage readiness in task_finish, and
    # tasks are shorter than the rotation interval.  Peacock's queues are
    # unstable here, so its AJCT grows with the job count and varies widely
    # between inputs; more, smaller inputs keep the pooled figures steady.
    "dag-replay": Workload(
        "dag-replay", workers=100, schedulers=2, load=0.9, parts=8,
        jobs=2000),
}

# dag-replay job shape: 2-5 stages, a geometric number of tasks per stage,
# lognormal task durations.
DAG_MIN_STAGES, DAG_MAX_STAGES = 2, 5
DAG_MEAN_TASKS_PER_STAGE = 3.0
DAG_MEAN_DURATION_US = 300_000
DAG_SIGMA = 1.0


def _geometric(rng, mean):
    """At least 1, with the given mean."""
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - 1.0 / mean))


def dag_jobs(seed, jobs, workers, load):
    """Arrival-stamped DAG jobs as trace-line dicts.

    Every stage after the first depends on one or two earlier stages.
    Arrivals are Poisson, calibrated so that offered work is ``load``
    times the capacity of ``workers`` single-slot workers.
    """
    rng = random.Random("dag-replay/%d" % seed)
    mu = math.log(DAG_MEAN_DURATION_US) - DAG_SIGMA ** 2 / 2.0
    mean_tasks = (DAG_MIN_STAGES + DAG_MAX_STAGES) / 2.0 \
        * DAG_MEAN_TASKS_PER_STAGE
    mean_gap = mean_tasks * DAG_MEAN_DURATION_US / (load * workers)
    lines = []
    t = 0.0
    for i in range(jobs):
        stages = []
        for s in range(rng.randint(DAG_MIN_STAGES, DAG_MAX_STAGES)):
            n = _geometric(rng, DAG_MEAN_TASKS_PER_STAGE)
            durations = [max(1, round(rng.lognormvariate(mu, DAG_SIGMA)))
                         for _ in range(n)]
            deps = sorted(rng.sample(range(s), min(s, rng.randint(1, 2))))
            stages.append({"durations_us": durations, "deps": deps})
        lines.append({"id": "d%d" % i, "submit_us": int(t), "stages": stages})
        t += rng.expovariate(1.0 / mean_gap)
    return lines


def write_dag_trace(path, seed, jobs, workers, load):
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"schema": workload.SCHEMA}) + "\n")
        for line in dag_jobs(seed, jobs, workers, load):
            fh.write(json.dumps(line) + "\n")


def setup_step(wl, seed, jobs, trace_path):
    """Return a no-argument callable that produces the workload's records;
    this is the step ``setup_s`` times."""
    if wl.spec is None:
        def load():
            records, dropped = workload.load_trace(trace_path)
            if dropped:
                raise ValueError("trace pruned %d valid jobs" % dropped)
            return records
        return load
    spec = workload.SyntheticSpec(load=wl.load, job_count=jobs, seed=seed,
                                  **wl.spec)
    return lambda: workload.generate(spec, wl.workers)
