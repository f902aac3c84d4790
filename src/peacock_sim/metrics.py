"""Per-job records, run reports, and cross-run comparison."""

import bisect
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add

from .engine import US_PER_S

#: Evenly spaced JCT points, from the least to the greatest, in a report's CDF.
CDF_POINTS = 100


@dataclass(slots=True)
class JobRecord:
    """One job's outcome.  Its scheduler fills it in while the job runs;
    it is final once it is in ``sim.records``."""

    job_id: object
    scheduler: int
    arrival_us: int
    completion_us: int
    rotations: list = field(default_factory=list)

    @property
    def jct_us(self):
        return self.completion_us - self.arrival_us

    def to_dict(self):
        """The fields and ``jct_us`` by name; nested values are the
        record's own, not copies."""
        return {"job_id": self.job_id, "scheduler": self.scheduler,
                "arrival_us": self.arrival_us,
                "completion_us": self.completion_us,
                "jct_us": self.jct_us, "rotations": self.rotations}


@dataclass
class Report:
    jobs: int
    ajct_s: float
    percentiles_s: dict
    cdf: list                 # [(jct_s, cumulative fraction), ...]
    mean_rotations_per_probe: float
    mean_rotations_per_task: float
    utilization: float
    makespan_s: float
    counters: dict

    def to_dict(self):
        """The fields by name; nested values are the report's own, not
        copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def percentile(sorted_values, q):
    """Linear-interpolation percentile of a pre-sorted list, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("empty sample")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def summarize(records, counters, workers):
    """Aggregate job records and run counters into a Report.

    Returns None when there are no records.
    """
    if not records:
        return None
    jcts = sorted(r.jct_us / US_PER_S for r in records)
    # Added left to right, as sum() did before Python 3.12 made it
    # compensated: the report's bytes must not depend on the Python version.
    ajct = reduce(add, jcts, 0.0) / len(jcts)
    pcts = {q: percentile(jcts, q) for q in (50, 70, 90, 99)}

    cdf = []
    lo, hi = jcts[0], jcts[-1]
    span = hi - lo
    n = len(jcts)
    for i in range(CDF_POINTS):
        x = lo + span * i / (CDF_POINTS - 1)
        # fraction of jobs with JCT <= x
        count = bisect.bisect_right(jcts, x)
        cdf.append((x, count / n))

    hop_total = sum(sum(r.rotations) for r in records)
    probe_total = sum(len(r.rotations) for r in records)
    task_total = counters.get("tasks_finished", probe_total) or probe_total
    per_probe = hop_total / probe_total if probe_total else 0.0
    per_task = hop_total / task_total if task_total else 0.0

    end_us = max(r.completion_us for r in records)
    busy_us = counters.get("busy_us", 0)
    util = busy_us / (workers * end_us) if end_us else 0.0

    return Report(jobs=len(records), ajct_s=ajct, percentiles_s=pcts,
                  cdf=cdf, mean_rotations_per_probe=per_probe,
                  mean_rotations_per_task=per_task, utilization=util,
                  makespan_s=end_us / US_PER_S, counters=dict(counters))


def fraction_faster(records_a, records_b):
    """Per-job JCT comparison between two runs of the same workload.

    Returns ``(frac_a, frac_b, ties)`` summing exactly to 1.  The runs must
    cover identical job sets.
    """
    by_id_a = {r.job_id: r.jct_us for r in records_a}
    by_id_b = {r.job_id: r.jct_us for r in records_b}
    if by_id_a.keys() != by_id_b.keys():
        raise ValueError("runs cover different job sets")
    if not by_id_a:
        raise ValueError("empty runs cannot be compared")
    a = b = ties = 0
    for jid, jct_a in by_id_a.items():
        jct_b = by_id_b[jid]
        if jct_a < jct_b:
            a += 1
        elif jct_b < jct_a:
            b += 1
        else:
            ties += 1
    n = len(by_id_a)
    return a / n, b / n, ties / n
