"""Trace ingestion and synthetic workload generation.

Trace files are line-delimited JSON, one job per line, with all durations
and timestamps in integer microseconds:

    {"id": "j1", "submit_us": 0, "stages": [{"durations_us": [...], "deps": []}]}

An optional header line ``{"schema": "peacock-trace-1"}`` carries the
format version.  ``stages``, ``durations_us`` and ``deps`` must be arrays;
an absent ``deps`` means none, and a dep may name a later stage as long
as the deps form no cycle.  ``submit_us`` may be omitted; arrivals can
then be generated by a Poisson process calibrated to a target load.
Files ending in ``.gz`` are transparently decompressed.
"""

import gzip
import json
import math
import sys
import zlib
from dataclasses import dataclass

from .engine import US_PER_S, derived_rng

SCHEMA = "peacock-trace-1"


class TraceError(ValueError):
    """Malformed trace file."""


class LoadError(ValueError):
    """A target load that gives no positive, finite mean arrival gap."""


@dataclass(slots=True)
class Stage:
    durations_us: tuple
    deps: tuple = ()


@dataclass(slots=True)
class TraceRecord:
    """One job.  ``load_trace`` and ``generate`` build its ``stages``,
    and each stage's ``durations_us`` and ``deps``, as exact-size tuples.
    The simulator only iterates, indexes and measures them, so a record
    built by hand may hold lists."""

    job_id: object
    submit_us: int = None
    stages: tuple = ()

    @property
    def task_count(self):
        return sum(len(s.durations_us) for s in self.stages)

    @property
    def total_work_us(self):
        return sum(sum(s.durations_us) for s in self.stages)

    def critical_path_us(self):
        """Longest chain of per-stage longest tasks through the DAG,
        summed in a topological order.  Raises ValueError if the deps
        form a cycle."""
        stages = self.stages
        n = len(stages)
        order = topological_order(stages)
        if len(order) < n:
            raise ValueError("stage deps form a cycle")
        finish = [0] * n
        for i in order:
            stage = stages[i]
            finish[i] = (max([finish[d] for d in stage.deps], default=0)
                         + max(stage.durations_us))
        return max(finish)


_decode = json.JSONDecoder().decode


def _not(kind, name, value):
    """The error for a ``name`` whose ``value`` is not ``kind``."""
    return TraceError("%s %s is not %s" % (name, json.dumps(value), kind))


def _parse_stages(stages):
    """Build a record's stages from its decoded ``stages`` array.

    Returns ``(stages, valid)``: a tuple of Stage whose ``durations_us``
    and ``deps`` are tuples, a stage with no deps holding the shared
    ``()``, and whether ``stage_problem`` passes them.  A wrong shape
    raises TraceError and a missing key KeyError, also in a job that is
    pruned.  An element that is not an integer is a problem too, so its
    TraceError is looked for only in a job ``stage_problem`` rejects.
    """
    if type(stages) is not list:
        raise _not("an array", "stages", stages)
    built = []
    for stage in stages:
        if type(stage) is not dict:
            raise _not("an object", "stage", stage)
        durations = stage["durations_us"]
        if type(durations) is not list:
            raise _not("an array", "durations_us", durations)
        deps = ()
        if "deps" in stage:
            listed = stage["deps"]
            if type(listed) is not list:
                raise _not("an array", "deps", listed)
            if listed:
                deps = tuple(listed)
        built.append(Stage(tuple(durations), deps))
    built = tuple(built)
    if stage_problem(built) is None:
        return built, True
    for stage in built:
        for name, values in (("duration", stage.durations_us),
                             ("dep", stage.deps)):
            for v in values:
                if type(v) is not int:
                    raise _not("an integer", name, v)
    return built, False


def stage_problem(stages):
    """None if a job's ``stages`` can run, or else the rest of an error
    sentence that starts with the job's id (" has no stages", ": stage
    deps form a cycle").  The one rule that ``load_trace`` prunes by and
    ``driver.run_simulation`` raises on.  The cycle check runs only when
    a dep points at or after its own stage."""
    if not stages:
        return " has no stages"
    n = len(stages)
    forward = False
    for i, stage in enumerate(stages):
        durations = stage.durations_us
        if not durations:
            return " has an empty stage"
        for d in durations:
            if type(d) is not int or d <= 0:
                return ": duration %r is not a positive integer" % (d,)
        for d in stage.deps:
            if type(d) is not int or not 0 <= d < n:
                return ": dep %r is not a stage index" % (d,)
            if d >= i:
                forward = True
    if forward and len(topological_order(stages)) < n:
        return ": stage deps form a cycle"
    return None


def id_problem(job_id, printed_ids):
    """None after adding ``job_id`` as printed to ``printed_ids``, or the
    error if it cannot name a new job; 1 and "1" name the same one.  The
    one id rule of ``load_trace`` and ``driver.run_simulation``."""
    if type(job_id) is not str and type(job_id) is not int:
        return "job id %r is not a string or an integer" % (job_id,)
    printed = str(job_id)
    if printed in printed_ids:
        return "duplicate job id %r" % (job_id,)
    printed_ids.add(printed)
    return None


def topological_order(stages):
    """The indices of ``stages`` in an order where each follows its deps
    (Kahn's algorithm).  Stages on or behind a cycle are left out, so the
    order is shorter than ``stages`` exactly when the deps form a cycle.
    Each stage counts its deps, a repeated dep once per listing, and is
    released when its count falls to 0, so the cost is linear in stages
    plus deps.  Deps must be in range."""
    waiting = {}
    dependents = {}
    order = []
    for i, stage in enumerate(stages):
        deps = stage.deps
        if deps:
            waiting[i] = len(deps)
            for d in deps:
                dependents.setdefault(d, []).append(i)
        else:
            order.append(i)
    for i in order:             # grows as stages are released
        for j in dependents.get(i, ()):
            waiting[j] -= 1
            if not waiting[j]:
                order.append(j)
    return order


def load_trace(path):
    """Parse a trace file.

    Returns ``(records, dropped)`` where ``dropped`` counts invalid jobs
    that were pruned.  Malformed lines, missing keys and values of the
    wrong type are fatal and reported with their line number; a file that
    cannot be opened, decompressed or decoded as UTF-8 is reported with
    its path.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            return _parse_lines(fh)
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise TraceError("%s: %s" % (path, exc)) from exc


def _parse_lines(lines):
    """``load_trace`` on the lines of an open trace file."""
    records = []
    dropped = 0
    printed_ids = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _decode(line)
        except json.JSONDecodeError as exc:
            raise TraceError("line %d: invalid JSON (%s)" % (lineno, exc))
        try:
            if type(obj) is not dict:
                raise _not("an object", "record", obj)
            if "schema" in obj and "id" not in obj:
                if obj["schema"] != SCHEMA:
                    raise TraceError("unsupported schema %r" % (obj["schema"],))
                continue
            job_id = obj["id"]
            stages, valid = _parse_stages(obj["stages"])
        except KeyError as exc:
            raise TraceError("line %d: missing %s"
                             % (lineno, json.dumps(exc.args[0]))) from None
        except TraceError as exc:
            raise TraceError("line %d: %s" % (lineno, exc)) from None
        problem = id_problem(job_id, printed_ids)
        if problem is not None:
            raise TraceError("line %d: %s" % (lineno, problem))
        submit = obj.get("submit_us")
        if submit is not None and (type(submit) is not int or submit < 0):
            raise TraceError("line %d: submit_us %r is not a non-negative "
                             "integer" % (lineno, submit))
        if valid:
            records.append(TraceRecord(job_id, submit, stages))
        else:
            dropped += 1
    return records, dropped


def save_trace(records, path):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        fh.write(json.dumps({"schema": SCHEMA}) + "\n")
        for r in records:
            obj = {"id": r.job_id,
                   "stages": [{"durations_us": s.durations_us,
                               "deps": s.deps} for s in r.stages]}
            if r.submit_us is not None:
                obj["submit_us"] = r.submit_us
            fh.write(json.dumps(obj) + "\n")


def mean_interarrival_us(load, workers, mean_tasks, mean_duration_us):
    """Mean job inter-arrival time so offered work equals ``load`` times
    cluster capacity (``workers`` single-slot workers)."""
    if load <= 0 or workers < 1 or mean_tasks <= 0 or mean_duration_us <= 0:
        raise ValueError("all calibration inputs must be positive")
    gap = mean_tasks * mean_duration_us / (load * workers)
    if not (gap > 0 and math.isfinite(gap)):
        raise LoadError("load %r on %d workers gives a mean inter-arrival "
                        "gap of %r us, which is not positive and finite"
                        % (load, workers, gap))
    return gap


def clock_overflow(load, workers):
    """The ``LoadError`` for an arrival clock that summed past the largest
    float, where ``int`` of its time raises ``OverflowError``."""
    return LoadError("load %r on %d workers drives the arrival clock past "
                     "the largest float" % (load, workers))


@dataclass
class SyntheticSpec:
    """Synthetic workload: Poisson arrivals at a target average load.

    ``duration_model`` is "lognormal" (heavy-tailed, ``mean_duration_us``
    and ``sigma``) or "two_class" (a short/long mix for head-of-line
    blocking experiments).
    """

    load: float
    job_count: int
    seed: int = 0
    mean_tasks: float = 8.0
    duration_model: str = "lognormal"
    mean_duration_us: int = 2 * US_PER_S
    sigma: float = 1.0
    short_fraction: float = 0.9
    short_duration_us: int = 1 * US_PER_S
    long_duration_us: int = 10 * US_PER_S

    def __post_init__(self):
        if not 0 < self.load < math.inf:
            raise ValueError("load %r is not positive and finite"
                             % (self.load,))
        # As in SimConfig, a bool is not an integer.  derived_rng formats
        # the seed with %d, so a fractional one would pass as another seed.
        if type(self.job_count) is not int or self.job_count < 1:
            raise ValueError("job_count %r is not an integer of at least 1"
                             % (self.job_count,))
        if type(self.seed) is not int:
            raise ValueError("seed %r is not an integer" % (self.seed,))
        # A job has at least one task, so a lower mean would be missed.
        if not 1 <= self.mean_tasks < math.inf:
            raise ValueError("mean_tasks %r is not finite and at least 1"
                             % (self.mean_tasks,))
        # _sample_tasks divides by this log, which is 0.0 from 2 ** 54 up.
        if self.mean_tasks > 1 and math.log(1.0 - 1.0 / self.mean_tasks) == 0:
            raise ValueError("mean_tasks %r is too large to sample a task "
                             "count from" % (self.mean_tasks,))
        if self.duration_model not in ("lognormal", "two_class"):
            raise ValueError("unknown duration model %r" % self.duration_model)
        if self.duration_model == "lognormal":
            if not 0 < self.mean_duration_us < math.inf:
                raise ValueError("mean_duration_us %r is not positive and "
                                 "finite" % (self.mean_duration_us,))
            # _sample_durations takes sigma ** 2 as a float.
            if not (0 <= self.sigma
                    and self.sigma * self.sigma <= sys.float_info.max):
                raise ValueError("sigma %r is not at least 0 with a finite "
                                 "square" % (self.sigma,))
        else:
            if not 0 <= self.short_fraction <= 1:
                raise ValueError("short_fraction %r is not within [0, 1]"
                                 % (self.short_fraction,))
            # Both are task durations as they stand, so whole microseconds.
            for name in ("short_duration_us", "long_duration_us"):
                value = getattr(self, name)
                if type(value) is not int or value < 1:
                    raise ValueError("%s %r is not a positive integer"
                                     % (name, value))

    @property
    def model_mean_duration_us(self):
        if self.duration_model == "lognormal":
            return float(self.mean_duration_us)
        return (self.short_fraction * self.short_duration_us
                + (1.0 - self.short_fraction) * self.long_duration_us)


def _sample_tasks(rng, mean_tasks):
    """Geometric task count with the given mean, minimum 1."""
    if mean_tasks <= 1.0:
        return 1
    p = 1.0 / mean_tasks
    u = rng.random()
    return 1 + int(math.log(u) / math.log(1.0 - p))


def _sample_durations(rng, spec, count):
    if spec.duration_model == "lognormal":
        mu = math.log(spec.mean_duration_us) - spec.sigma ** 2 / 2.0
        samples = (rng.lognormvariate(mu, spec.sigma) for _ in range(count))
        return tuple([max(1, int(round(d))) for d in samples])
    # Two-class mix: the class is drawn per job, so a job is wholly short
    # or wholly long (what drives head-of-line blocking between jobs).
    if rng.random() < spec.short_fraction:
        return (spec.short_duration_us,) * count
    return (spec.long_duration_us,) * count


def generate(spec, workers):
    """Generate arrival-stamped single-stage jobs, as records of tuples.

    Deterministic under ``spec.seed``; the empirical offered load converges
    to ``spec.load`` as the job count grows.
    """
    rng = derived_rng(spec.seed, "workload")
    mean_gap = mean_interarrival_us(
        spec.load, workers, spec.mean_tasks, spec.model_mean_duration_us)
    records = []
    t = 0.0
    for i in range(spec.job_count):
        n = _sample_tasks(rng, spec.mean_tasks)
        durations = _sample_durations(rng, spec, n)
        try:
            submit_us = int(t)
        except OverflowError:
            raise clock_overflow(spec.load, workers) from None
        records.append(TraceRecord(job_id=i, submit_us=submit_us,
                                   stages=(Stage(durations),)))
        t += rng.expovariate(1.0 / mean_gap)
    return records
