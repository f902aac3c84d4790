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
import random
import zlib
from dataclasses import dataclass, field

from .engine import US_PER_S, derived_rng

SCHEMA = "peacock-trace-1"


class TraceError(ValueError):
    """Malformed trace file."""


class LoadError(ValueError):
    """A target load that gives no positive, finite mean arrival gap."""


@dataclass(slots=True)
class Stage:
    durations_us: list
    deps: list = field(default_factory=list)


@dataclass(slots=True)
class TraceRecord:
    job_id: object
    submit_us: int = None
    stages: list = field(default_factory=list)

    @property
    def task_count(self):
        return sum(len(s.durations_us) for s in self.stages)

    @property
    def total_work_us(self):
        return sum(sum(s.durations_us) for s in self.stages)

    def critical_path_us(self):
        """Longest chain of per-stage longest tasks through the DAG."""
        memo = {}

        def longest(i):
            if i not in memo:
                stage = self.stages[i]
                base = max(longest(d) for d in stage.deps) if stage.deps else 0
                memo[i] = base + max(stage.durations_us)
            return memo[i]

        return max(longest(i) for i in range(len(self.stages)))


_decode = json.JSONDecoder().decode


def _not(kind, name, value):
    """The error for a ``name`` whose ``value`` is not ``kind``."""
    return TraceError("%s %s is not %s" % (name, json.dumps(value), kind))


def _parse_stages(stages):
    """Build a record's stages from its decoded ``stages`` array.

    Returns ``(stages, valid)``.  A job is invalid, and pruned, if it has
    no stages, an empty stage, a non-positive duration, a dep out of range
    or cyclic deps.  A value of the wrong type raises TraceError, also in
    an invalid job; a missing key raises KeyError.  The arrays ``json``
    returned are kept, not copied.

    Acyclicity is checked by sweeps in index order: a stage is marked once
    all its deps are marked, and a sweep that marks nothing leaves only
    stages on or behind a cycle.  The first sweep is this walk over the
    stages, so a job whose deps all point to earlier stages needs no
    other; deps that point forward are valid when acyclic.
    """
    if type(stages) is not list:
        raise _not("an array", "stages", stages)
    n = len(stages)
    valid = n > 0
    marked = [False] * n
    unmarked = []
    built = []
    for i, stage in enumerate(stages):
        if type(stage) is not dict:
            raise _not("an object", "stage", stage)
        durations = stage["durations_us"]
        if type(durations) is not list:
            raise _not("an array", "durations_us", durations)
        if not durations:
            valid = False
        for d in durations:
            if type(d) is not int:
                raise _not("an integer", "duration", d)
            if d <= 0:
                valid = False
        if "deps" in stage:
            deps = stage["deps"]
            if type(deps) is not list:
                raise _not("an array", "deps", deps)
        else:
            deps = []
        ready = True
        for d in deps:
            if type(d) is not int:
                raise _not("an integer", "dep", d)
            if not 0 <= d < n:
                valid = False
            elif not marked[d]:
                ready = False
        if ready:
            marked[i] = True
        else:
            unmarked.append(i)
        built.append(Stage(durations, deps))
    return built, valid and acyclic(built, marked, unmarked)


def acyclic(stages, marked, unmarked):
    """Whether in-range deps form no cycle, by the sweeps of
    ``_parse_stages`` over the stage indices ``unmarked``, in order:
    ``marked[i]`` is set once all of stage i's deps are marked.  Pass
    ``[False] * len(stages)`` and every index to sweep from scratch."""
    while unmarked:
        left = []
        for i in unmarked:
            if all(marked[d] for d in stages[i].deps):
                marked[i] = True
            else:
                left.append(i)
        if len(left) == len(unmarked):
            return False
        unmarked = left
    return True


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
    seen_ids = set()
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
        # Ids are compared as printed: 1 and "1" name the same job.
        if type(job_id) is str:
            printed = job_id
        elif type(job_id) is int:
            printed = str(job_id)
        else:
            raise TraceError("line %d: job id %r is not a string or an "
                             "integer" % (lineno, job_id))
        if printed in seen_ids:
            raise TraceError("line %d: duplicate job id %r"
                             % (lineno, job_id))
        submit = obj.get("submit_us")
        if submit is not None and (type(submit) is not int or submit < 0):
            raise TraceError("line %d: submit_us %r is not a non-negative "
                             "integer" % (lineno, submit))
        seen_ids.add(printed)
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
                   "stages": [{"durations_us": list(s.durations_us),
                               "deps": list(s.deps)} for s in r.stages]}
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
        if self.load <= 0:
            raise ValueError("target load must be positive")
        if self.job_count < 1:
            raise ValueError("need at least one job")
        if self.duration_model not in ("lognormal", "two_class"):
            raise ValueError("unknown duration model %r" % self.duration_model)

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
        return [max(1, int(round(d))) for d in samples]
    # Two-class mix: the class is drawn per job, so a job is wholly short
    # or wholly long (what drives head-of-line blocking between jobs).
    if rng.random() < spec.short_fraction:
        return [spec.short_duration_us] * count
    return [spec.long_duration_us] * count


def generate(spec, workers):
    """Generate arrival-stamped single-stage jobs.

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
        records.append(TraceRecord(job_id=i, submit_us=int(t),
                                   stages=[Stage(durations)]))
        t += rng.expovariate(1.0 / mean_gap)
    return records
