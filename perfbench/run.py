"""Benchmark of the simulator's host cost and simulated outcomes.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload overload --seed 1 --seconds 25 --trace 0

One invocation builds several inputs ("parts") of the named workload from
the seed and runs each through ``workload`` -> ``driver.run_simulation`` ->
``metrics.summarize`` -> ``cli.write_outputs`` for peacock, sparrow and
eagle, one after another in this process and thread, cycling over the
parts until every part has run and ``--seconds`` have been spent.  Every
run is checked: it fails if it raises, if its books do not balance, if the
report written for it differs from ``summarize``, or if its digest differs
from the first run of the same part and algorithm.

Host times are scaled by the machine's speed at the moment they were
taken, as a fixed reference loop measures it; see ``Yardstick``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced runs of the first part instead, see ``tracer.py``.  Metric names
and units come from ``BENCHMARK.json``; ``README.md`` in this directory
explains each metric and workload.
"""

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

# Benchmark the checkout's own sources, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))

import peacock_sim  # noqa: E402
from peacock_sim import cli, driver, metrics  # noqa: E402
from peacock_sim.engine import US_PER_S  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, setup_step, write_dag_trace  # noqa: E402

if Path(peacock_sim.__file__).resolve().parent != ROOT / "src" / "peacock_sim":
    raise ImportError("peacock_sim was not imported from %s" % (ROOT / "src"))

#: Set-up and the report step are short next to the runs, so each pass
#: repeats them, set-up at least SETUP_REPEATS times and for SETUP_MIN_S.
#: Timing them in every pass, not once, spreads their samples over the
#: run: the machine's speed drifts over seconds.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.1
REPORT_REPEATS = 5
#: Size of the reference loop, and the time it is scaled to: host times
#: are reported as seconds on a machine that runs the loop in REFERENCE_S.
REFERENCE_STEPS = 30_000
REFERENCE_S = 0.03
ALGOS = cli.ALGOS
PAIRS = [(a, b) for i, a in enumerate(ALGOS) for b in ALGOS[i + 1:]]
DEFAULT_SEED = 1
clock = time.perf_counter


def reference_loop(steps=REFERENCE_STEPS):
    """A fixed event-queue workload in plain Python: heap pushes and pops
    of tuples and dict updates, like the simulator's inner loop, but none
    of its code.  A change to the program cannot change its time."""
    heap, counts, t = [], {}, 0
    for i in range(steps):
        heapq.heappush(heap, (t + (i * 7919) % 1000, i))
        if i & 1:
            t, k = heapq.heappop(heap)
            counts[k % 257] = counts.get(k % 257, 0) + 1
    return len(heap) + len(counts)


class Yardstick:
    """Gauges the machine's speed around each timed step.

    The machine is shared, and its speed moves by up to half over periods
    of seconds to minutes, which no median inside one run removes.  So the
    reference loop is timed before and after each step, and the step's
    time is scaled by ``REFERENCE_S`` over the mean of the two.  The loop
    runs with the collector off, so that the program's heap does not
    change its time.
    """

    def __init__(self):
        self.times = []
        self.last = self.measure()

    def measure(self):
        gc.disable()
        try:
            t0 = clock()
            reference_loop()
            elapsed = clock() - t0
        finally:
            gc.enable()
        self.times.append(elapsed)
        return elapsed

    def scale(self, seconds):
        """Scale times taken since the last measurement."""
        after = self.measure()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return [s * factor for s in seconds]


def part_seeds(seed, parts):
    """Seeds of a run's inputs; the first is the run's own seed."""
    return [seed + k * 1_000_000 for k in range(parts)]


def report_digest(report, records):
    """First 16 hex digits of the sha256 of the sorted-keys JSON of the
    report and the per-job records."""
    blob = json.dumps({"report": report.to_dict(),
                       "records": [r.to_dict() for r in records]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_books(result, records):
    """The conservation books every run must balance; returns the
    imbalances found, empty when the run is correct."""
    c = result.counters
    tasks = sum(r.task_count for r in records)
    work = sum(r.total_work_us for r in records)
    checks = [
        ("jobs recorded", len(result.records), len(records)),
        ("tasks_launched", c["tasks_launched"], tasks),
        ("tasks_finished", c["tasks_finished"], tasks),
        ("tasks_launched + probes_cancelled",
         c["tasks_launched"] + c["probes_cancelled"], c["probes_created"]),
        ("busy_us", c["busy_us"], work),
    ]
    return ["%s = %d, expected %d" % (name, got, want)
            for name, got, want in checks if got != want]


class Part:
    """One input of a run: its seed, its set-up step and the records that
    step makes, the host-time samples taken on it, and what its runs
    gave."""

    def __init__(self, index, seed, setup):
        self.index = index
        self.seed = seed
        self.setup = setup
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.records = setup()
        self.tasks = sum(r.task_count for r in self.records)
        self.digests = {}
        self.jcts_s = {}
        self.messages = {}

    def record(self, name, seconds, yard=None):
        """Keep host-time samples as taken, and scaled by ``yard``."""
        self.raw[name].extend(seconds)
        self.samples[name].extend(yard.scale(seconds) if yard else seconds)

    def time_setup(self, yard=None):
        """Time the set-up step SETUP_REPEATS times, and again until
        SETUP_MIN_S seconds are spent."""
        gc.collect()
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            t0 = clock()
            self.setup()
            times.append(clock() - t0)
        self.record("setup_s", times, yard)


class Bench:
    """Runs a workload's parts through every algorithm and keeps the tally
    of runs attempted and failed."""

    def __init__(self, wl, parts, out_dir):
        self.wl = wl
        self.parts = parts
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0

    def fail(self, algo, part, why):
        self.failed += 1
        print("FAILED %s on %s part %d: %s"
              % (algo, self.wl.name, part.index, why), file=sys.stderr)

    def run(self, algo, part, tracer=None):
        """Time one ``driver.run_simulation``; returns ``(seconds, result)``,
        or None when the run raised or its books do not balance."""
        self.attempted += 1
        config = self.wl.config(algo, part.seed)
        gc.collect()
        try:
            if tracer is None:
                t0 = clock()
                result = driver.run_simulation(config, part.records)
                elapsed = clock() - t0
            else:
                with tracer:
                    t0 = clock()
                    result = driver.run_simulation(config, part.records)
                    elapsed = clock() - t0
        except Exception:
            self.fail(algo, part, traceback.format_exc())
            return None
        problems = check_books(result, part.records)
        if problems:
            self.fail(algo, part, "; ".join(problems))
            return None
        return elapsed, result

    def run_all(self, part, tracers=None):
        """Every algorithm on one part; returns the seconds and results of
        the runs that passed."""
        seconds, results = {}, {}
        for algo in ALGOS:
            outcome = self.run(algo, part, tracers and tracers[algo])
            if outcome is not None:
                seconds[algo], results[algo] = outcome
        return seconds, results

    def report(self, part, results):
        """The steps a ``compare --out`` user waits for after the runs:
        summarize, fraction_faster over every pair, and the JSON outputs.
        Returns the seconds spent in each and the reports."""
        gc.collect()
        spent = {"summarize": 0.0, "fraction_faster": 0.0, "write": 0.0}
        reports = {}
        for algo, result in results.items():
            t0 = clock()
            report = metrics.summarize(result.records, result.counters,
                                       result.workers)
            t1 = clock()
            # The payload cli.report_payload builds, without summarizing
            # again, so that summarize is timed on its own.
            payload = {"schema": cli.REPORT_SCHEMA, "empty": False}
            payload.update(report.to_dict())
            cli.write_outputs(str(self.out_dir), self.output_name(algo, part),
                              payload, result.records, "json")
            spent["summarize"] += t1 - t0
            spent["write"] += clock() - t1
            reports[algo] = report
        t0 = clock()
        for a, b in PAIRS:
            metrics.fraction_faster(results[a].records, results[b].records)
        spent["fraction_faster"] = clock() - t0
        return spent, reports

    def output_name(self, algo, part):
        return "%s_%s_seed%d" % (self.wl.name, algo, part.seed)

    def verify(self, part, results, reports):
        """Check each run's written report against ``summarize`` and its
        digest against the first run of the same part and algorithm."""
        for algo, result in results.items():
            report = reports[algo]
            path = self.out_dir / (self.output_name(algo, part)
                                   + ".report.json")
            written = json.loads(path.read_text())
            expected = json.loads(json.dumps(report.to_dict()))
            if {k: written.get(k) for k in expected} != expected:
                self.fail(algo, part, "written report differs from summarize")
                continue
            digest = report_digest(report, result.records)
            first = part.digests.setdefault(algo, digest)
            if digest != first:
                self.fail(algo, part, "digest %s differs from first run's %s"
                          % (digest, first))
            elif algo not in part.jcts_s:
                part.jcts_s[algo] = [r.jct_us / US_PER_S
                                     for r in result.records]
                part.messages[algo] = result.counters["messages"]

    def outcomes(self):
        """The simulated metrics, pooled over the parts: every job counts
        once in the AJCT and p99, every task once in messages per task."""
        out = {}
        for algo in ALGOS:
            if any(algo not in p.jcts_s for p in self.parts):
                continue
            jcts = sorted(j for p in self.parts for j in p.jcts_s[algo])
            out["ajct_s.%s" % algo] = sum(jcts) / len(jcts)
            out["jct_p99_s.%s" % algo] = metrics.percentile(jcts, 99)
            out["messages_per_task.%s" % algo] = (
                sum(p.messages[algo] for p in self.parts)
                / sum(p.tasks for p in self.parts))
        return out


def measure(bench, seconds):
    """Untraced passes over the parts until each has run and ``seconds``
    are spent; each part keeps its own host-time samples, scaled by the
    returned yardstick."""
    yard = Yardstick()
    start = clock()
    done = 0
    while done < len(bench.parts) or clock() - start < seconds:
        part = bench.parts[done % len(bench.parts)]
        done += 1
        part.time_setup(yard)
        results = {}
        for algo in ALGOS:
            outcome = bench.run(algo, part)
            if outcome is not None:
                part.record("run_s.%s" % algo, [outcome[0]], yard)
                results[algo] = outcome[1]
        if len(results) < len(ALGOS):
            continue
        for _ in range(REPORT_REPEATS):
            spent, reports = bench.report(part, results)
            part.record("report_s", [sum(spent.values())], yard)
        bench.verify(part, results, reports)
    return yard


def host_metrics(parts, raw=False):
    """Each host time is the mean over the parts of its per-part median:
    the mean evens out how the parts' inputs differ in cost, the median
    a stall of the machine."""
    out = {}
    for name in parts[0].samples:
        samples = [p.raw[name] if raw else p.samples[name] for p in parts]
        if all(samples):
            out[name] = statistics.fmean(map(statistics.median, samples))
    return out


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(part, tracers, traced, untraced, results, spent):
    """Per-layer metrics of one traced pass."""
    m = {}
    for algo, tr in tracers.items():
        sends = tr.calls["engine.send"]
        m["engine.events.%s" % algo] = tr.events
        m["engine.sends.%s" % algo] = sends
        m["engine.timers.%s" % algo] = tr.calls["engine.schedule_at"] - sends
        m["engine.self_s.%s" % algo] = tr.self_s["engine.run"]
        m["engine.push_s.%s" % algo] = (tr.self_s["engine.send"]
                                        + tr.self_s["engine.schedule_at"])
        m["engine.us_per_event.%s" % algo] = ratio(untraced[algo] * 1e6,
                                                   tr.events)
        m["driver.overhead_s.%s" % algo] = traced[algo] - tr.run_s
        m["trace.run_s.%s" % algo] = traced[algo]
        m["trace.overhead_s.%s" % algo] = traced[algo] - untraced[algo]
        for layer, kind, calls, self_s in tr.handlers():
            m["%s.%s.calls" % (layer, kind)] = calls
            m["%s.%s.s" % (layer, kind)] = self_s

    pk, counters = tracers["peacock"], results["peacock"].counters
    enqueues = pk.calls["probes.enqueue"]
    ticks = m.get("worker.tick.calls", 0)
    central_s = sum(s for layer, _, _, s in tracers["eagle"].handlers()
                    if layer == "baselines.eagle_central")
    m.update({
        "probes.enqueue.calls": enqueues,
        "probes.enqueue.s": pk.self_s["probes.enqueue"],
        "probes.enqueue.rotated_ratio": ratio(pk.enqueue_rotated, enqueues),
        "probes.enqueue.mean_len": ratio(pk.enqueue_len_sum, enqueues),
        "probes.enqueue.share": ratio(pk.self_s["probes.enqueue"],
                                      traced["peacock"]),
        "probes.trim.calls": pk.calls["probes.trim"],
        "probes.trim.s": pk.self_s["probes.trim"],
        "probes.evicted": pk.evicted,
        "worker.tick_useful_ratio": ratio(counters["rotation_messages"],
                                          ticks),
        "worker.ticks_per_task": ratio(ticks, part.tasks),
        "scheduler.aggregate_clamps": counters["aggregate_clamps"],
        "baselines.eagle_central.share": ratio(central_s, traced["eagle"]),
        "metrics.summarize_s": spent["summarize"],
        "metrics.fraction_faster_s": spent["fraction_faster"],
        "cli.write_outputs_s": spent["write"],
    })
    for algo in ("sparrow", "eagle"):
        c = results[algo].counters
        m["baselines.cancel_ratio.%s" % algo] = ratio(
            c["probes_cancelled"], c["probes_created"])
    return m


def measure_traced(bench, seconds):
    """One untraced pass over the first part, then traced passes over it
    until ``seconds`` are spent.  Returns one per-layer metric dict per
    traced pass."""
    part = bench.parts[0]
    start = clock()
    untraced, results = bench.run_all(part)
    if len(results) < len(ALGOS):
        return []
    bench.verify(part, results, bench.report(part, results)[1])
    passes = []
    while not passes or clock() - start < seconds:
        part.time_setup()
        tracers = {algo: Tracer() for algo in ALGOS}
        traced, results = bench.run_all(part, tracers)
        if len(results) < len(ALGOS):
            break
        spent, reports = bench.report(part, results)
        bench.verify(part, results, reports)
        passes.append(layer_metrics(part, tracers, traced, untraced, results,
                                    spent))
    return passes


def build_parts(wl, seeds, jobs):
    """Make each part's input."""
    parts = []
    for index, seed in enumerate(seeds):
        trace_path = None
        if wl.spec is None:
            trace_path = WORK_DIR / ("%s-seed%d.jsonl.gz" % (wl.name, seed))
            write_dag_trace(trace_path, seed, jobs, wl.workers, wl.load)
        parts.append(Part(index, seed,
                          setup_step(wl, seed, jobs, trace_path)))
    return parts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="override the workload's job count per part")
    return p.parse_args(argv)


def recorded_digests(wl, seed, jobs):
    """Digests recorded in digests.json for this workload, seed and size."""
    for entry in json.loads((BENCH_DIR / "digests.json").read_text()):
        if (entry["workload"], entry["seed"], entry["jobs"]) == \
                (wl.name, seed, jobs):
            return entry["digests"]
    return {}


def print_digests(bench, recorded):
    for algo in ALGOS:
        digests = [p.digests.get(algo, "-") for p in bench.parts]
        note = ""
        if algo in recorded:
            # An entry may record fewer parts than a run has.
            want = recorded[algo][:len(digests)]
            note = (" (matches recorded)" if want == digests[:len(want)]
                    else " (CHANGED: recorded %s)" % " ".join(want))
        print("digest %s %s%s" % (algo, " ".join(digests), note))


def main(argv=None):
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    jobs = args.jobs or wl.jobs
    WORK_DIR.mkdir(exist_ok=True)
    # The simulated outcomes of a single input vary with its seed by more
    # than a bound can absorb (overload's AJCT quartiles spanned a quarter
    # of its median over six seeds), so an untraced run pools several.
    seeds = part_seeds(args.seed, 1 if args.trace else wl.parts)
    parts = build_parts(wl, seeds, jobs)
    bench = Bench(wl, parts, WORK_DIR / "out")
    print("workload %s: W=%d, %d schedulers, load %.2f; %d part(s) of %d "
          "jobs, seeds %s, %d tasks"
          % (wl.name, wl.workers, wl.schedulers, wl.load, len(parts), jobs,
             " ".join(map(str, seeds)), sum(p.tasks for p in parts)))

    if args.trace:
        kind = "per_layer"
        passes = measure_traced(bench, args.seconds)
        setup = (statistics.median(parts[0].samples["setup_s"])
                 if passes else 0.0)
        for p in passes:
            p.update({
                "workload.generate_s": 0.0 if wl.spec is None else setup,
                "workload.load_trace_s": setup if wl.spec is None else 0.0,
                "workload.jobs": len(parts[0].records),
                "workload.tasks": parts[0].tasks,
            })
        samples = {k: [p[k] for p in passes] for k in passes[0]} \
            if passes else {}
        if passes:
            # A boundary that did not occur in this workload was called
            # 0 times.
            for metric in declared[kind]:
                samples.setdefault(metric["name"], [0])
        values = {k: statistics.median(v) for k, v in samples.items()}
        print("traced passes: %d (values are medians over them)"
              % len(passes))
    else:
        kind = "end_to_end"
        yard = measure(bench, args.seconds)
        values = host_metrics(parts)
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values.update(bench.outcomes())
        samples = {k: [s for p in parts for s in p.samples[k]]
                   for k in parts[0].samples}
        for name, raw in sorted(host_metrics(parts, raw=True).items()):
            print("unscaled %-31s %.6g s" % (name, raw))
        print("reference loop: median %.6g s over %d timings, scaled to "
              "%g s" % (statistics.median(yard.times), len(yard.times),
                        REFERENCE_S))
        print("host times: mean over parts of per-part medians, scaled by "
              "the reference loop; simulated outcomes: pooled over parts")

    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in declared[kind] if m["name"] in values}
    for name in sorted(values):
        got = samples.get(name, [])
        note = (" (%d samples, %.6g..%.6g)" % (len(got), min(got), max(got))
                if len(got) > 1 else "")
        unit = out[name]["unit"] if name in out else "(undeclared)"
        print("%-40s %.6g %s%s" % (name, values[name], unit, note))
    print_digests(bench, recorded_digests(wl, args.seed, jobs))
    print("runs attempted %d, failed %d" % (bench.attempted, bench.failed))

    correct = bench.failed == 0 and len(out) == len(declared[kind])
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
