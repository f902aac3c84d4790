"""Command-line front end: run one algorithm or compare several on a
shared workload, writing machine-readable reports and per-job records."""

import argparse
import csv
import json
import math
import os
import sys

from .driver import run_simulation
from .engine import ALGOS, SimConfig, SimulationError, US_PER_S, derived_rng
from .metrics import fraction_faster, summarize
from .workload import (LoadError, SyntheticSpec, TraceError, clock_overflow,
                       generate, load_trace, mean_interarrival_us)

REPORT_SCHEMA = "peacock-report-1"


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % value)
    return value


def positive_float(text):
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            "must be a positive finite number, not %s" % text)
    return value


def whole_us(least):
    """An argparse type: non-negative seconds, converted to whole
    microseconds, that round to at least ``least`` microseconds."""
    def seconds(text):
        us = float(text) * US_PER_S
        if not (math.isfinite(us) and us >= 0 and round(us) >= least):
            raise argparse.ArgumentTypeError(
                "must be finite seconds of at least %d us once rounded to "
                "whole microseconds, not %s" % (least, text))
        return round(us)
    return seconds


def algo_list(text):
    algos = [a.strip() for a in text.split(",") if a.strip()]
    for i, algo in enumerate(algos):
        if algo not in ALGOS:
            raise argparse.ArgumentTypeError(
                "unknown algorithm %r (choose from %s)"
                % (algo, ", ".join(ALGOS)))
        if algo in algos[:i]:
            raise argparse.ArgumentTypeError(
                "algorithm %r given more than once" % algo)
    if not algos:
        raise argparse.ArgumentTypeError("no algorithm given")
    return algos


def build_parser():
    parser = argparse.ArgumentParser(
        prog="peacock-sim",
        description="Discrete-event simulator for probe-based cluster "
                    "schedulers (ring-rotation, batch-sampling, and hybrid "
                    "partitioned variants).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workers", type=positive_int, default=100)
        p.add_argument("--schedulers", type=positive_int, default=1)
        p.add_argument("--load", type=positive_float, default=0.8,
                       help="target offered load for synthetic workloads")
        p.add_argument("--jobs", type=positive_int, default=1000,
                       help="synthetic job count (ignored with --trace)")
        p.add_argument("--trace", help="trace file (JSON lines, .gz ok)")
        p.add_argument("--duration-model", choices=("lognormal", "two_class"),
                       default="lognormal")
        p.add_argument("--rotation-interval", type=whole_us(1), default="1.0",
                       help="rotation round interval in seconds")
        p.add_argument("--net-delay", type=whole_us(0), default="0.005",
                       help="network delay in seconds")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seeds", type=positive_int, default=1,
                       help="number of seeds to sweep (seed, seed+1, ...)")
        p.add_argument("--out", help="output directory (default: stdout only)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    run_p = sub.add_parser("run", help="run one algorithm")
    run_p.add_argument("--algo", choices=ALGOS, default="peacock")
    common(run_p)

    cmp_p = sub.add_parser("compare",
                           help="run several algorithms on one workload")
    cmp_p.add_argument("--algos", type=algo_list,
                       default="peacock,sparrow,eagle",
                       help="comma-separated algorithm list")
    common(cmp_p)
    return parser


def make_config(args, algo, seed):
    return SimConfig(
        workers=args.workers,
        schedulers=args.schedulers,
        rotation_interval_us=args.rotation_interval,
        net_delay_us=args.net_delay,
        seed=seed,
        algo=algo,
    )


def make_workload(args, seed):
    if args.trace:
        records, dropped = load_trace(args.trace)
        if dropped:
            print("pruned %d invalid jobs from trace" % dropped,
                  file=sys.stderr)
        if not records:
            raise TraceError("%s has no valid jobs (%d pruned)"
                             % (args.trace, dropped))
        missing = [r.job_id for r in records if r.submit_us is None]
        if 0 < len(missing) < len(records):
            raise TraceError("job %r has no submit_us but other jobs do"
                             % (missing[0],))
        if missing:
            tasks = sum(r.task_count for r in records)
            gap = mean_interarrival_us(
                args.load, args.workers, tasks / len(records),
                sum(r.total_work_us for r in records) / tasks)
            rng = derived_rng(seed, "trace-arrivals")
            t = 0.0
            try:
                for r in records:
                    r.submit_us = int(t)
                    t += rng.expovariate(1.0 / gap)
            except OverflowError:
                raise clock_overflow(args.load, args.workers) from None
        return records
    spec = SyntheticSpec(load=args.load, job_count=args.jobs, seed=seed,
                         duration_model=args.duration_model)
    return generate(spec, args.workers)


def report_payload(result):
    payload = {"schema": REPORT_SCHEMA, "empty": False}
    payload.update(summarize(result.records, result.counters,
                             result.workers).to_dict())
    return payload


def write_outputs(out_dir, name, payload, records, fmt):
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "json":
        path = os.path.join(out_dir, name + ".report.json")
        # json.dumps, unlike json.dump, takes the C encoder when indent
        # is None; the bytes are the same either way.
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        jobs_path = os.path.join(out_dir, name + ".jobs.json")
        with open(jobs_path, "w") as fh:
            fh.write(json.dumps([r.to_dict() for r in records],
                                sort_keys=True) + "\n")
    else:
        path = os.path.join(out_dir, name + ".report.csv")
        flat = _flatten(payload)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(sorted(flat))
            writer.writerow([flat[k] for k in sorted(flat)])
        jobs_path = os.path.join(out_dir, name + ".jobs.csv")
        with open(jobs_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["job_id", "scheduler", "arrival_us",
                             "completion_us", "jct_us", "rotations"])
            for r in records:
                writer.writerow([r.job_id, r.scheduler, r.arrival_us,
                                 r.completion_us, r.jct_us,
                                 ";".join(map(str, r.rotations))])
    return path


def _flatten(obj, prefix=""):
    flat = {}
    for key, value in obj.items():
        name = prefix + str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def cmd_run(args):
    per_seed = []
    for k in range(args.seeds):
        seed = args.seed + k
        workload = make_workload(args, seed)
        result = run_simulation(make_config(args, args.algo, seed), workload)
        payload = report_payload(result)
        payload["seed"] = seed
        payload["algo"] = args.algo
        per_seed.append((seed, payload, result.records))
    if args.out:
        for seed, payload, records in per_seed:
            name = "%s_seed%d" % (args.algo, seed)
            write_outputs(args.out, name, payload, records, args.format)
    print(json.dumps([p for _, p, _ in per_seed], sort_keys=True, indent=2))
    return 0


def cmd_compare(args):
    algos = args.algos
    output = []
    for k in range(args.seeds):
        seed = args.seed + k
        workload = make_workload(args, seed)
        results = {}
        for algo in algos:
            results[algo] = run_simulation(
                make_config(args, algo, seed), workload)
        entry = {"seed": seed, "reports": {}, "fraction_faster": {}}
        for algo, result in results.items():
            payload = report_payload(result)
            entry["reports"][algo] = payload
            if args.out:
                write_outputs(args.out, "%s_seed%d" % (algo, seed), payload,
                              result.records, args.format)
        for i, a in enumerate(algos):
            for b in algos[i + 1:]:
                fa, fb, ties = fraction_faster(results[a].records,
                                               results[b].records)
                entry["fraction_faster"]["%s_vs_%s" % (a, b)] = {
                    a: fa, b: fb, "ties": ties}
        output.append(entry)
    print(json.dumps(output, sort_keys=True, indent=2))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except SimulationError as exc:
        print("simulation error: %s" % exc, file=sys.stderr)
        return 1
    except TraceError as exc:
        print("trace error: %s" % exc, file=sys.stderr)
        return 1
    except LoadError as exc:
        print("%s: error: argument --load: %s" % (parser.prog, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
