"""Acceptance suite: ten exit criteria for the simulator, each printing
one PASS/FAIL line.  Micro-oracles are exact; cluster-scale behaviour is
checked as directional trends with stated margins.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria
(6-8) each run several hundred-worker simulations.  On Python 3.11 on a
shared 2-core host this file took 21-23 s, 17-18 s of it in criterion 8.
"""

import json
import random

from peacock_sim import driver
from peacock_sim.engine import SimConfig, Simulation, derived_rng
from peacock_sim.metrics import fraction_faster, summarize
from peacock_sim.probes import Probe, SharedState, WaitingQueue
from peacock_sim.scheduler import PeacockScheduler
from peacock_sim.workload import Stage, SyntheticSpec, TraceRecord, generate
from reference_queue import ref_enqueue

US = 1_000_000


def verdict(num, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "acceptance criterion %d failed: %s" % (num, text)


class Recorder:
    def __init__(self, sim):
        self.eid = sim.add_entity(self)
        self.inbox = []

    def handle(self, payload, now):
        self.inbox.append((now, payload))


def job(jid, durations_s, submit_s=0):
    return TraceRecord(jid, int(submit_s * US),
                       [Stage([int(d * US) for d in durations_s])])


# -- 1: shared-state micro-oracle -------------------------------------------

def test_01_shared_state_micro_oracle():
    """Replaying the worked aggregate example: a task-finish and a job
    admission against a 100-worker scheduler holding (1500, 25000s)."""
    sim = Simulation(SimConfig(workers=100, schedulers=2))
    recorders = [Recorder(sim) for _ in range(100)]
    sched = PeacockScheduler(sim, 0, [r.eid for r in recorders],
                             derived_rng(0, "s"))
    peer = Recorder(sim)
    sched.peer_eids = [peer.eid]

    # Admit a single 20s task on top of (1499, 24980) to reach the
    # example's starting aggregate of (1500, 25000).
    sched.on_peer_update(1499, 24_980 * US)
    sched.on_job_arrival(job("one", [20]), 0)
    ok = (sched.probe_count, sched.load_us) == (1500, 25_000 * US)

    # Its completion (estimate 20s) drops the aggregate to (1499, 24980)
    # and broadcasts the decrement <-1, 20>.
    sim.run()
    probes = [m[1] for r in recorders for _, m in r.inbox if m[0] == "probe"]
    peer.inbox.clear()
    sched.handle(("task_request", probes[0], recorders[0].eid), US)
    sched.handle(("task_finish", probes[0].job_id, 0, 21 * US), 21 * US)
    ok &= (sched.probe_count, sched.load_us) == (1499, 24_980 * US)
    sim.run()
    ok &= ("peer", -1, -20 * US) in [m for _, m in peer.inbox]

    # A 10-task job of 15s estimates lifts (1500, 25000) to (1510, 25150)
    # and broadcasts <+10, 150>.
    sched.on_peer_update(1, 20 * US)          # back to (1500, 25000)
    peer.inbox.clear()
    sched.on_job_arrival(job("ten", [15] * 10), 30 * US)
    ok &= (sched.probe_count, sched.load_us) == (1510, 25_150 * US)
    sim.run()
    ok &= ("peer", 10, 150 * US) in [m for _, m in peer.inbox]

    # Derived quotas: 1510 probes on 100 workers -> 15 per worker
    # (half-up), 25150s -> 251.5s per worker.
    state = sched.shared_state(31 * US)
    ok &= state.probe_quota == 15 and state.load_quota_us == 251_500_000
    verdict(1, ok, "aggregate replay (1500,25000) -> finish/admission "
                   "updates and broadcasts match exactly")


# -- 2: queue oracle equivalence ---------------------------------------------

def test_02_queue_matches_independent_reference():
    """1000 randomized queues of up to 8 probes, compared step by step
    against the naive reference transcription of the decision rules."""
    mismatches = 0
    for case in range(1000):
        rng = random.Random(900_000 + case)
        real = WaitingQueue()
        ref_entries, ref_rotating = [], []
        for i in range(rng.randrange(1, 9)):
            now = rng.randrange(0, 100 * US)
            args = (rng.randrange(4), i, rng.randrange(0, 60 * US),
                    rng.randrange(1, 30 * US), rng.randrange(0, 40 * US))
            delta = rng.randrange(0, 20 * US)
            state = SharedState(rng.randrange(0, 9),
                                rng.randrange(0, 80 * US), (0, 0))
            real.enqueue(Probe(*args), now, delta, state)
            ref_enqueue(ref_entries, ref_rotating, Probe(*args), now, delta,
                        state)
        same = ([p.key for p in real.entries] == [p.key for p in ref_entries]
                and [p.key for p in real.rotating]
                == [p.key for p in ref_rotating])
        mismatches += not same
    verdict(2, mismatches == 0,
            "1000 randomized queues identical to the reference model "
            "(%d mismatches)" % mismatches)


# -- 3: starvation freedom ---------------------------------------------------

def run_starvation_trial(seed):
    """One long probe against an adversarial stream of shorts.

    Returns (distance_ok, bound_ok): the expired long probe's distance
    from the head never grows, and it starts within (work ahead of it at
    expiry + the running task's remainder) of its deadline.
    """
    rng = random.Random(seed)
    roomy = SharedState(10 ** 6, 10 ** 15, (0, 0))
    q = WaitingQueue()
    long_probe = Probe("long", 0, arrival_us=0,
                       runtime_us=rng.randrange(20, 60) * US,
                       allowance_us=rng.randrange(5, 15) * US)
    expiry = long_probe.arrival_us + long_probe.allowance_us
    running_until = rng.randrange(0, 5 * US)   # task already on the slot
    q.enqueue(long_probe, 0, running_until, roomy)

    arrivals = []
    t = 0
    for i in range(30):
        t += rng.randrange(1, 3 * US)
        arrivals.append((t, Probe("short", i + 1, arrival_us=t,
                                  runtime_us=rng.randrange(US // 2, 3 * US),
                                  allowance_us=rng.randrange(0, 60 * US))))

    distance_ok = True
    start_bound = None
    long_start = None

    def snapshot_bound(now):
        # Work that may still legally precede the long probe once expired.
        ahead = sum(p.runtime_us
                    for p in q.entries[:q.entries.index(long_probe)])
        return expiry + ahead + max(0, running_until - now)

    i = 0
    now = 0
    while long_start is None:
        next_arrival = arrivals[i][0] if i < len(arrivals) else None
        # Run the slot up to the next arrival (or forever once the
        # stream ends).
        while q.entries and (next_arrival is None
                             or running_until <= next_arrival):
            now = max(now, running_until)
            if start_bound is None and now >= expiry \
                    and long_probe in q.entries:
                start_bound = snapshot_bound(now)
            head = q.pop_head()
            if head is long_probe:
                long_start = now
                break
            running_until = now + head.runtime_us
        if long_start is not None or next_arrival is None:
            break
        now = next_arrival
        if start_bound is None and now >= expiry and long_probe in q.entries:
            start_bound = snapshot_bound(now)
        before = (q.entries.index(long_probe)
                  if now >= expiry and long_probe in q.entries else None)
        q.enqueue(arrivals[i][1], now, max(0, running_until - now), roomy)
        if before is not None and long_probe in q.entries:
            distance_ok &= q.entries.index(long_probe) <= before
        i += 1
    bound_ok = long_start is not None and \
        (start_bound is None or long_start <= start_bound)
    return distance_ok, bound_ok


def test_03_starvation_freedom():
    bad = [s for s in range(100)
           if run_starvation_trial(7000 + s) != (True, True)]
    verdict(3, not bad,
            "expired probe never pushed back and starts within its bound "
            "on 100 trials (failing: %r)" % bad)


# -- 4: end-to-end hand traces -----------------------------------------------

def test_04_hand_traced_fixtures():
    """JCTs of two tiny clusters, worked out event by event on paper
    (5ms network delay, 1s rotation rounds)."""
    ok = True
    res = driver.run_simulation(
        SimConfig(workers=2, schedulers=1, seed=0),
        [job("J1", [10, 10], 0), job("J2", [5], 1), job("J3", [1], 2)])
    jct = {r.job_id: r.jct_us for r in res.records}
    ok &= jct == {"J1": 10_015_000, "J2": 14_025_000, "J3": 9_025_000}

    res = driver.run_simulation(
        SimConfig(workers=3, schedulers=1, seed=0),
        [job("J1", [10] * 3, 0), job("J2", [5] * 3, 1), job("J3", [1] * 3, 2),
         job("J4", [2], 20), job("J5", [3], 20.5)])
    jct = {r.job_id: r.jct_us for r in res.records}
    rot = {r.job_id: r.rotations for r in res.records}
    ok &= jct["J1"] == 10_015_000 and jct["J2"] == 15_035_000
    ok &= jct["J3"] == 9_025_000 and jct["J4"] == 2_015_000
    # J5's probe either finds the idle worker directly or is evicted from
    # J4's worker and rotates once; the hand-worked schedule pins both.
    ok &= (rot["J5"], jct["J5"]) in (([0], 3_015_000), ([1], 3_515_000))
    verdict(4, ok, "2-worker/3-job and 3-worker/5-job fixtures match the "
                   "pen-and-paper schedules exactly")


# -- 5: conservation & quiescence --------------------------------------------

def test_05_conservation_and_quiescence():
    """Randomized runs for all three algorithms.  The driver refuses to
    return unless all jobs completed, scheduler aggregates drained to
    (0, 0), and every worker ended idle with empty queues; on top of that
    the probe/task/busy-time books must balance."""
    ok = True
    details = []
    cases = [("peacock", 100, 500, "two_class", 31),
             ("peacock", 60, 300, "lognormal", 32),
             ("sparrow", 100, 500, "two_class", 33),
             ("eagle", 100, 500, "two_class", 34)]
    for algo, W, jobs, model, seed in cases:
        spec = SyntheticSpec(load=0.9, job_count=jobs, seed=seed,
                             mean_tasks=5.0, duration_model=model,
                             short_fraction=0.8, short_duration_us=US,
                             long_duration_us=15 * US)
        records = generate(spec, W)
        tasks = sum(r.task_count for r in records)
        work = sum(r.total_work_us for r in records)
        res = driver.run_simulation(
            SimConfig(workers=W, schedulers=2, seed=seed, algo=algo), records)
        c = res.counters
        case_ok = (len(res.records) == jobs
                   and c["tasks_launched"] == tasks
                   and c["tasks_finished"] == tasks
                   and c["tasks_launched"] + c["probes_cancelled"]
                   == c["probes_created"]
                   and c["busy_us"] == work)
        ok &= case_ok
        details.append("%s:%s" % (algo, "ok" if case_ok else "FAIL"))
    verdict(5, ok, "every task launched exactly once, aggregates drained, "
                   "busy time equals offered work (%s)" % ", ".join(details))


# -- 6 & 7: rotation trends --------------------------------------------------

def trend_run(workers, load, jobs, seed):
    spec = SyntheticSpec(load=load, job_count=jobs, seed=seed, mean_tasks=6.0,
                         mean_duration_us=60 * US, sigma=2.0)
    records = generate(spec, workers)
    res = driver.run_simulation(
        SimConfig(workers=workers, schedulers=2, seed=seed), records)
    return summarize(res.records, res.counters, workers)


def test_06_rotations_grow_with_load():
    loads = (0.2, 0.5, 0.8, 1.0, 2.0, 3.0)
    means = [trend_run(500, load, 1000, 11).mean_rotations_per_probe
             for load in loads]
    increasing = all(a < b for a, b in zip(means, means[1:]))
    verdict(6, increasing,
            "mean rotations per probe strictly increasing over loads %s: %s"
            % (loads, ["%.3f" % m for m in means]))


def test_07_rotations_shrink_with_cluster_size():
    sizes = (250, 500, 1000)
    means = [trend_run(W, 0.8, 2 * W, 11).mean_rotations_per_probe
             for W in sizes]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    verdict(7, decreasing,
            "mean rotations per probe decreasing over cluster sizes %s: %s"
            % (sizes, ["%.3f" % m for m in means]))


# -- 8: comparative performance ----------------------------------------------

def test_08_beats_both_baselines_under_overload():
    """W=500 at load 2.0 on 10k heterogeneous two-class jobs (3s/200s mix,
    95% short): the ring scheduler must undercut both baselines' average
    JCT by at least 10% on each of three seeds, and win the per-job
    comparison against batch sampling."""
    ok = True
    lines = []
    for seed in (1, 2, 3):
        spec = SyntheticSpec(load=2.0, job_count=10_000, seed=seed,
                             mean_tasks=6.0, duration_model="two_class",
                             short_duration_us=3 * US,
                             long_duration_us=200 * US, short_fraction=0.95)
        records = generate(spec, 500)
        runs = {}
        for algo in ("peacock", "sparrow", "eagle"):
            res = driver.run_simulation(
                SimConfig(workers=500, schedulers=4, seed=seed, algo=algo),
                records)
            runs[algo] = (summarize(res.records, res.counters, 500).ajct_s,
                          res.records)
        p, s, e = runs["peacock"][0], runs["sparrow"][0], runs["eagle"][0]
        frac = fraction_faster(runs["peacock"][1], runs["sparrow"][1])[0]
        seed_ok = p <= 0.9 * s and p <= 0.9 * e and frac > 0.5
        ok &= seed_ok
        lines.append("seed %d: %.0f vs sparrow %.0f / eagle %.0f, "
                     "frac %.2f" % (seed, p, s, e, frac))
    verdict(8, ok, ">=10%% faster than both baselines on all seeds "
                   "(%s)" % "; ".join(lines))


# -- 9: utilization calibration ----------------------------------------------

def test_09_utilization_tracks_half_load():
    spec = SyntheticSpec(load=0.5, job_count=3000, seed=7, mean_tasks=6.0,
                         mean_duration_us=2 * US, sigma=0.5)
    records = generate(spec, 100)
    res = driver.run_simulation(SimConfig(workers=100, schedulers=2, seed=7),
                                records)
    util = summarize(res.records, res.counters, 100).utilization
    verdict(9, 0.45 <= util <= 0.55,
            "busy fraction %.4f within [0.45, 0.55] at offered load 0.5"
            % util)


# -- 10: determinism ---------------------------------------------------------

def full_report_bytes(algo, seed):
    spec = SyntheticSpec(load=0.8, job_count=300, seed=seed, mean_tasks=5.0,
                         duration_model="two_class", short_fraction=0.85,
                         short_duration_us=US, long_duration_us=20 * US)
    records = generate(spec, 100)
    res = driver.run_simulation(
        SimConfig(workers=100, schedulers=3, seed=seed, algo=algo), records)
    payload = {
        "report": summarize(res.records, res.counters, 100).to_dict(),
        "records": [r.to_dict() for r in res.records],
    }
    return json.dumps(payload, sort_keys=True).encode()


def test_10_reports_are_byte_identical():
    ok = True
    for algo in ("peacock", "sparrow", "eagle"):
        ok &= full_report_bytes(algo, 13) == full_report_bytes(algo, 13)
    verdict(10, ok, "repeated runs with identical seeds serialize to "
                    "byte-identical reports for all three algorithms")
