"""Behaviour pins: each algorithm's report digest on small fixed configs.

A refactor that is meant to keep behaviour must keep these digests; one
that changes behaviour on purpose updates them and says why in
CHANGES.md.  The digest is the first 16 hex digits of the sha256 of the
sorted-keys JSON of the report and the per-job records, as ROADMAP.md
defines it.
"""

import hashlib
import json

import pytest

from peacock_sim import driver
from peacock_sim.engine import SimConfig
from peacock_sim.metrics import summarize
from peacock_sim.workload import SyntheticSpec, generate

US = 1_000_000
WORKERS = 50


def report_digest(result):
    report = summarize(result.records, result.counters, result.workers)
    blob = json.dumps({"report": report.to_dict(),
                       "records": [r.to_dict() for r in result.records]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def records():
    # The criterion-8 job shape (3 s / 200 s, 95% short) at a size that
    # runs in well under a second, and still rotates probes on the ring.
    spec = SyntheticSpec(load=2.0, job_count=400, seed=1, mean_tasks=6.0,
                         duration_model="two_class", short_duration_us=3 * US,
                         long_duration_us=200 * US, short_fraction=0.95)
    return generate(spec, WORKERS)


@pytest.mark.parametrize("net_delay_us, expected", [
    (5_000, "4607719558fb2d54"),
    (0, "2c456cdb63231197"),
    # Equal to the rotation interval: a round's rotation messages land at
    # the same instant as the next round, and must be delivered before it.
    (US, "f9977515b7cb5462"),
])
def test_peacock_report_digest_is_pinned(records, net_delay_us, expected):
    result = driver.run_simulation(
        SimConfig(workers=WORKERS, schedulers=4, seed=1,
                  rotation_interval_us=US, net_delay_us=net_delay_us),
        records)
    assert result.counters["probe_hops"] > 0
    assert report_digest(result) == expected


@pytest.mark.parametrize("algo, expected", [
    ("sparrow", "c897ae33d82b46de"),
    ("eagle", "24e65217669f4cc3"),
])
def test_baseline_report_digest_is_pinned(records, algo, expected):
    result = driver.run_simulation(
        SimConfig(workers=WORKERS, schedulers=4, seed=1, algo=algo), records)
    assert result.counters["probes_cancelled"] > 0
    assert report_digest(result) == expected


def test_eagle_wide_general_partition_digest_is_pinned():
    # Light two-class load on 400 workers: every long task is placed while
    # many of the 340 general workers tie at load zero, some of them back
    # at zero after a long finish, so the placer's lowest-index tie-break
    # decides each placement.
    spec = SyntheticSpec(load=0.3, job_count=300, seed=1, mean_tasks=6.0,
                         duration_model="two_class", short_duration_us=3 * US,
                         long_duration_us=200 * US, short_fraction=0.8)
    config = SimConfig(workers=400, schedulers=4, seed=1, algo="eagle")
    records = generate(spec, config.workers)
    assert any(s.durations_us[0] > config.eagle_long_cutoff_us
               for r in records for s in r.stages)
    result = driver.run_simulation(config, records)
    assert report_digest(result) == "9d6c9d1fcf64b0cc"
