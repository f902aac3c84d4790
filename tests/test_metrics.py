"""Metrics tests against hand-computed and spreadsheet-style oracles."""

import pytest

from peacock_sim.metrics import (JobRecord, fraction_faster,
                                 percentile, summarize)

US = 1_000_000


def rec(job_id, arrival_s, completion_s, rotations=()):
    return JobRecord(job_id=job_id, scheduler=0, arrival_us=arrival_s * US,
                     completion_us=completion_s * US,
                     rotations=list(rotations))


def test_jct_is_completion_minus_arrival():
    assert rec("a", 2, 12).jct_us == 10 * US


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == 1.75
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_of_three_simple_jobs():
    records = [rec("a", 0, 10), rec("b", 0, 20), rec("c", 0, 30)]
    report = summarize(records, {"busy_us": 45 * US, "tasks_finished": 3},
                       workers=3)
    assert report.jobs == 3
    assert report.ajct_s == 20.0
    assert report.percentiles_s[50] == 20.0
    assert report.makespan_s == 30.0
    assert report.utilization == 45 / 90


def test_ajct_adds_left_to_right_on_every_python_version():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 added left to right, but 0.6
    # under the compensated sum() of Python 3.12 and later.
    records = [JobRecord(name, 0, 0, us)
               for name, us in (("a", 100_000), ("b", 200_000),
                                ("c", 300_000))]
    report = summarize(records, {"busy_us": 0, "tasks_finished": 3},
                       workers=1)
    assert report.ajct_s == (0.1 + 0.2 + 0.3) / 3


def test_summary_spreadsheet_oracle():
    # Five jobs worked out by hand: JCTs 4, 6, 6, 10, 24 seconds.
    records = [rec("a", 1, 5, [0]), rec("b", 2, 8, [1, 0]),
               rec("c", 3, 9, [2]), rec("d", 5, 15, [0, 0]),
               rec("e", 6, 30, [3, 1])]
    report = summarize(records, {"busy_us": 50 * US, "tasks_finished": 10},
                       workers=4)
    assert report.ajct_s == pytest.approx(10.0)
    assert report.percentiles_s[50] == pytest.approx(6.0)
    assert report.percentiles_s[90] == pytest.approx(18.4)  # 10 + 0.6*(24-10)
    # 7 hops over 8 probes, over 10 tasks.
    assert report.mean_rotations_per_probe == pytest.approx(7 / 8)
    assert report.mean_rotations_per_task == pytest.approx(7 / 10)
    assert report.makespan_s == 30.0
    assert report.utilization == pytest.approx(50 / 120)


def test_cdf_is_monotone_and_spans_unit_interval():
    records = [rec(i, 0, 1 + i) for i in range(10)]
    report = summarize(records, {"busy_us": 0, "tasks_finished": 10},
                       workers=1)
    fractions = [f for _, f in report.cdf]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    xs = [x for x, _ in report.cdf]
    assert xs[0] == 1.0 and xs[-1] == 10.0


def test_empty_run_marker():
    assert summarize([], {}, workers=5) is None


def test_report_serializes_to_plain_dict():
    report = summarize([rec("a", 0, 5)], {"busy_us": 0, "tasks_finished": 1},
                       workers=1)
    d = report.to_dict()
    assert d["jobs"] == 1
    assert d["percentiles_s"][50] == 5.0


def test_fraction_faster_sums_to_one():
    a = [rec("x", 0, 5), rec("y", 0, 9), rec("z", 0, 7)]
    b = [rec("x", 0, 6), rec("y", 0, 8), rec("z", 0, 7)]
    fa, fb, ties = fraction_faster(a, b)
    assert (fa, fb, ties) == (1 / 3, 1 / 3, 1 / 3)


def test_fraction_faster_rejects_mismatched_jobs():
    with pytest.raises(ValueError):
        fraction_faster([rec("x", 0, 5)], [rec("y", 0, 5)])
    with pytest.raises(ValueError):
        fraction_faster([], [])
