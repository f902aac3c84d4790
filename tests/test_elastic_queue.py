"""Elastic queue unit tests: worked micro-examples, invariants, and
randomized equivalence against the naive reference model."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peacock_sim.probes import (EMPTY_STATE, INSERTED, ROTATED,
                                InvalidProbeError, Probe, SharedState,
                                WaitingQueue)
from reference_queue import probe_key, ref_enqueue, ref_trim

US = 1_000_000

ROOMY = SharedState(100, 10_000 * US, (0, 0))


def probe(job, task=0, lam=0, theta=1, mu=0, **kw):
    return Probe(job_id=job, task_id=task, arrival_us=lam * US,
                 runtime_us=theta * US, allowance_us=mu * US, **kw)


def test_enqueue_empty_queue_inserts_at_head():
    q = WaitingQueue()
    a = probe("a", lam=0, theta=5, mu=10)
    outcome, evicted = q.enqueue(a, now_us=0, running_remaining_us=0,
                                 state=ROOMY)
    assert outcome == INSERTED and q.entries == [a]
    assert evicted == []
    assert q.total_runtime_us == 5 * US


@pytest.mark.parametrize("state", [
    SharedState(0, 10_000 * US, (0, 0)),
    SharedState(100, 0, (0, 0)),
], ids=["probe_quota-0", "load_quota-0"])
def test_empty_queue_under_a_zero_quota_matches_reference_model(state):
    # A quota that rounds to 0 (sparse load on many workers) admits no
    # probe: an empty queue inserts the newcomer and the trim evicts it at
    # once, behind what already rotates.  There is no fast path for this
    # case, and the reference takes the same steps.
    earlier = probe("earlier", theta=2, mu=10)
    real = WaitingQueue()
    real.rotating.append(earlier)
    ref_entries, ref_rotating = [], [earlier]
    p = probe("p", lam=0, theta=5, mu=10)
    outcome, evicted = real.enqueue(p, now_us=0, running_remaining_us=0,
                                    state=state)
    ref_evicted = ref_enqueue(ref_entries, ref_rotating, p, 0, 0, state)
    assert (outcome, evicted) == (INSERTED, [p]) == (INSERTED, ref_evicted)
    assert real.entries == ref_entries == []
    assert real.total_runtime_us == 0
    assert real.rotating == ref_rotating == [earlier, p]


def test_enqueue_shorter_later_probe_bypasses():
    # One waiting probe q(arr=0, rt=10, allow=30); running task has 5s left.
    # p(arr=1, rt=4, allow=30) at t=2 starts with wait 15, passes q because
    # 2 + (15 - 10 + 4) = 11 stays within q's deadline of 30, and lands at
    # the head.
    q = WaitingQueue()
    existing = probe("q", lam=0, theta=10, mu=30)
    q.entries.append(existing)
    q.total_runtime_us = 10 * US
    p = probe("p", lam=1, theta=4, mu=30)
    outcome, evicted = q.enqueue(p, now_us=2 * US,
                                 running_remaining_us=5 * US, state=ROOMY)
    assert outcome == INSERTED
    assert [e.job_id for e in q.entries] == ["p", "q"]
    assert q.total_runtime_us == 14 * US
    assert evicted == []


def test_expired_entry_cannot_be_bypassed():
    # q(arr=0, rt=20, allow=50) expired at t=100; the newcomer may not pass
    # it, and since the newcomer's own deadline (95) has passed it inserts
    # at the tail instead of rotating.
    q = WaitingQueue()
    q.entries.append(probe("q", lam=0, theta=20, mu=50))
    q.total_runtime_us = 20 * US
    p = probe("p", lam=90, theta=1, mu=5)
    outcome, evicted = q.enqueue(p, now_us=100 * US,
                                 running_remaining_us=0, state=ROOMY)
    assert outcome == INSERTED
    assert [e.job_id for e in q.entries] == ["q", "p"]


def queue_of(*entries):
    q = WaitingQueue()
    q.entries.extend(entries)
    q.total_runtime_us = sum(e.runtime_us for e in entries)
    return q


def test_enqueue_tolerable_wait_inserts():
    # A probe that stops behind an entry waits at least that entry's
    # runtime, so its wait is never zero there; at the bound it is
    # tolerable.  p is longer than q, so it stops behind q; its wait of 20s
    # from t=10 ends exactly at its deadline of 30.
    q_entry = probe("q", lam=0, theta=10, mu=1000)
    q = queue_of(q_entry)
    p = probe("p", lam=0, theta=11, mu=30)
    outcome, evicted = q.enqueue(p, now_us=10 * US,
                                 running_remaining_us=10 * US, state=ROOMY)
    assert outcome == INSERTED and evicted == []
    assert q.entries == [q_entry, p] and q.rotating == []


def test_enqueue_expired_deadline_inserts():
    # p stops behind the shorter q with a wait of 50s, far past its
    # deadline of 95; that deadline has already passed, so p is inserted.
    q_entry = probe("q", lam=0, theta=50, mu=1000)
    q = queue_of(q_entry)
    p = probe("p", lam=90, theta=60, mu=5)
    outcome, _ = q.enqueue(p, now_us=100 * US, running_remaining_us=0,
                           state=ROOMY)
    assert outcome == INSERTED
    assert q.entries == [q_entry, p] and q.rotating == []


def test_enqueue_intolerable_wait_rotates():
    # p stops behind the shorter q; its wait of 50s from t=10 would end
    # past its deadline of 20, which has not passed yet: p rotates.
    q_entry = probe("q", lam=0, theta=1, mu=1000)
    q = queue_of(q_entry)
    p = probe("p", lam=0, theta=2, mu=20)
    outcome, evicted = q.enqueue(p, now_us=10 * US,
                                 running_remaining_us=49 * US, state=ROOMY)
    assert outcome == ROTATED and evicted == []
    assert q.entries == [q_entry] and q.rotating == [p]
    assert q.total_runtime_us == 1 * US


def test_enqueue_past_every_entry_inserts_at_head_even_if_intolerable():
    # p passes q (2 + (15 - 10 + 4) = 11 <= q's deadline 1000), and its
    # remaining wait of 5s from t=2 ends past its own deadline of 3; it
    # still goes to the head rather than rotating.
    q_entry = probe("q", lam=0, theta=10, mu=1000)
    q = queue_of(q_entry)
    p = probe("p", lam=1, theta=4, mu=2)
    outcome, _ = q.enqueue(p, now_us=2 * US, running_remaining_us=5 * US,
                           state=ROOMY)
    assert outcome == INSERTED
    assert q.entries == [p, q_entry] and q.rotating == []


def test_trim_empty_queue_is_noop():
    q = WaitingQueue()
    assert q.trim_to_quota(SharedState(0, 0, (0, 0))) == []


def test_trim_by_probe_quota_leaves_strictly_below():
    q = WaitingQueue()
    for i, theta in enumerate([10, 20, 30]):
        q.entries.append(probe("j", task=i, theta=theta, mu=1000))
        q.total_runtime_us += theta * US
    evicted = q.trim_to_quota(SharedState(2, 100 * US, (0, 0)))
    assert [e.runtime_us for e in evicted] == [30 * US, 20 * US]
    assert [e.runtime_us for e in q.entries] == [10 * US]
    assert q.total_runtime_us == 10 * US


def test_trim_by_load_quota():
    q = WaitingQueue()
    for i, theta in enumerate([10, 20]):
        q.entries.append(probe("j", task=i, theta=theta, mu=1000))
        q.total_runtime_us += theta * US
    evicted = q.trim_to_quota(SharedState(5, 25 * US, (0, 0)))
    assert [e.runtime_us for e in evicted] == [20 * US]
    assert q.total_runtime_us == 10 * US


def test_pop_head_empty():
    assert WaitingQueue().pop_head() is None


def test_pop_head_order_and_total():
    q = WaitingQueue()
    a, b = probe("a", theta=5, mu=10), probe("b", theta=7, mu=10)
    q.entries.extend([a, b])
    q.total_runtime_us = 12 * US
    assert q.pop_head() is a
    assert q.entries == [b]
    assert q.total_runtime_us == 7 * US


def test_pop_after_bypass_returns_new_head():
    q = WaitingQueue()
    q.entries.append(probe("q", lam=0, theta=10, mu=30))
    q.total_runtime_us = 10 * US
    p = probe("p", lam=1, theta=4, mu=30)
    q.enqueue(p, now_us=2 * US, running_remaining_us=5 * US, state=ROOMY)
    assert q.pop_head() is p


def test_rejects_nonpositive_runtime():
    with pytest.raises(InvalidProbeError):
        Probe("j", 0, 0, 0, 0)


def test_rejects_negative_running_remainder():
    q = WaitingQueue()
    with pytest.raises(InvalidProbeError):
        q.enqueue(probe("p", theta=1, mu=1), 0, -1, ROOMY)


# ---------------------------------------------------------------------------
# randomized properties

def random_probe(rng, i):
    return Probe(job_id=rng.randrange(5), task_id=i,
                 arrival_us=rng.randrange(0, 60 * US),
                 runtime_us=rng.randrange(1, 30 * US),
                 allowance_us=rng.randrange(0, 40 * US))


def random_state(rng):
    return SharedState(rng.randrange(0, 9), rng.randrange(0, 80 * US), (0, 0))


def run_random_sequence(seed, ops=12):
    """Drive the real queue and the reference side by side.  Returns both
    queues and, per call, the real and the reference ``(outcome, evicted
    keys)``; the reference's outcome is ROTATED when its probe went to
    ``rotating`` other than by that call's trim."""
    rng = random.Random(seed)
    real = WaitingQueue()
    ref_entries, ref_rotating = [], []
    real_returns, ref_returns = [], []
    for i in range(ops):
        now = rng.randrange(0, 100 * US)
        p_real = random_probe(rng, i)
        p_ref = Probe(p_real.job_id, p_real.task_id, p_real.arrival_us,
                      p_real.runtime_us, p_real.allowance_us)
        delta = rng.randrange(0, 20 * US)
        state = random_state(rng)
        outcome, evicted = real.enqueue(p_real, now, delta, state)
        real_returns.append((outcome, list(map(probe_key, evicted))))
        ref_evicted = ref_enqueue(ref_entries, ref_rotating, p_ref, now,
                                  delta, state)
        rotated = p_ref in ref_rotating and p_ref not in ref_evicted
        ref_returns.append((ROTATED if rotated else INSERTED,
                            list(map(probe_key, ref_evicted))))
    return real, ref_entries, ref_rotating, real_returns, ref_returns


@pytest.mark.parametrize("seed", range(60))
def test_matches_reference_model(seed):
    real, ref_entries, ref_rotating, real_returns, ref_returns = \
        run_random_sequence(seed)
    assert real_returns == ref_returns
    assert (list(map(probe_key, real.entries))
            == list(map(probe_key, ref_entries)))
    assert (list(map(probe_key, real.rotating))
            == list(map(probe_key, ref_rotating)))
    assert real.total_runtime_us == sum(p.runtime_us for p in ref_entries)


@pytest.mark.parametrize("seed", range(40))
def test_conservation_and_bookkeeping(seed):
    rng = random.Random(10_000 + seed)
    q = WaitingQueue()
    submitted, popped = [], []
    for i in range(20):
        op = rng.random()
        if op < 0.7:
            p = random_probe(rng, i)
            submitted.append(probe_key(p))
            q.enqueue(p, rng.randrange(0, 100 * US), rng.randrange(0, 10 * US),
                      random_state(rng))
        else:
            p = q.pop_head()
            if p is not None:
                popped.append(probe_key(p))
        assert q.total_runtime_us == sum(e.runtime_us for e in q.entries)
    in_queue = list(map(probe_key, q.entries))
    rotating = list(map(probe_key, q.rotating))
    assert sorted(in_queue + rotating + popped) == sorted(submitted)


def test_starvation_head_distance_never_grows():
    # An expired probe's distance from the head may not increase when new
    # probes are enqueued.
    rng = random.Random(7)
    q = WaitingQueue()
    victim = probe("victim", lam=0, theta=50, mu=5)
    q.entries.append(victim)
    q.total_runtime_us = victim.runtime_us
    now = 10 * US  # victim expired
    for i in range(30):
        before = q.entries.index(victim)
        q.enqueue(random_probe(rng, i), now, 0, ROOMY)
        if victim in q.entries:
            assert q.entries.index(victim) <= before
        now += US


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_determinism(seed):
    a = run_random_sequence(seed, ops=8)
    b = run_random_sequence(seed, ops=8)
    assert (list(map(probe_key, a[0].entries))
            == list(map(probe_key, b[0].entries)))
    assert (list(map(probe_key, a[0].rotating))
            == list(map(probe_key, b[0].rotating)))


# ---------------------------------------------------------------------------
# batch placement

@st.composite
def batch_cases(draw):
    """A starting queue (its entries set directly, so it may already break
    its quotas), a batch of probes, the clock, the running remainder and
    the shared state.  Quotas are often 0 and deadlines often past."""
    def probes(count, first_task):
        return [Probe(job_id=draw(st.integers(0, 3)), task_id=first_task + i,
                      arrival_us=draw(st.integers(0, 8)) * US,
                      runtime_us=draw(st.sampled_from([1, 2, 3, 5])) * US,
                      allowance_us=draw(st.integers(0, 12)) * US)
                for i in range(count)]
    start = probes(draw(st.integers(0, 6)), 0)
    batch = probes(draw(st.integers(1, 6)), len(start))
    state = SharedState(draw(st.integers(0, 6)),
                        draw(st.sampled_from([0, 1, 4, 9, 30])) * US, (0, 0))
    return (start, batch, draw(st.integers(0, 20)) * US,
            draw(st.sampled_from([0, 1, 4])) * US, state)


# p is longer than q, so it stops behind q, with a tolerable wait, and is
# placed at the tail; there it makes two entries against a probe quota of
# 2, and the trim evicts it at once.
TAIL_INSERT_EVICTED = ([probe("q", lam=0, theta=1, mu=100)],
                       [probe("p", lam=0, theta=2, mu=100)],
                       0, 0, SharedState(2, 100 * US, (0, 0)))
# The queue starts over its probe quota: the trim after the first probe
# brings it below, before the second is placed.
STARTS_OVER_QUOTA = ([probe("s", task=i, theta=1, mu=100) for i in range(3)],
                     [probe("b", task=i, lam=1, theta=4, mu=100)
                      for i in range(2)],
                     0, 0, SharedState(2, 100 * US, (0, 0)))


@settings(max_examples=300, deadline=None)
@given(batch_cases())
@example(TAIL_INSERT_EVICTED)
@example(STARTS_OVER_QUOTA)
def test_batch_matches_successive_enqueues_and_the_reference(case):
    start, batch, now, delta, state = case
    batched, single = queue_of(*start), queue_of(*start)
    rejected = batched.enqueue_all(batch, now, delta, state)
    outcomes = [single.enqueue(p, now, delta, state)[0] for p in batch]
    ref_entries, ref_rotating = list(start), []
    for p in batch:
        ref_enqueue(ref_entries, ref_rotating, p, now, delta, state)
    assert batched.entries == single.entries == ref_entries
    assert batched.rotating == single.rotating == ref_rotating
    assert (batched.total_runtime_us == single.total_runtime_us
            == sum(p.runtime_us for p in ref_entries))
    assert rejected == outcomes.count(ROTATED)


@settings(max_examples=200, deadline=None)
@given(batch_cases())
@example(STARTS_OVER_QUOTA)
def test_trim_to_quota_matches_the_reference_trim(case):
    # enqueue_all inlines trim_to_quota's loop; the test above holds the
    # inlined copy to the reference, and this one holds trim_to_quota.
    start, _, _, _, state = case
    real = queue_of(*start)
    ref_entries, ref_rotating = list(start), []
    evicted = real.trim_to_quota(state)
    assert evicted == ref_trim(ref_entries, ref_rotating, state)
    assert real.entries == ref_entries and real.rotating == ref_rotating
    assert real.total_runtime_us == sum(p.runtime_us for p in ref_entries)
