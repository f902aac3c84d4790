"""Naive reference model of the elastic queue, written independently of
the production data structure.

Everything is recomputed from scratch on plain lists: the queued-work
total is summed on demand, the scan is a literal transcription of the
decision rules, and trimming is a direct loop.  Used as the oracle for
randomized equivalence tests.
"""


def probe_key(probe):
    """A probe's identity as the tests compare it across copies."""
    return (probe.job_id, probe.task_id)


def total_work(entries):
    return sum(q.runtime_us for q in entries)


def ref_enqueue(entries, rotating, probe, now, running_remaining, state):
    """Mutates ``entries``/``rotating`` like one enqueue call; returns the
    list of probes evicted by the quota trim."""
    wait = running_remaining + total_work(entries)
    decided = False
    for i in range(len(entries) - 1, -1, -1):
        q = entries[i]
        if probe.arrival_us >= q.arrival_us:
            q_expired = now >= q.arrival_us + q.allowance_us
            would_starve = (now + (wait - q.runtime_us + probe.runtime_us)
                            > q.arrival_us + q.allowance_us)
            if probe.runtime_us <= q.runtime_us and not q_expired \
                    and not would_starve:
                wait -= q.runtime_us
            else:
                ref_place_or_rotate(entries, rotating, probe, i + 1, now, wait)
                decided = True
                break
        else:
            if q.runtime_us <= probe.runtime_us and \
                    now + wait <= probe.arrival_us + probe.allowance_us:
                ref_place_or_rotate(entries, rotating, probe, i + 1, now, wait)
                decided = True
                break
            wait -= q.runtime_us
    if not decided:
        entries.insert(0, probe)
    return ref_trim(entries, rotating, state)


def ref_place_or_rotate(entries, rotating, probe, position, now, wait):
    tolerable = now + wait <= probe.arrival_us + probe.allowance_us
    expired = probe.arrival_us + probe.allowance_us <= now
    if tolerable or expired:
        entries.insert(position, probe)
    else:
        rotating.append(probe)


def ref_trim(entries, rotating, state):
    evicted = []
    while entries and (len(entries) >= state.probe_quota
                       or total_work(entries) >= state.load_quota_us):
        q = entries.pop()
        evicted.append(q)
        rotating.append(q)
    return evicted
