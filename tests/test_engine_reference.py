"""Differential tests of the event loop against ``reference_engine``.

The production engine keeps one event list per instant; the reference
keeps one ``(time, seq)`` heap entry per event.  Both must deliver the same
events at the same instants in the same order, and count the same totals.

The first test drives random handler scripts that send, and set timers at
``now``, ``now + 1`` and ``now + net_delay_us``, with delays of 0 and above,
so that events from different handlers often share an instant.  The second
runs all three algorithms on tiny systems through ``driver`` with each
engine and compares the reports and job records.  Its task durations and
submit times are multiples of the network delay and of the rotation
interval, so completions, probes, rotations and ring rounds often land
together.
"""

import itertools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from peacock_sim import driver
from peacock_sim.engine import ALGOS, SimConfig, Simulation
from peacock_sim.workload import Stage, TraceRecord
from reference_engine import ReferenceSimulation
from test_system_properties import serialized

US = 1_000_000
ACTORS = 3

# -- random handler scripts --------------------------------------------------

# An action: ("send", target) or ("timer", target, offset), where offset
# "delay" means the network delay.
actions = st.one_of(
    st.tuples(st.just("send"), st.integers(0, ACTORS - 1)),
    st.tuples(st.just("timer"), st.integers(0, ACTORS - 1),
              st.sampled_from([0, 1, "delay"])))


@st.composite
def scripts(draw):
    """A net delay, the actions each actor takes at each step (one list per
    step and actor), and two waves of seed events (offset from the clock,
    target): one before the first ``run()`` and one after it."""
    steps = draw(st.integers(1, 4))
    script = [[draw(st.lists(actions, max_size=3)) for _ in range(ACTORS)]
              for _ in range(steps)]
    seeds = st.lists(st.tuples(st.integers(0, 3),
                               st.integers(0, ACTORS - 1)),
                     min_size=1, max_size=4)
    return (draw(st.sampled_from([0, 1, 2, 3])), script, draw(seeds),
            draw(seeds))


class Actor:
    """Logs every event, then acts out its script for the event's step.
    Each new event carries a fresh uid, drawn in handling order, so a
    different order shows in the log even between equal actions.  A
    script names actors by their index in the shared ``actors`` list."""

    def __init__(self, sim, index, actors, log, script, uids):
        self.sim = sim
        sim.add_entity(self)
        self.index = index
        self.actors = actors
        self.log = log
        self.script = script
        self.uids = uids

    def handle(self, payload, now):
        self.log.append((now, self.index, payload))
        _uid, step = payload
        if step == len(self.script):
            return
        sim = self.sim
        for action in self.script[step][self.index]:
            new = (next(self.uids), step + 1)
            target = self.actors[action[1]]
            if action[0] == "send":
                sim.send(target, new, now)
            elif action[2] == "delay":
                sim.schedule_at(now + sim.net_delay_us, target, new)
            else:
                sim.schedule_at(now + action[2], target, new)


def play(engine, case):
    delay, script, first, second = case
    sim = engine(SimConfig(net_delay_us=delay))
    log = []
    uids = itertools.count()
    actors = []
    for i in range(ACTORS):
        actors.append(Actor(sim, i, actors, log, script, uids))
    totals = []
    for wave in (first, second):
        for offset, target in wave:
            sim.schedule_at(sim.now + offset, actors[target],
                            (next(uids), 0))
        totals.append(sim.run())
    return log, totals, sim.now, sim.counters["messages"]


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_random_scripts_match_the_reference_engine(case):
    assert play(Simulation, case) == play(ReferenceSimulation, case)


# -- whole systems -----------------------------------------------------------

@st.composite
def tied_systems(draw, idle_gaps=False):
    """A config and jobs whose instants tie often.  With ``idle_gaps``,
    each job may also come many rotation intervals after the one before,
    so the ring runs idle rounds between bursts of work."""
    interval = draw(st.sampled_from([US // 4, US // 2, US]))
    delay = draw(st.sampled_from([0, 5_000, interval // 2, interval,
                                  2 * interval]))

    def instant(low):
        return max(low, draw(st.integers(0, 3)) * delay
                   + draw(st.integers(0, 3)) * interval)

    def stages():
        count = draw(st.integers(1, 3))
        return [Stage([instant(1) for _ in range(draw(st.integers(1, 3)))],
                      sorted(draw(st.sets(st.integers(0, i - 1), max_size=i)))
                      if i else [])
                for i in range(count)]

    config = dict(workers=draw(st.integers(1, 8)),
                  schedulers=draw(st.integers(1, 3)),
                  rotation_interval_us=interval, net_delay_us=delay,
                  seed=draw(st.integers(0, 2 ** 16)))
    jobs = []
    gap = 0
    for i in range(draw(st.integers(1, 5))):
        if idle_gaps:
            gap += draw(st.sampled_from([0, 20, 60])) * interval
        jobs.append(TraceRecord(i, gap + instant(0), stages()))
    return config, jobs


@settings(max_examples=150, deadline=None)
@given(tied_systems())
def test_tiny_systems_match_the_reference_engine(system):
    config, jobs = system
    for algo in ALGOS:
        cfg = SimConfig(algo=algo, **config)
        fast = serialized(driver.run_simulation(cfg, jobs))
        with mock.patch.object(driver, "Simulation", ReferenceSimulation):
            naive = serialized(driver.run_simulation(cfg, jobs))
        assert fast == naive, algo
