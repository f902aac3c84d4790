"""Per-layer tracing from outside the package.

While installed, a ``Tracer`` wraps the simulator's layer boundaries:

- every entity's ``handle``, found through ``Simulation.add_entity`` and
  keyed by entity class and payload kind, so a new payload kind or entity
  class shows up without a change here;
- ``Simulation.run``, ``Simulation.send`` and ``Simulation.schedule_at``;
- ``WaitingQueue.enqueue`` and ``WaitingQueue.trim_to_quota``.

There are millions of events per run, so no span is kept per call: each
boundary aggregates a call count and its self time (its duration minus
the time of traced calls nested inside it) in memory.
"""

import re
import time
from collections import defaultdict

from peacock_sim import engine, probes

# Entity classes named after the layer they stand for; every other class
# is named <module>.<class in snake case>, e.g. baselines.eagle_central.
_LAYER_NAMES = {"PeacockWorker": "worker", "PeacockScheduler": "scheduler"}


def layer_name(cls):
    if cls.__name__ in _LAYER_NAMES:
        return _LAYER_NAMES[cls.__name__]
    snake = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
    return "%s.%s" % (cls.__module__.rsplit(".", 1)[-1], snake)


class Tracer:
    """Call counts, self seconds and a few outcome tallies per boundary.

    Use as a context manager around the calls to trace; the patches are
    removed on exit.
    """

    def __init__(self):
        # Keyed by a boundary name, or by (entity class, payload kind).
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.events = 0
        self.run_s = 0.0
        self.enqueue_len_sum = 0
        self.enqueue_rotated = 0
        self.evicted = 0
        self._stack = []
        self._originals = []
        self._wrapped_handles = set()

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        sim, queue = engine.Simulation, probes.WaitingQueue
        self._patch(sim, "add_entity", self._add_entity(sim.add_entity))
        self._patch(sim, "run", self._run(sim.run))
        self._patch(sim, "send", self._timed(sim.send, "engine.send"))
        self._patch(sim, "schedule_at",
                    self._timed(sim.schedule_at, "engine.schedule_at"))
        self._patch(queue, "enqueue", self._enqueue(queue.enqueue))
        self._patch(queue, "trim_to_quota", self._trim(queue.trim_to_quota))
        return self

    def __exit__(self, *exc):
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals.clear()
        self._wrapped_handles.clear()
        return False

    def _patch(self, cls, name, replacement):
        self._originals.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    # -- wrappers -------------------------------------------------------------
    #
    # Each wrapper pushes a child-time accumulator, calls through, then
    # books its own duration minus its children's as self time and adds its
    # full duration to its parent's accumulator.

    def _book(self, key, t0, clock=time.perf_counter):
        dt = clock() - t0
        stack = self._stack
        self.self_s[key] += dt - stack.pop()
        self.calls[key] += 1
        if stack:
            stack[-1] += dt
        return dt

    def _timed(self, fn, key):
        stack, book, clock = self._stack, self._book, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                book(key, t0)
        return wrapper

    def _handle(self, fn):
        stack, book, clock = self._stack, self._book, time.perf_counter

        def handle(entity, payload, now):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(entity, payload, now)
            finally:
                book((type(entity), payload[0]), t0)
        return handle

    def _add_entity(self, fn):
        def add_entity(sim, entity):
            # Wrap ``handle`` on the class that defines it, once, so
            # subclasses that inherit it are not counted twice.
            owner = next(c for c in type(entity).__mro__
                         if "handle" in c.__dict__)
            if owner not in self._wrapped_handles:
                self._wrapped_handles.add(owner)
                self._patch(owner, "handle",
                            self._handle(owner.__dict__["handle"]))
            return fn(sim, entity)
        return add_entity

    def _run(self, fn):
        stack, book, clock = self._stack, self._book, time.perf_counter

        def run(sim):
            stack.append(0.0)
            t0 = clock()
            try:
                processed = fn(sim)
            finally:
                self.run_s += book("engine.run", t0)
            self.events += processed
            return processed
        return run

    def _enqueue(self, fn):
        stack, book, clock = self._stack, self._book, time.perf_counter

        def enqueue(queue, *args, **kwargs):
            self.enqueue_len_sum += len(queue.entries)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(queue, *args, **kwargs)
            finally:
                book("probes.enqueue", t0)
            if result[0] == probes.ROTATED:
                self.enqueue_rotated += 1
            return result
        return enqueue

    def _trim(self, fn):
        stack, book, clock = self._stack, self._book, time.perf_counter

        def trim_to_quota(queue, state):
            stack.append(0.0)
            t0 = clock()
            try:
                evicted = fn(queue, state)
            finally:
                book("probes.trim", t0)
            self.evicted += len(evicted)
            return evicted
        return trim_to_quota

    # -- results --------------------------------------------------------------

    def handlers(self):
        """``(layer, kind, calls, self_s)`` for every entity handler seen."""
        return [(layer_name(key[0]), key[1], calls, self.self_s[key])
                for key, calls in self.calls.items() if isinstance(key, tuple)]
