"""Discrete-event simulator for probe-based cluster schedulers: a
ring-rotation scheduler with elastic worker queues, plus batch-sampling
(Sparrow-style) and hybrid partitioned (Eagle-style) baselines."""

from .driver import RunResult, run_simulation
from .engine import SimConfig, Simulation, SimulationError, ProtocolError
from .metrics import JobRecord, Report, fraction_faster, summarize
from .probes import Probe, SharedState, WaitingQueue
from .workload import (SyntheticSpec, TraceRecord, Stage, generate,
                       load_trace, mean_interarrival_us, save_trace)

__all__ = [
    "RunResult", "run_simulation", "SimConfig", "Simulation",
    "SimulationError", "ProtocolError", "JobRecord", "Report",
    "fraction_faster", "summarize", "Probe", "SharedState", "WaitingQueue",
    "SyntheticSpec", "TraceRecord", "Stage", "generate", "load_trace",
    "mean_interarrival_us", "save_trace",
]
