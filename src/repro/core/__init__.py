"""PySST core: the discrete-event engine and component framework.

This package is the reproduction of SST's central contribution — a
modular, component-based, (conservatively) parallel discrete-event
simulation core in which components interact only through
latency-bearing links.  Everything in :mod:`repro.processor`,
:mod:`repro.memory`, :mod:`repro.network`, :mod:`repro.power` and
:mod:`repro.miniapps` is built on these primitives.
"""

from .backends import BACKENDS, ExecutionBackend, RankStep, make_backend
from .clock import Clock, ClockArbiter
from .component import Component, SubComponent, stable_seed
from .describe import (ParamSpec, PortSpec, SlotSpec, SpecError, StateSpec,
                       StatSpec, describe_component, param, port, slot, state,
                       stat, sweep_axes)
from .event import (PRIORITY_CLOCK, PRIORITY_EVENT, PRIORITY_FINAL,
                    PRIORITY_STOP, PRIORITY_SYNC, Event, NullEvent)
from .eventqueue import HeapEventQueue, make_queue
from .kernel import kernel_run
from .link import Link, LinkError, Port
from .params import ParamError, Params, UnusedParamsWarning
from .parallel import ParallelRunResult, ParallelSimulation
from .partition import PartitionEdge, PartitionResult, partition
from .registry import register, registered_types, resolve
from .simulation import RunResult, Simulation, SimulationError
from .sync import ConservativeSync
from .statistics import Accumulator, Counter, Histogram, Statistic, StatisticGroup
from .tracelog import EventTraceLog, describe_handler
from .units import (SimTime, UnitError, bytes_time, format_bytes, format_time,
                    freq_to_period, parse_bandwidth, parse_freq_hz,
                    parse_size_bytes, parse_time)

__all__ = [
    "Accumulator",
    "BACKENDS",
    "Clock",
    "ClockArbiter",
    "Component",
    "ConservativeSync",
    "Counter",
    "Event",
    "EventTraceLog",
    "ExecutionBackend",
    "HeapEventQueue",
    "Histogram",
    "Link",
    "LinkError",
    "NullEvent",
    "ParamError",
    "ParamSpec",
    "Params",
    "ParallelRunResult",
    "ParallelSimulation",
    "PartitionEdge",
    "PartitionResult",
    "PRIORITY_CLOCK",
    "PRIORITY_EVENT",
    "PRIORITY_FINAL",
    "PRIORITY_STOP",
    "PRIORITY_SYNC",
    "PortSpec",
    "RankStep",
    "RunResult",
    "SimTime",
    "Simulation",
    "SimulationError",
    "SlotSpec",
    "SpecError",
    "StateSpec",
    "StatSpec",
    "Statistic",
    "StatisticGroup",
    "SubComponent",
    "UnitError",
    "UnusedParamsWarning",
    "bytes_time",
    "describe_component",
    "describe_handler",
    "format_bytes",
    "format_time",
    "freq_to_period",
    "kernel_run",
    "make_backend",
    "make_queue",
    "param",
    "parse_bandwidth",
    "parse_freq_hz",
    "parse_size_bytes",
    "parse_time",
    "partition",
    "port",
    "register",
    "registered_types",
    "resolve",
    "slot",
    "stable_seed",
    "stat",
    "state",
    "sweep_axes",
]
