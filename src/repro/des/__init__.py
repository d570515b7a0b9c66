"""Discrete-event simulation kernel (SimPy-style, dependency-free).

The kernel provides virtual time, generator-based processes, composable
events, and shared resources.  Everything else in :mod:`repro` — the
cluster model, virtual MPI, filesystems, and the I/O libraries — runs on
top of this kernel, so a whole multi-hour "run" of the rocket simulation
executes in milliseconds of wall time while producing faithful virtual
timings.
"""

from .core import NORMAL, URGENT, Environment, Event, Process, Timeout
from .errors import Interrupt, SimulationError, StopSimulation
from .events import AllOf, AnyOf, Condition, ConditionValue
from .resources import Release, Request, Resource

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "URGENT",
    "NORMAL",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Resource",
    "Request",
    "Release",
]
