"""Machine models: the registry of simulated machines
(KSR2 / modern64 / numa2), the execution-time model they
parameterize, and the speedup-curve machinery (the paper's
execution-time experiments, section 5)."""

import dataclasses
import functools

from repro.machine.ksr2 import TimingResult, execution_time, time_run
from repro.machine.models import (
    DEFAULT_MACHINE,
    MACHINE_ENV,
    MACHINES,
    MachineModel,
    active_machine,
    get_machine,
    resolve_machine,
)
from repro.machine.speedup import (
    DEFAULT_PROC_COUNTS,
    SpeedupCurve,
    build_curve,
    improvement_while_scaling,
)

# Only perfbench/ops.py uses this; the benchmark-only change that moves it
# to ``replace(get_machine("ksr2"), cpi=...)`` deletes the alias.
KSR2Config = functools.partial(dataclasses.replace, MACHINES["ksr2"])

__all__ = [
    "DEFAULT_MACHINE",
    "MACHINE_ENV",
    "MACHINES",
    "MachineModel",
    "active_machine",
    "get_machine",
    "resolve_machine",
    "TimingResult",
    "execution_time",
    "time_run",
    "DEFAULT_PROC_COUNTS",
    "SpeedupCurve",
    "build_curve",
    "improvement_while_scaling",
]
