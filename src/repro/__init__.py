"""repro — compile-time data transformations against false sharing.

A reproduction of Jeremiassen & Eggers, *Reducing False Sharing on
Shared Memory Multiprocessors through Compile Time Data Transformations*
(PPoPP 1995).

Quickstart::

    from repro import compile_source, analyze_program, decide_transformations
    from repro import DataLayout, run_program, simulate_run

    checked = compile_source(src)               # restricted parallel C
    analysis = analyze_program(checked, nprocs=8)
    plan = decide_transformations(analysis)     # the paper's heuristics

    base = run_program(checked, DataLayout(checked, nprocs=8), 8)
    opt = run_program(checked, DataLayout(checked, plan, nprocs=8), 8)
    print(simulate_run(base, 128).misses, simulate_run(opt, 128).misses)

The experiment harness (:mod:`repro.harness`) regenerates every table
and figure of the paper over the ten-benchmark suite
(:mod:`repro.workloads`).
"""

from repro.analysis import ProgramAnalysis, analyze_program
from repro.errors import (
    AnalysisError,
    CheckError,
    LexError,
    ParseError,
    ReproError,
    RuntimeFault,
    SimulationError,
    TransformError,
)
from repro.harness import Pipeline, WorkloadLab
from repro.lang import CheckedProgram, compile_source, parse, to_source
from repro.layout import DataLayout
from repro.machine import build_curve, time_run
from repro.runtime import RunResult, Trace, run_program
from repro.sim import CacheConfig, SimResult, simulate_run, simulate_trace
from repro.transform import (
    TransformPlan,
    decide_transformations,
    render_transformed_source,
    transform_source,
)

__version__ = "1.0.0"

__all__ = [
    "ProgramAnalysis",
    "analyze_program",
    "AnalysisError",
    "CheckError",
    "LexError",
    "ParseError",
    "ReproError",
    "RuntimeFault",
    "SimulationError",
    "TransformError",
    "Pipeline",
    "WorkloadLab",
    "CheckedProgram",
    "compile_source",
    "parse",
    "to_source",
    "DataLayout",
    "build_curve",
    "time_run",
    "RunResult",
    "Trace",
    "run_program",
    "CacheConfig",
    "SimResult",
    "simulate_run",
    "simulate_trace",
    "TransformPlan",
    "decide_transformations",
    "render_transformed_source",
    "transform_source",
    "__version__",
]
