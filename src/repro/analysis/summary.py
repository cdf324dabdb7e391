"""Aggregation of the three analysis stages into per-data-structure
sharing patterns, and the one-call driver :func:`analyze_program`.

The transformation heuristics (paper, section 3.3) decide per data
structure from "the type (read/write, shared/per-process), stride
(known/unknown) and frequency of access to the elements"; a
:class:`TargetPattern` carries exactly those facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs import spans as obs
from repro.analysis.nonconcurrency import PhaseInfo, analyze_phases
from repro.analysis.pdv import PDVInfo, detect_pdvs
from repro.analysis.perprocess import MAIN_PROC, ProcSetResult, compute_proc_sets
from repro.analysis.profiling import StaticProfile, compute_profile
from repro.analysis.sideeffects import (
    FINI_PHASE,
    INIT_PHASE,
    AccessEntry,
    SideEffects,
    Target,
    analyze_side_effects,
)
from repro.ir.callgraph import CallGraph, build_callgraph
from repro.lang.checker import CheckedProgram
from repro.rsd.descriptor import RSD, Range, StridedUnknown
from repro.rsd.ops import add_descriptor, disjoint_across_pdv


@dataclass(slots=True)
class PhasePattern:
    """Sharing pattern of one target within one phase."""

    write_pp: float = 0.0
    write_sh: float = 0.0
    read_pp: float = 0.0
    read_sh_local: float = 0.0
    read_sh_nonlocal: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.write_pp + self.write_sh + self.read_pp
            + self.read_sh_local + self.read_sh_nonlocal
        )


@dataclass(slots=True)
class TargetPattern:
    """Aggregated access pattern for one shared data structure."""

    target: Target
    entries: list[AccessEntry] = field(default_factory=list)
    #: phase id -> pattern (parallel phases only)
    phases: dict[int, PhasePattern] = field(default_factory=dict)
    #: accumulated weights (sum over parallel phases)
    write_pp: float = 0.0
    write_sh: float = 0.0
    read_pp: float = 0.0
    read_sh_local: float = 0.0
    read_sh_nonlocal: float = 0.0
    lock_weight: float = 0.0
    is_lock: bool = False
    record_field: Optional[tuple[str, str]] = None
    #: the paper's multiple-descriptor summaries
    write_descriptors: list[tuple[RSD, float]] = field(default_factory=list)
    read_descriptors: list[tuple[RSD, float]] = field(default_factory=list)
    #: every PDV-carrying write descriptor partitions the structure
    writes_pdv_disjoint: bool = False
    #: serial (init/fini) access weight, kept for completeness
    serial_weight: float = 0.0

    # -- derived ---------------------------------------------------------------

    @property
    def writes(self) -> float:
        return self.write_pp + self.write_sh

    @property
    def reads(self) -> float:
        return self.read_pp + self.read_sh_local + self.read_sh_nonlocal

    @property
    def writes_are_per_process(self) -> bool:
        """Writes overwhelmingly per-process (the g&t/indirection gate)."""
        if self.writes <= 0.0:
            return False
        return self.write_pp / self.writes >= 0.9

    @property
    def pattern_shifts(self) -> bool:
        """Does the per-process/shared classification flip across phases?"""
        kinds = set()
        for pp in self.phases.values():
            if pp.write_pp + pp.write_sh <= 0:
                continue
            kinds.add(pp.write_pp >= pp.write_sh)
        return len(kinds) > 1


def _has_unit_stride(rsd: RSD) -> bool:
    if not rsd.elems:
        return False
    last = rsd.elems[-1]
    if isinstance(last, Range) and last.stride == 1:
        return True
    # stride known even though bounds are data-dependent (Topopt's
    # revolving partition): the access still has spatial locality
    return isinstance(last, StridedUnknown) and last.stride == 1


def _entry_is_per_process(e: AccessEntry, nprocs: int) -> bool:
    if e.procs and e.procs != frozenset({MAIN_PROC}) and len(e.procs) == 1:
        return True
    return disjoint_across_pdv(e.rsd, nprocs)


def aggregate_patterns(
    effects: SideEffects, nprocs: int
) -> dict[Target, TargetPattern]:
    """Fold raw access entries into per-target sharing patterns."""
    patterns: dict[Target, TargetPattern] = {}
    for e in effects.entries:
        pat = patterns.get(e.target)
        if pat is None:
            pat = patterns[e.target] = TargetPattern(target=e.target)
        pat.entries.append(e)
        if e.is_lock:
            pat.is_lock = True
            pat.lock_weight += e.weight
        if e.record_field is not None and pat.record_field is None:
            pat.record_field = e.record_field
        if e.phase in (INIT_PHASE, FINI_PHASE) or e.procs == frozenset({MAIN_PROC}):
            pat.serial_weight += e.weight
            continue
        pp = pat.phases.setdefault(e.phase, PhasePattern())
        per_process = _entry_is_per_process(e, nprocs)
        if e.is_write:
            add_descriptor(pat.write_descriptors, e.rsd, e.weight)
            if per_process:
                pp.write_pp += e.weight
                pat.write_pp += e.weight
            else:
                pp.write_sh += e.weight
                pat.write_sh += e.weight
        else:
            add_descriptor(pat.read_descriptors, e.rsd, e.weight)
            if per_process:
                pp.read_pp += e.weight
                pat.read_pp += e.weight
            elif _has_unit_stride(e.rsd):
                pp.read_sh_local += e.weight
                pat.read_sh_local += e.weight
            else:
                pp.read_sh_nonlocal += e.weight
                pat.read_sh_nonlocal += e.weight
    for pat in patterns.values():
        pdv_descs = [r for r, _w in pat.write_descriptors if r.depends_on_pdv]
        pat.writes_pdv_disjoint = bool(pdv_descs) and all(
            disjoint_across_pdv(r, nprocs) for r, _w in pat.write_descriptors
            if r.depends_on_pdv
        )
    return patterns


@dataclass(slots=True)
class ProgramAnalysis:
    """Everything the transformation engine needs, in one object."""

    checked: CheckedProgram
    callgraph: CallGraph
    pdvinfo: PDVInfo
    phase_info: PhaseInfo
    proc_sets: ProcSetResult
    profile: StaticProfile
    side_effects: SideEffects
    patterns: dict[Target, TargetPattern]
    nprocs: int

    def pattern(self, base: str, path: tuple[str, ...] = ()) -> Optional[TargetPattern]:
        return self.patterns.get(Target(base, path))


def analyze_program(checked: CheckedProgram, nprocs: int) -> ProgramAnalysis:
    """Run all three analysis stages (plus PDV detection and static
    profiling) for a given process count."""
    with obs.span("analyze.callgraph"):
        cg = build_callgraph(checked)
    with obs.span("analyze.pdv"):
        pdvinfo = detect_pdvs(checked, cg, nprocs)
    with obs.span("analyze.stage2", stage="non-concurrency"):
        phase_info = analyze_phases(checked, cg)
    with obs.span("analyze.stage1", stage="per-process control flow"):
        proc_sets = compute_proc_sets(checked, cg, pdvinfo, nprocs)
    with obs.span("analyze.profile"):
        profile = compute_profile(checked, cg, pdvinfo, nprocs)
    with obs.span("analyze.stage3", stage="summary side effects"):
        effects = analyze_side_effects(
            checked, cg, pdvinfo, phase_info, proc_sets, profile, nprocs
        )
    with obs.span("analyze.aggregate"):
        patterns = aggregate_patterns(effects, nprocs)
    return ProgramAnalysis(
        checked=checked,
        callgraph=cg,
        pdvinfo=pdvinfo,
        phase_info=phase_info,
        proc_sets=proc_sets,
        profile=profile,
        side_effects=effects,
        patterns=patterns,
        nprocs=nprocs,
    )
