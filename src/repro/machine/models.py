"""Pluggable machine geometries.

The paper evaluates on exactly one machine — the 1995 KSR2 ring with a
128-byte coherence unit and the write-invalidate MSI protocol the cache
simulator was originally hard-coded to.  Modern comparisons (the
resource-oblivious multicore model of Cole–Ramachandran, 64 B-line MESI
desktops, multi-socket NUMA parts) need other geometries, so the
machine description is now a first-class :class:`MachineModel` value
carried through the simulator (:class:`~repro.sim.cache.CacheConfig`
grew a ``protocol`` field), the native kernel (which runs MSI and
MESI alike), the simulation memo keys, the timing model and the tuner, and manifests.

Selection: ``--machine <name>`` on the CLI or the ``REPRO_MACHINE``
environment variable; :func:`get_machine` resolves a name,
:func:`active_machine` resolves the environment (default
:data:`DEFAULT_MACHINE`, the KSR2 — which keeps every paper experiment
bit-identical to the single-machine code).

A model's ``line_size`` is its *native* coherence-unit size; block-size
sweeps still override it per point (the sweep is the experiment), while
the protocol and cache geometry stay the machine's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError
from repro.sim.cache import CacheConfig

#: Environment knob naming the active machine model.
MACHINE_ENV = "REPRO_MACHINE"

DEFAULT_MACHINE = "ksr2"


@dataclass(frozen=True, slots=True)
class MachineModel:
    """One machine: protocol, line size, cache shape, the per-tier miss
    latencies (cycles) of its memory system, and the parameters of the
    execution-time model (:mod:`repro.machine.ksr2`)."""

    name: str
    #: coherence protocol ("msi" | "mesi") — validated by CacheConfig
    protocol: str
    #: native coherence-unit / cache-line size in bytes
    line_size: int
    #: first-level cache simulated per processor
    cache_size: int = 32 * 1024
    assoc: int = 4
    #: miss serviced within the local tier (same ring / same socket)
    local_latency: float = 175.0
    #: miss serviced one tier out (cross ring / remote socket)
    remote_latency: float = 600.0
    #: miss serviced two tiers out (far NUMA node); 0 = no third tier
    far_latency: float = 0.0
    #: fraction of remote traffic landing on the far tier
    far_fraction: float = 0.0
    #: processors per local tier before traffic starts going remote
    tier_size: int = 32
    #: first-level cache per processor in the timing model
    timing_cache_size: int = 256 * 1024
    #: cold/replacement fill, serviced locally (first touch allocates)
    fill_latency: float = 50.0
    #: interconnect occupancy (cycles) per coherence transaction
    occupancy: float = 7.0
    #: queueing inflation cap — a saturated interconnect serializes
    max_queue_factor: float = 40.0
    #: cycles per interpreted operation in the parallel kernel (the
    #: workloads' calibration; see Workload.cpi)
    cpi: float = 1.0
    description: str = ""

    def cache_config(self, block_size: int | None = None) -> CacheConfig:
        """The :class:`CacheConfig` for simulating on this machine.

        ``block_size`` overrides the native line size — block-size
        sweeps vary the line while keeping the machine's protocol and
        cache shape.
        """
        return CacheConfig(
            size=self.cache_size,
            block_size=block_size if block_size is not None else self.line_size,
            assoc=self.assoc,
            protocol=self.protocol,
        )

    def timing_config(self) -> CacheConfig:
        """The :class:`CacheConfig` the timing model simulates: the
        timing first level at the native line size and protocol."""
        return CacheConfig(
            size=self.timing_cache_size,
            block_size=self.line_size,
            assoc=self.assoc,
            protocol=self.protocol,
        )

    def miss_latency(self, nprocs: int) -> float:
        """Average miss-service latency at ``nprocs`` processors: the
        local tier up to ``tier_size`` processors, then a growing share
        of misses serviced one tier out — itself blended with a far
        NUMA hop weighted by ``far_fraction``."""
        if nprocs <= self.tier_size:
            return self.local_latency
        remote = self.remote_latency
        if self.far_latency and self.far_fraction:
            remote = (
                remote * (1.0 - self.far_fraction)
                + self.far_latency * self.far_fraction
            )
        remote_frac = (nprocs - self.tier_size) / nprocs
        return self.local_latency * (1 - remote_frac) + remote * remote_frac

    def to_dict(self) -> dict:
        """Manifest/benchmark form of the model (name + the fields a
        reader needs to interpret the numbers)."""
        return {
            "name": self.name,
            "protocol": self.protocol,
            "line_size": self.line_size,
            "cache_size": self.cache_size,
            "assoc": self.assoc,
            "timing_cache_size": self.timing_cache_size,
            "cpi": self.cpi,
        }


#: The registry.  ksr2 mirrors the original hard-coded defaults of
#: ``simulate_run`` (32 KB / 4-way / 128 B / MSI) and of the timing
#: model (256 KB timing first level, section 4's latencies) exactly, so
#: selecting it — or selecting nothing — reproduces the paper's numbers
#: bit for bit.  The other machines take their timing L1 and fill
#: latency from their own cache and local tier; occupancy and the
#: queueing cap are KSR2 figures (docs/MACHINES.md).
MACHINES: dict[str, MachineModel] = {
    m.name: m
    for m in (
        MachineModel(
            name="ksr2",
            protocol="msi",
            line_size=128,
            cache_size=32 * 1024,
            assoc=4,
            local_latency=175.0,
            remote_latency=600.0,
            tier_size=32,
            timing_cache_size=256 * 1024,
            fill_latency=50.0,
            occupancy=7.0,
            max_queue_factor=40.0,
            description=(
                "the paper's Kendall Square Research KSR2: ALLCACHE "
                "ring, 128 B coherence unit, write-invalidate MSI"
            ),
        ),
        MachineModel(
            name="modern64",
            protocol="mesi",
            line_size=64,
            cache_size=32 * 1024,
            assoc=8,
            local_latency=40.0,
            remote_latency=40.0,
            tier_size=64,
            timing_cache_size=32 * 1024,
            fill_latency=40.0,
            occupancy=7.0,
            max_queue_factor=40.0,
            description=(
                "a modern single-socket multicore: 64 B lines, MESI, "
                "8-way 32 KB L1, flat ~40-cycle miss service"
            ),
        ),
        MachineModel(
            name="numa2",
            protocol="mesi",
            line_size=64,
            cache_size=32 * 1024,
            assoc=8,
            local_latency=40.0,
            remote_latency=120.0,
            far_latency=300.0,
            far_fraction=0.5,
            tier_size=8,
            timing_cache_size=32 * 1024,
            fill_latency=40.0,
            occupancy=7.0,
            max_queue_factor=40.0,
            description=(
                "a two-socket NUMA machine: 64 B MESI lines, 8 cores "
                "per socket, 120-cycle remote-socket and 300-cycle "
                "far-memory tiers"
            ),
        ),
    )
}


def get_machine(name: str) -> MachineModel:
    """Resolve a machine name; unknown names are a one-line user error."""
    model = MACHINES.get(name.strip().lower())
    if model is None:
        raise ReproError(
            f"unknown machine {name!r} "
            f"(expected one of: {', '.join(sorted(MACHINES))})"
        )
    return model


def active_machine() -> MachineModel:
    """The machine selected by ``REPRO_MACHINE`` (default: ksr2)."""
    return get_machine(os.environ.get(MACHINE_ENV) or DEFAULT_MACHINE)


def resolve_machine(
    machine: "MachineModel | str | None",
) -> MachineModel:
    """Normalize a machine argument: a model passes through, a name is
    looked up, None resolves the environment."""
    if machine is None:
        return active_machine()
    if isinstance(machine, MachineModel):
        return machine
    return get_machine(machine)
