"""The benchmark's workloads: their point sets, operations and checks.

Every operation calls the same public layer functions that ``repro
experiments`` calls, in the same order (compile, analyze, plan, layout,
trace cache / interpreter, event precompute, protocol core, attribution,
timing; plus mitigation and the verify oracle on ``dynamic``), each
through :meth:`Tracer.call` so a traced run can time it.  One
:class:`Pass` plays the part of one ``repro experiments`` invocation:
it compiles each program once and executes each run once, as the
product's ``Pipeline``/``WorkloadLab`` caches do.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

from repro.analysis import analyze_program
from repro.dynamic import mitigate
from repro.harness import experiments
from repro.layout import DataLayout
from repro.layout.regions import build_region_map
from repro.lang import compile_source
from repro.machine import KSR2Config, get_machine
from repro.machine.ksr2 import execution_time
from repro.obs.attribution import fs_table
from repro.runtime import run_program, trace_cache
from repro.runtime.stealing import RR, SchedConfig, fs_bound
from repro.sim.engine import simulate_events
from repro.sim.events import build_events
from repro.transform import ALL_KINDS, decide_transformations
from repro.verify.oracle import diff_states, observe
from repro.workloads.registry import SIMULATION_WORKLOADS, by_name

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: The experiment lab's pipeline block size: layouts and compiler plans
#: are made for 128-byte blocks whatever block size is then simulated.
LAYOUT_BLOCK = 128
#: ``Pipeline``'s defaults, which are part of every trace-cache key.
MAX_STEPS = 200_000_000
QUANTUM = 4

GRID_BLOCK_SIZES = experiments.TABLE2_BLOCK_SIZES
TIMING_BLOCK = 128
MISS_FIELDS = ("cold", "replace", "true_sharing", "false_sharing")


def miss_tuple(sim) -> list[int]:
    return [getattr(sim.misses, f) for f in MISS_FIELDS]


def reduction(fs_base: dict, fs_other: dict, block_sizes) -> float:
    """Table 2's false-sharing reduction, averaged over block sizes
    (a block size without baseline false sharing counts as 0)."""
    vals = [
        1.0 - fs_other[bs] / fs_base[bs] if fs_base[bs] else 0.0
        for bs in block_sizes
    ]
    return sum(vals) / len(vals)


class Pass:
    """State one pass over a workload's points shares, and the counters
    its operations accumulate."""

    def __init__(self, tracer):
        self.t = tracer
        self.c: Counter = Counter()
        self._checked: dict = {}
        self._analyses: dict = {}
        self._plans: dict = {}
        self._runs: dict = {}
        self._oracle: dict = {}

    # -- compile / analyze / plan ------------------------------------------

    def checked(self, wl):
        got = self._checked.get(wl.name)
        if got is None:
            got = self._checked[wl.name] = self.t.call(
                "lang.compile", compile_source, wl.source
            )
        return got

    def analysis(self, wl, nprocs: int):
        key = (wl.name, nprocs)
        got = self._analyses.get(key)
        if got is None:
            got = self._analyses[key] = self.t.call(
                "analysis.analyze", analyze_program, self.checked(wl), nprocs
            )
        return got

    def plan(self, wl, version: str, nprocs: int):
        """The plan a version label denotes: ``N`` (none), ``C`` or the
        Table 2 attribution label ``C[<kind>]``."""
        if version == "N":
            return None
        key = (wl.name, nprocs)
        full = self._plans.get(key)
        if full is None:
            full = self._plans[key] = self.t.call(
                "transform.plan", decide_transformations,
                self.analysis(wl, nprocs), block_size=LAYOUT_BLOCK,
            )
        if version == "C":
            return full
        return self.t.call("transform.plan", full.restricted_to, {version[2:-1]})

    # -- execute -------------------------------------------------------------

    def execute(self, wl, version: str, nprocs: int, sched: SchedConfig = RR):
        """(checked, plan, layout, run) for one version, replayed from
        the trace cache or interpreted and stored."""
        memo = (wl.name, version, nprocs, sched.describe())
        got = self._runs.get(memo)
        if got is not None:
            return got
        t, c = self.t, self.c
        checked = self.checked(wl)
        plan = self.plan(wl, version, nprocs)
        layout = t.call(
            "layout.build", DataLayout, checked, plan,
            block_size=LAYOUT_BLOCK, nprocs=nprocs,
        )
        key = trace_cache.run_key(
            wl.source, "natural" if plan is None else plan.describe(),
            nprocs, LAYOUT_BLOCK, quantum=QUANTUM, max_steps=MAX_STEPS,
            sched=sched.describe(),
        )
        run = t.call("runtime.trace_cache.load", trace_cache.load_run, key)
        c["cache_loads"] += 1
        if run is not None:
            c["cache_hits"] += 1
            c["cache_bytes"] += trace_bytes(run)
        else:
            run = t.call(
                "runtime.interp", run_program, checked, layout, nprocs,
                quantum=QUANTUM, max_steps=MAX_STEPS, sched=sched,
            )
            c["interp_calls"] += 1
            c["interp_refs"] += len(run.trace)
            if t.call("runtime.trace_cache.store", trace_cache.store_run, key, run):
                c["cache_bytes"] += trace_bytes(run)
        if run.sched is not None:
            c["steals"] += run.sched["steals"]
            c["migrations"] += run.sched["migrations"]
        got = self._runs[memo] = (checked, plan, layout, run)
        return got

    # -- simulate --------------------------------------------------------------

    def simulate(self, run, model, block_size: int):
        t, c = self.t, self.c
        events = t.call("sim.events", build_events, run.trace, block_size)
        sim = t.call(
            "sim.core", simulate_events, events, run.nprocs,
            model.cache_config(block_size),
            extra_refs=sum(run.private_refs.values()),
        )
        c["events_refs"] += len(run.trace)
        c["events"] += len(events)
        c["core_calls"] += 1
        c["sim_refs"] += len(run.trace)
        c[f"kernel.{model.protocol}.{sim.kernel}"] += 1
        if sim.kernel == "native":
            c["core_native"] += 1
        else:
            c["core_python"] += 1
        return sim

    def timing(self, wl, run, sim) -> float:
        res = self.t.call(
            "machine.timing", execution_time, run, sim, KSR2Config(cpi=wl.cpi)
        )
        return float(res.cycles)

    # -- dynamic / verify ----------------------------------------------------

    def mitigate(self, checked, layout, run, nprocs, bs, model, pa, base_plan):
        dyn = self.t.call(
            "dynamic.mitigate", mitigate, checked, layout, run,
            nprocs=nprocs, block_size=bs, machine=model,
            base_plan=base_plan, analysis=pa,
        )
        self.c["phases"] += len(dyn.phases)
        self.c["repairs"] += len(dyn.repairs)
        self.c["sim_refs"] += len(run.trace)
        return dyn

    def oracle_base(self, wl, checked, nprocs: int):
        """The natural version's observed state, which every plan's
        state is compared with."""
        cache = self._oracle.setdefault(wl.name, {})
        base = cache.get("__base__")
        if base is None:
            base = cache["__base__"] = self.t.call(
                "verify.oracle", observe, checked, None, nprocs
            )[0]
        return base

    def verified(self, wl, checked, plan, nprocs: int) -> bool:
        """Oracle check of one accumulated plan, memoized per plan
        fingerprint as the ``dynamic`` driver does."""
        if plan.is_empty:
            return True
        cache = self._oracle.setdefault(wl.name, {})
        ok = cache.get(plan.fingerprint)
        if ok is None:
            base = self.oracle_base(wl, checked, nprocs)
            state = self.t.call(
                "verify.oracle", observe, checked, plan, nprocs
            )[0]
            ok = cache[plan.fingerprint] = not self.t.call(
                "verify.oracle", diff_states, base, state
            )
            self.c["plans_checked"] += 1
            self.c["plans_ok"] += int(ok)
        return ok


def trace_bytes(run) -> int:
    tr = run.trace
    return int(tr.proc.nbytes + tr.addr.nbytes + tr.size.nbytes + tr.is_write.nbytes)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload.

    ``groups`` lists the operations of one pass, one group per program:
    the group's first operation prepares what the product's drivers
    prepare once per program (compiled program, analysis, plan, loaded
    runs), so that later operations cost the same in any order.
    ``run_op`` performs an operation and returns its result (None for a
    preparing one); ``check_pass`` returns the operations of a finished
    pass whose outputs are wrong; ``final_check`` does the same once,
    outside the timed passes, for checks too costly to time;
    ``summary`` gives the simulated end-to-end metrics.
    """

    name = ""
    #: True when each pass starts from an empty store; False when every
    #: pass replays a store filled during set-up
    cold = True

    def __init__(self, short: bool, seed: int):
        self.short = short
        self.seed = seed

    def prefill_points(self) -> list:
        return []

    def groups(self) -> list[list]:
        raise NotImplementedError

    def run_op(self, p: Pass, point):
        raise NotImplementedError

    def check_pass(self, results: dict) -> set:
        return set()

    def final_check(self, results: dict, tracer) -> set:
        return set()

    def summary(self, results: dict) -> tuple[float, float]:
        raise NotImplementedError


PREPARE = "prepare"


class Grid(Workload):
    """Figure 3 + Table 2: the simulation programs x N, C and the C[kind]
    attribution plans at ``fig3_procs``, block sizes 8-256, on ksr2."""

    name = "grid-cold"

    def __init__(self, short: bool, seed: int):
        super().__init__(short, seed)
        ref = json.loads(REFERENCE_FILE.read_text())
        self.reference = ref["misses"]
        self._points = [tuple(p) for p in ref["points"]]
        if short:
            self._points = [p for p in self._points if p[0] == "Maxflow"]
        self.model = get_machine("ksr2")

    def groups(self) -> list[list]:
        names = dict.fromkeys(p[0] for p in self._points)
        return [
            [(PREPARE, name)] + [p for p in self._points if p[0] == name]
            for name in names
        ]

    def prefill_points(self) -> list:
        return list(self._points)

    def run_op(self, p: Pass, point):
        if point[0] == PREPARE:
            # table2 derives every program's compiler plan before it runs
            wl = by_name(point[1])
            p.plan(wl, "C", wl.fig3_procs)
            return None
        name, version, nprocs = point
        wl = by_name(name)
        _, _, layout, run = p.execute(wl, version, nprocs)
        regions = p.t.call(
            "layout.build", build_region_map, layout, run.heap_segments
        )
        out = {"misses": {}, "rates": {}, "fs": {}}
        for bs in GRID_BLOCK_SIZES:
            sim = p.simulate(run, self.model, bs)
            p.t.call("obs.attribution", fs_table, sim, regions)
            out["misses"][bs] = miss_tuple(sim)
            out["rates"][bs] = (sim.miss_rate, sim.fs_miss_rate)
            out["fs"][bs] = sim.misses.false_sharing
            if bs == TIMING_BLOCK:
                out["cycles"] = p.timing(wl, run, sim)
        return out

    def check_pass(self, results: dict) -> set:
        bad = set()
        for point, out in results.items():
            for bs, got in out["misses"].items():
                want = self.reference.get(ref_key(point, bs))
                if want is None or list(want) != got:
                    bad.add(point)
        return bad

    def final_check(self, results: dict, tracer) -> set:
        """The product's own Figure 3 and Table 2 drivers must produce
        the same numbers for the same points."""
        from repro.sim import simcache

        names = sorted({p[0] for p in results})
        wls = [by_name(n) for n in names]
        simcache.clear()
        lab = experiments.WorkloadLab(jobs=1)
        fig3 = experiments.figure3(wls, lab=lab)
        tab2 = experiments.table2(wls, lab=lab)
        bad = set()
        for row in fig3.rows:
            for (bs, version), cell in row.cells.items():
                point = (row.program, version, row.nprocs)
                got = results.get(point)
                if got is None or got["rates"][bs] != (cell.miss_rate, cell.fs_rate):
                    bad.add(point)
        for row in tab2.rows:
            mine = [p for p in results if p[0] == row.program]
            kinds = {p[1][2:-1] for p in mine if p[1].startswith("C[")}
            nprocs = mine[0][2] if mine else None
            n = results.get((row.program, "N", nprocs))
            c = results.get((row.program, "C", nprocs))
            ok = (
                n is not None and c is not None
                and kinds == set(row.by_transform)
                and math.isclose(
                    reduction(n["fs"], c["fs"], GRID_BLOCK_SIZES) * 100.0,
                    row.total_reduction, rel_tol=1e-12, abs_tol=1e-12,
                )
            )
            if not ok:
                bad.update(mine)
        return bad

    def summary(self, results: dict) -> tuple[float, float]:
        reds, ratios = [], []
        for name in sorted({p[0] for p in results}):
            n = next(v for k, v in results.items() if k[0] == name and k[1] == "N")
            c = next(v for k, v in results.items() if k[0] == name and k[1] == "C")
            reds.append(reduction(n["fs"], c["fs"], GRID_BLOCK_SIZES))
            ratios.append(c["cycles"] / n["cycles"])
        return 100.0 * mean(reds), mean(ratios)


class GridWarm(Grid):
    """The same point set, every trace replayed from a filled store."""

    name = "grid-warm"
    cold = False


def ref_key(point, bs) -> str:
    name, version, nprocs = point
    return f"{name}/{version}/{nprocs}/{bs}"


def grid_points() -> list:
    """Table 2's point set, derived as ``experiments.table2`` derives it
    (used to write the reference file)."""
    pts = []
    for wl in SIMULATION_WORKLOADS:
        nprocs = wl.fig3_procs
        plan = decide_transformations(
            analyze_program(compile_source(wl.source), nprocs),
            block_size=LAYOUT_BLOCK,
        )
        pts += [(wl.name, "N", nprocs), (wl.name, "C", nprocs)]
        pts += [
            (wl.name, f"C[{kind}]", nprocs)
            for kind in sorted(ALL_KINDS)
            if not plan.restricted_to({kind}).is_empty
        ]
    return pts


class Dynamic(Workload):
    """``--figure dynamic``: the golden trio x ksr2/modern64/numa2 x
    {4, 64, 128} B at 8 procs, four arms per cell, oracle-checked."""

    name = "dynamic"
    cold = False
    ARMS = ("natural", "static", "dynamic", "hybrid")

    def __init__(self, short: bool, seed: int):
        super().__init__(short, seed)
        self.workloads = ("Maxflow",) if short else experiments.DYNAMIC_WORKLOADS
        self.machines = ("ksr2", "modern64") if short else experiments.DYNAMIC_MACHINES
        self.block_sizes = experiments.DYNAMIC_BLOCK_SIZES
        self.nprocs = experiments.DYNAMIC_NPROCS

    def groups(self) -> list[list]:
        return [
            [(PREPARE, w)]
            + [(w, m, arm) for m in self.machines for arm in self.ARMS]
            for w in self.workloads
        ]

    def prefill_points(self) -> list:
        return [(w, v, self.nprocs) for w in self.workloads for v in ("N", "C")]

    def run_op(self, p: Pass, point):
        if point[0] == PREPARE:
            # what the dynamic driver does once per program
            wl = by_name(point[1])
            checked = p.execute(wl, "N", self.nprocs)[0]
            p.execute(wl, "C", self.nprocs)
            p.analysis(wl, self.nprocs)
            p.oracle_base(wl, checked, self.nprocs)
            return None
        name, mname, arm = point
        wl = by_name(name)
        model = get_machine(mname)
        nprocs = self.nprocs
        version = "N" if arm in ("natural", "dynamic") else "C"
        checked, plan, layout, run = p.execute(wl, version, nprocs)
        out = {"fs": {}, "verified": True}
        if arm in ("natural", "static"):
            for bs in self.block_sizes:
                sim = p.simulate(run, model, bs)
                out["fs"][bs] = sim.misses.false_sharing
                if bs == TIMING_BLOCK and mname == "ksr2":
                    out["cycles"] = p.timing(wl, run, sim)
            return out
        pa = p.analysis(wl, nprocs)
        for bs in self.block_sizes:
            dyn = p.mitigate(checked, layout, run, nprocs, bs, model, pa, plan)
            out["fs"][bs] = dyn.result.misses.false_sharing
            out["verified"] &= p.verified(wl, checked, dyn.plan, nprocs)
        return out

    def check_pass(self, results: dict) -> set:
        bad = {pt for pt, out in results.items() if not out["verified"]}
        for (w, m, arm), out in results.items():
            if arm != "hybrid":
                continue
            st = results.get((w, m, "static"))
            dy = results.get((w, m, "dynamic"))
            if st is None or dy is None or any(
                out["fs"][bs] > min(st["fs"][bs], dy["fs"][bs])
                for bs in self.block_sizes
            ):
                bad.add((w, m, arm))
        return bad

    def summary(self, results: dict) -> tuple[float, float]:
        reds, ratios = [], []
        for w in self.workloads:
            for m in self.machines:
                reds.append(reduction(
                    results[(w, m, "natural")]["fs"],
                    results[(w, m, "hybrid")]["fs"], self.block_sizes,
                ))
            ratios.append(
                results[(w, "ksr2", "static")]["cycles"]
                / results[(w, "ksr2", "natural")]["cycles"]
            )
        return 100.0 * mean(reds), mean(ratios)


class StealCold(Workload):
    """``--figure rws``: the golden trio x {4, 8} procs, one rr run and
    three steal runs each, at {4, 64, 128} B, from an empty store.  The
    benchmark seed picks the three steal seeds."""

    name = "steal-cold"

    def __init__(self, short: bool, seed: int):
        super().__init__(short, seed)
        rng = random.Random(f"steal-cold/{seed}")
        self.seeds = tuple(sorted(rng.sample(range(1, 10_000), 1 if short else 3)))
        self.workloads = ("Maxflow",) if short else experiments.RWS_WORKLOADS
        self.proc_counts = (4,) if short else experiments.RWS_PROC_COUNTS
        self.block_sizes = experiments.RWS_BLOCK_SIZES
        self.model = get_machine("ksr2")
        self.golden = {}
        golden_dir = Path.cwd() / "tests" / "golden"
        for w in self.workloads:
            path = golden_dir / f"{w.lower()}.json"
            if path.exists():
                self.golden[w] = json.loads(path.read_text())
        #: counts seen for each point, to check that a seed repeats exactly
        self.seen: dict = {}

    def groups(self) -> list[list]:
        return [
            [(PREPARE, w)]
            + [(w, n, s) for n in self.proc_counts for s in ("rr",) + self.seeds]
            for w in self.workloads
        ]

    def sched(self, s) -> SchedConfig:
        return RR if s == "rr" else SchedConfig("steal", seed=s)

    def run_op(self, p: Pass, point):
        if point[0] == PREPARE:
            p.checked(by_name(point[1]))
            return None
        name, nprocs, s = point
        wl = by_name(name)
        _, _, _, run = p.execute(wl, "N", nprocs, self.sched(s))
        out = {"misses": {}, "fs": {}, "golden": {},
               "sched": dict(run.sched or {})}
        for bs in self.block_sizes:
            sim = p.simulate(run, self.model, bs)
            out["misses"][bs] = miss_tuple(sim)
            out["fs"][bs] = sim.misses.false_sharing
            out["golden"][bs] = golden_record(sim)
            if bs == TIMING_BLOCK:
                out["cycles"] = p.timing(wl, run, sim)
        return out

    def check_pass(self, results: dict) -> set:
        bad = set()
        for point, out in results.items():
            name, nprocs, s = point
            prev = self.seen.setdefault(point, out)
            if (prev["misses"], prev["sched"]) != (out["misses"], out["sched"]):
                bad.add(point)
            if s == "rr":
                gold = self.golden.get(name)
                if gold is not None and gold["nprocs"] == nprocs:
                    for bs, rec in gold["versions"]["N"]["misses"].items():
                        if int(bs) in out["golden"] and out["golden"][int(bs)] != rec:
                            bad.add(point)
                continue
            rr = results.get((name, nprocs, "rr"))
            if rr is None or any(
                out["fs"][bs] > fs_bound(
                    rr["fs"][bs], out["sched"]["steals"], bs, nprocs
                )
                for bs in self.block_sizes
            ):
                bad.add(point)
        return bad

    def final_check(self, results: dict, tracer) -> set:
        """Interpret one steal point again, bypassing the store: the same
        seed must give identical counts."""
        steal_pts = sorted(p for p in results if p[2] != "rr")
        point = random.Random(self.seed).choice(steal_pts)
        name, nprocs, s = point
        wl = by_name(name)
        checked = compile_source(wl.source)
        layout = DataLayout(checked, None, block_size=LAYOUT_BLOCK, nprocs=nprocs)
        run = run_program(
            checked, layout, nprocs, quantum=QUANTUM, max_steps=MAX_STEPS,
            sched=self.sched(s),
        )
        again = Pass(tracer)
        misses = {
            bs: miss_tuple(again.simulate(run, self.model, bs))
            for bs in self.block_sizes
        }
        out = results[point]
        if misses != out["misses"] or dict(run.sched) != out["sched"]:
            return {point}
        return set()

    def summary(self, results: dict) -> tuple[float, float]:
        reds, ratios = [], []
        for (name, nprocs, s), out in sorted(results.items(), key=str):
            if s == "rr":
                continue
            rr = results[(name, nprocs, "rr")]
            reds.append(reduction(rr["fs"], out["fs"], self.block_sizes))
            ratios.append(out["cycles"] / rr["cycles"])
        return 100.0 * mean(reds), mean(ratios)


def golden_record(sim) -> dict:
    """A simulation in the golden snapshots' per-block-size form."""
    m = sim.misses
    return {
        "cold": m.cold, "replace": m.replace,
        "true_sharing": m.true_sharing, "false_sharing": m.false_sharing,
        "total": m.total, "refs": sim.refs,
        "invalidations": sim.invalidations, "writebacks": sim.writebacks,
        "upgrades": sim.upgrades,
    }


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs)


WORKLOADS = {w.name: w for w in (Grid, GridWarm, Dynamic, StealCold)}
