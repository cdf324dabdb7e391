"""Golden conformance snapshots.

A snapshot is the canonical JSON record of everything the paper's
experiments derive from one workload: per-block-size miss breakdowns
for the N (natural) and C (compiler-transformed) versions, the
program's observable output, and the compiler plan itself.  Checked-in
snapshots under ``tests/golden/`` pin the whole stack — lexer through
simulator — so any unintended behavioural change diffs loudly in CI,
while an intended change is a one-flag refresh
(``pytest --update-golden``).

The snapshot doubles as the metamorphic fixture for the paper's core
claim: for every block size the C version's false-sharing misses must
not exceed the N version's (:func:`fs_not_increased`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.pipeline import Pipeline, VersionRun
from repro.runtime.stealing import RR, SchedConfig, fs_bound
from repro.workloads.registry import by_name

#: The conformance trio: between them they exercise all four transforms
#: (Maxflow: pad & align + lock padding; Pverify: indirection + group &
#: transpose; Radiosity: group & transpose + record/lock padding).
GOLDEN_WORKLOADS = ("Maxflow", "Pverify", "Radiosity")
GOLDEN_NPROCS = 4
GOLDEN_BLOCK_SIZES = (32, 64, 128)

#: Steal-schedule RNG seeds pinned by the cross-scheduler snapshots.
GOLDEN_SCHED_SEEDS = (1, 2, 3)

#: Block sizes in the cross-scheduler snapshots: the word size joins the
#: trio so the FS==0-at-word-blocks obligation is pinned per seed too.
GOLDEN_SCHED_BLOCK_SIZES = (4,) + GOLDEN_BLOCK_SIZES

#: Schema tag — bump when the snapshot shape changes.
SCHEMA = 1


def default_golden_dir() -> Path:
    """``tests/golden/`` relative to the repo root (best effort)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "tests" / "golden"
        if (parent / "ROADMAP.md").exists() or cand.exists():
            return cand
    return Path("tests") / "golden"


def golden_path(name: str, directory: Path | None = None) -> Path:
    d = directory if directory is not None else default_golden_dir()
    return d / f"{name.lower()}.json"


def _version_record(vr: VersionRun, block_sizes) -> dict:
    misses = {}
    for bs in block_sizes:
        res = vr.simulate(bs)
        m = res.misses
        misses[str(bs)] = {
            "cold": m.cold,
            "replace": m.replace,
            "true_sharing": m.true_sharing,
            "false_sharing": m.false_sharing,
            "total": m.total,
            "refs": res.refs,
            "invalidations": res.invalidations,
            "writebacks": res.writebacks,
            "upgrades": res.upgrades,
        }
    return {
        "exit_value": vr.run.exit_value,
        "output": list(vr.run.output),
        "misses": misses,
    }


def compute_snapshot(
    name: str,
    *,
    nprocs: int = GOLDEN_NPROCS,
    block_sizes=GOLDEN_BLOCK_SIZES,
) -> dict:
    """Run one workload's N and C versions and fold the results into
    the canonical (JSON-serializable, sorted) snapshot form."""
    wl = by_name(name)
    pipe = Pipeline(wl.source)
    plan = pipe.compiler_plan(nprocs)
    return {
        "schema": SCHEMA,
        "workload": wl.name,
        "nprocs": nprocs,
        "block_sizes": list(block_sizes),
        "plan": plan.describe(),
        "versions": {
            "N": _version_record(pipe.run_unoptimized(nprocs), block_sizes),
            "C": _version_record(pipe.run_compiler(nprocs), block_sizes),
        },
    }


def sched_golden_path(name: str, directory: Path | None = None) -> Path:
    d = directory if directory is not None else default_golden_dir()
    return d / f"sched_{name.lower()}.json"


def compute_sched_snapshot(
    name: str,
    *,
    nprocs: int = GOLDEN_NPROCS,
    block_sizes=GOLDEN_SCHED_BLOCK_SIZES,
    seeds=GOLDEN_SCHED_SEEDS,
) -> dict:
    """Run one workload's natural version under round-robin and under
    randomized work stealing at each pinned seed.

    The snapshot pins (a) the exact rr miss breakdown, (b) the exact
    steal miss breakdown *and* steal counters per seed — any change to
    the steal scheduler's dispatch or RNG consumption order diffs
    loudly here — and (c) the inputs of the Cole–Ramachandran
    fs-sanity check (:func:`steal_fs_within_bound`).
    """
    wl = by_name(name)
    rr_pipe = Pipeline(wl.source, sched=RR)
    record = {
        "schema": SCHEMA,
        "workload": wl.name,
        "nprocs": nprocs,
        "block_sizes": list(block_sizes),
        "rr": _version_record(rr_pipe.run_unoptimized(nprocs), block_sizes),
        "steal": {},
    }
    for seed in seeds:
        pipe = Pipeline(
            wl.source, sched=SchedConfig("steal", seed=seed)
        )
        vr = pipe.run_unoptimized(nprocs)
        rec = _version_record(vr, block_sizes)
        rec["sched"] = vr.run.sched
        record["steal"][str(seed)] = rec
    return record


def steal_fs_within_bound(snapshot: dict) -> list[str]:
    """The rws sanity property: at every block size and seed, the steal
    execution's false-sharing misses must sit inside the
    Cole–Ramachandran bound computed from the rr execution's FS count
    and the run's own steal counter
    (:func:`repro.runtime.stealing.fs_bound`)."""
    out = []
    nprocs = snapshot["nprocs"]
    rr_misses = snapshot["rr"]["misses"]
    for seed, rec in sorted(snapshot["steal"].items()):
        steals = rec["sched"]["steals"]
        for bs in snapshot["block_sizes"]:
            fs_rr = rr_misses[str(bs)]["false_sharing"]
            fs_steal = rec["misses"][str(bs)]["false_sharing"]
            bound = fs_bound(fs_rr, steals, bs, nprocs)
            if fs_steal > bound:
                out.append(
                    f"{snapshot['workload']} seed={seed} bs={bs}: steal "
                    f"FS {fs_steal} exceeds bound {bound} "
                    f"(rr FS {fs_rr}, {steals} steals)"
                )
    return out


def dumps(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save(snapshot: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(snapshot))


def _walk_diff(expected, actual, prefix: str, out: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                out.append(f"{where}: unexpected (not in golden)")
            elif key not in actual:
                out.append(f"{where}: missing from actual")
            else:
                _walk_diff(expected[key], actual[key], where, out)
        return
    if expected != actual:
        out.append(f"{prefix}: golden {expected!r}, actual {actual!r}")


def diff(expected: dict, actual: dict) -> list[str]:
    """All leaf-level differences between two snapshots."""
    out: list[str] = []
    _walk_diff(expected, actual, "", out)
    return out


def fs_not_increased(snapshot: dict) -> list[str]:
    """The metamorphic property: at every recorded block size, the
    transformed version must carry no more false-sharing misses than
    the natural one."""
    out = []
    n = snapshot["versions"]["N"]["misses"]
    c = snapshot["versions"]["C"]["misses"]
    for bs in snapshot["block_sizes"]:
        fn = n[str(bs)]["false_sharing"]
        fc = c[str(bs)]["false_sharing"]
        if fc > fn:
            out.append(
                f"{snapshot['workload']} bs={bs}: C has {fc} "
                f"false-sharing misses, N has {fn}"
            )
    return out
