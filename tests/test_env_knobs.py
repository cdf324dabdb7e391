"""The set of ``REPRO_*`` environment knobs is pinned.

Every knob the package reads (or names in its docs and help text) must
be listed here and in the README's knob table, so a new knob is added
on purpose, documented, and counted — and a removed one drops out of
both places at once.
"""

import re
from pathlib import Path

import repro

KNOBS = {
    "REPRO_BENCH_SENTINEL",
    "REPRO_JOBS",
    "REPRO_KERNEL_CACHE",
    "REPRO_MACHINE",
    "REPRO_OBS_STORE",
    "REPRO_PROFILE",
    "REPRO_RUN_LOG",
    "REPRO_SCHED",
    "REPRO_SCHED_GRAIN",
    "REPRO_SCHED_SEED",
    "REPRO_SIM_KERNEL",
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_CACHE_MAX_MB",
    "REPRO_TRACE_CACHE_MIN",
    "REPRO_TRACE_OUT",
    "REPRO_VERIFY_BREAK",
}

_KNOB = re.compile(r"REPRO_[A-Z_]+")
_PACKAGE = Path(repro.__file__).resolve().parent
_README = _PACKAGE.parents[1] / "README.md"


def test_source_knobs_are_the_pinned_set():
    found = set()
    for path in _PACKAGE.rglob("*"):
        if path.suffix in (".py", ".c"):
            found |= set(_KNOB.findall(path.read_text(encoding="utf-8")))
    assert found == KNOBS, (
        f"new: {sorted(found - KNOBS)}, gone: {sorted(KNOBS - found)}"
    )


def test_readme_table_lists_every_knob():
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)`", _README.read_text(
        encoding="utf-8"), flags=re.M)
    assert len(rows) == len(set(rows)), "a knob is listed twice"
    assert set(rows) == KNOBS
