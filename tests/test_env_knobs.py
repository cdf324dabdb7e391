"""The set of ``REPRO_*`` environment knobs is pinned.

Every knob the package reads (or names in its docs and help text) must
be listed here and in the README's knob table, so a new knob is added
on purpose, documented, and counted — and a removed one drops out of
both places at once.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError

KNOBS = {
    "REPRO_JOBS",
    "REPRO_KERNEL_CACHE",
    "REPRO_MACHINE",
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


# ---------------------------------------------------------------------------
# numeric knobs: malformed values are a one-line error, never the default
# ---------------------------------------------------------------------------


def _numeric_knobs():
    from repro.harness.parallel import default_jobs
    from repro.runtime import stealing, trace_cache

    return [
        ("REPRO_JOBS", default_jobs, "an integer"),
        ("REPRO_SCHED_SEED", lambda: stealing.resolve_sched("steal"),
         "an integer"),
        ("REPRO_TRACE_CACHE_MIN", trace_cache.min_refs, "an integer"),
        ("REPRO_TRACE_CACHE_MAX_MB", trace_cache.max_bytes, "a number"),
    ]


@pytest.mark.parametrize("bad", ["abc", "lots", "1.5x", "inf", "nan"])
def test_malformed_numeric_knob_raises(monkeypatch, bad):
    for name, read, kind in _numeric_knobs():
        monkeypatch.setenv(name, bad)
        with pytest.raises(ReproError) as err:
            read()
        assert str(err.value) == f"{name} must be {kind}; got {bad!r}"
        monkeypatch.delenv(name)


def test_unset_or_blank_numeric_knob_is_the_default(monkeypatch):
    from repro.runtime import trace_cache

    for raw in (None, "", "  "):
        for name in ("REPRO_TRACE_CACHE_MIN", "REPRO_TRACE_CACHE_MAX_MB"):
            if raw is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, raw)
        assert trace_cache.min_refs() == 4096
        assert trace_cache.max_bytes() == 0
    monkeypatch.setenv("REPRO_TRACE_CACHE_MAX_MB", "0.5")
    assert trace_cache.max_bytes() == 512 * 1024


def test_malformed_knob_is_a_one_line_cli_error(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_TRACE_CACHE_MAX_MB", "lots")
    assert main(["artifacts", "--stats"]) == 2
    err = capsys.readouterr().err
    assert err == "repro: REPRO_TRACE_CACHE_MAX_MB must be a number; got 'lots'\n"
