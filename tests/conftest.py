"""Shared fixtures: small parallel-C programs exercising every subsystem."""

from __future__ import annotations

import os

import pytest

from repro.lang import compile_source


def interpret(checked, layout, nprocs: int, **kw):
    """Interpret ``layout`` directly.  ``run_program`` translates an
    indirection-free layout from the program's first interpreted run, so
    a check that values or the interleaving do not depend on the layout
    must interpret both sides."""
    from repro.runtime import Interpreter

    return Interpreter(checked, layout, nprocs, **kw).run()


def plant_entry(store, key: str, data: bytes):
    """Publish raw ``data`` as ``key``'s entry in the trace cache's
    ``store`` through its own publish path, so the sidecar vouches for
    the payload; returns the payload path."""
    tmp = store.payload_path(key).with_name(".tmp-plant")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_bytes(data)
    store.publish(key, tmp)
    return store.payload_path(key)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current pipeline "
        "instead of diffing against them",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Point the persistent trace cache at a throwaway directory so the
    suite neither reads stale entries nor litters the user's cache."""
    old = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = str(
        tmp_path_factory.mktemp("trace-cache")
    )
    yield
    if old is None:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    else:
        os.environ["REPRO_TRACE_CACHE"] = old

#: The canonical counter kernel: textbook false sharing on `counter`,
#: a shared total behind a lock, one barrier phase boundary.
COUNTER_SRC = """
lock_t biglock;
int counter[16];
double sums[16];
int total;

void worker(int pid)
{
    int i;
    for (i = 0; i < 40; i++) {
        counter[pid] += 1;
        sums[pid] = sums[pid] + 1.5;
    }
    barrier();
    lock(&biglock);
    total = total + counter[pid];
    unlock(&biglock);
}

int main()
{
    int p;
    total = 0;
    for (p = 0; p < nprocs(); p++) {
        create(worker, p);
    }
    wait_for_end();
    print(total);
    return 0;
}
"""

#: Heap records reached through a partitioned pointer array: the
#: indirection case.
HEAP_SRC = """
struct node {
    int value;
    int count;
    int tag;
};

struct node *nodes[32];
int done[64];

void worker(int pid)
{
    int i;
    int r;
    for (r = 0; r < 6; r++) {
        for (i = pid; i < 32; i += nprocs()) {
            nodes[i]->count += 1;
            nodes[i]->value = nodes[i]->value + i;
        }
        barrier();
    }
    done[pid] = 1;
}

int main()
{
    int i;
    int p;
    struct node *np;
    for (i = 0; i < 32; i++) {
        np = alloc(struct node);
        np->tag = i;
        nodes[i] = np;
    }
    for (i = 0; i < 64; i++) {
        done[i] = 0;
    }
    for (p = 0; p < nprocs(); p++) {
        create(worker, p);
    }
    wait_for_end();
    print(nodes[0]->count);
    return 0;
}
"""

#: Blocked partition with an invariant chunk global and two phases.
BLOCKED_SRC = """
int data[96];
int acc[64];
int chunk;

void worker(int pid)
{
    int i;
    for (i = pid * chunk; i < pid * chunk + chunk; i++) {
        data[i] = data[i] + 1;
    }
    barrier();
    for (i = pid * chunk; i < pid * chunk + chunk; i++) {
        acc[pid] += data[i];
    }
}

int main()
{
    int i;
    int p;
    for (i = 0; i < 96; i++) {
        data[i] = i % 5;
    }
    for (i = 0; i < 64; i++) {
        acc[i] = 0;
    }
    chunk = 96 / nprocs();
    for (p = 0; p < nprocs(); p++) {
        create(worker, p);
    }
    wait_for_end();
    print(acc[0]);
    return 0;
}
"""


@pytest.fixture(scope="session")
def workload_run():
    """Interpret each workload once per session (natural layout, 4
    procs) and share the run across the engine-equivalence tests."""
    from repro.harness.pipeline import Pipeline

    runs: dict[str, object] = {}

    def get(wl, nprocs: int = 4):
        key = (wl.name, nprocs)
        if key not in runs:
            runs[key] = Pipeline(wl.source).execute(nprocs).run
        return runs[key]

    return get


@pytest.fixture(scope="session")
def counter_checked():
    return compile_source(COUNTER_SRC)


@pytest.fixture(scope="session")
def heap_checked():
    return compile_source(HEAP_SRC)


@pytest.fixture(scope="session")
def blocked_checked():
    return compile_source(BLOCKED_SRC)
