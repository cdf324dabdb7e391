"""Section-5 headline statistics: at 128-byte blocks ~70% of misses are
false sharing; the transformations eliminate ~80% of them while raising
other misses ~19%; total misses roughly halve (49% at 64 bytes)."""

from pytest import approx

from conftest import emit

from repro.harness import headline, render_headline


def test_headline(benchmark, lab):
    stats = benchmark.pedantic(
        lambda: headline(lab=lab), rounds=1, iterations=1
    )
    emit("Section 5 headline statistics", render_headline(stats))

    # The measured values (results/section_5_headline_statistics.txt,
    # compared with the paper in EXPERIMENTS.md), within 2 points: a
    # fidelity drift fails here instead of being rediscovered later.
    band = dict(abs=0.02)
    assert stats.fs_fraction_of_misses == approx(0.835, **band)
    assert stats.fs_eliminated == approx(0.898, **band)
    assert stats.other_miss_increase == approx(0.510, **band)
    assert stats.total_miss_reduction_128 == approx(0.666, **band)
    assert stats.total_miss_reduction_64 == approx(0.634, **band)
