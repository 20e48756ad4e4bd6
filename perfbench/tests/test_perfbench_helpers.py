"""Unit tests for the benchmark's own helpers (span arithmetic, names, tracer)."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from spans import Tracer, check_metric_name, self_time, union_length  # noqa: E402


def test_union_of_disjoint_nested_and_overlapping_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0  # nested
    assert union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0  # overlapping
    assert union_length([(1.0, 3.0), (0.0, 2.0), (3.0, 5.0)]) == 5.0  # unsorted, touching
    assert union_length([(2.0, 2.0), (3.0, 1.0)]) == 0.0  # empty and inverted


def test_self_time_subtracts_each_covered_instant_once():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # a grandchild nested in a child, and two overlapping children
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0), (4.0, 7.0)]) == 4.0
    # children reaching outside the parent only count inside it
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert self_time(0.0, 1.0, [(0.0, 1.0)]) == 0.0


@pytest.mark.parametrize("name", ["steps_per_s", "setup_s", "oracle.queries",
                                  "learner.us_per_step.active-median", "9lives", "a" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "risk/s", "tab\t", "ünits", "-lead", ".lead",
                                  "a" * 65, "x\n", None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_tracer_nests_spans_counts_calls_and_restores():
    mod = types.ModuleType("toy")

    def leaf(x):
        return x + 1

    def driver(n):
        return sum(mod.leaf(i) for i in range(n))

    def broken():
        raise KeyError("boom")

    mod.leaf, mod.driver, mod.broken, mod.tick = leaf, driver, broken, lambda: None
    tracer = Tracer()
    tracer.span(mod, "leaf", "toy.leaf")
    tracer.span(mod, "driver", "toy.driver", note=lambda a, k, r: {"n": a[0]},
                ends_trial=True)
    tracer.span(mod, "broken", "toy.broken")
    tracer.count(mod, "tick", "toy.tick")
    try:
        assert mod.driver(3) == 6
        mod.tick()
        mod.tick()
        with pytest.raises(KeyError):
            mod.broken()
        with pytest.raises(LookupError):
            tracer.span(mod, "missing", "toy.missing")
    finally:
        tracer.restore()
    assert (mod.leaf, mod.driver, mod.broken) == (leaf, driver, broken)

    view = tracer.view()
    (d,) = view.of("toy.driver")
    leaves = view.of("toy.leaf")
    assert len(leaves) == 3 and all(tracer.parent[i] == d for i in leaves)
    assert view.ok_children(d, "toy.leaf") == 3
    assert tracer.notes[d] == {"n": 3}
    assert {tracer.trial[i] for i in leaves} == {tracer.trial[d]}
    (b,) = view.of("toy.broken")
    assert tracer.ok[b] == 0 and tracer.trial[b] != tracer.trial[d]
    assert tracer.counts["toy.tick"] == 2
    assert 0.0 <= view.self_time(d) <= view.duration(d)


def test_benchmark_json_names_are_valid_and_unique():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
