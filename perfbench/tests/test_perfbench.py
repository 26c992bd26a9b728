"""Fast checks of the benchmark's own machinery: span arithmetic, patch
hygiene, seeded inputs, and that tracing leaves results bit-identical."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracing import (Span, Tracer, install, iteration_windows,  # noqa: E402
                     layer_totals, plain_targets, self_times)
from workloads import Workload, build_problem, seeded_design  # noqa: E402

TINY = Workload("tiny", "gripper", 8e-3, iterations=2, setup_repeats=1,
                why="test")


@pytest.fixture(scope="module")
def tiny_problem():
    return build_problem(TINY, seed=3)


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("a", 2.0, 4.0, 0, 1),      # overlaps the first child
        Span("b", 5.0, 6.0, 0, 1),
        Span("c", 5.2, 5.5, 3, 1),
        Span("b", 9.5, 11.0, 0, 1),     # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 2.0, 0.7, 0.3, 1.5])
    totals = layer_totals(spans, keep=lambda s: s.name != "root")
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(4.0)
    assert totals["b"]["total_s"] == pytest.approx(2.5)
    assert "root" not in totals


def test_tracer_spans_nest_and_self_times_sum_to_root():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.iteration = 2
    with tr.span("outer"):
        with tr.span("inner") as sp:
            sp.value = 3
        with pytest.raises(ZeroDivisionError):
            with tr.span("failing"):
                1 / 0
    assert [s.parent for s in tr.spans] == [-1, 0, 0]
    assert tr.spans[2].error == "ZeroDivisionError"
    assert {s.iteration for s in tr.spans} == {2}
    root = tr.spans[0]
    assert sum(self_times(tr.spans)) == pytest.approx(root.end - root.start)
    json.dumps(tr.to_json())


def test_iteration_windows_join_mma_update_and_evaluation():
    spans = [
        Span("optimizer.evaluate_design", 0.0, 1.0, -1, 1),
        Span("optimizer.mma_update", 1.5, 2.0, -1, 2),
        Span("optimizer.evaluate_design", 2.0, 3.0, -1, 2),
        Span("assembly.internal_force_and_tangent", 2.1, 2.2, 2, 2),
    ]
    assert iteration_windows(spans) == [(0.0, 1.0), (1.5, 3.0)]


def _patched_attributes():
    from varibc import adjoint, optimizer, solver

    targets = [(m, a) for m, a, _ in plain_targets()]
    targets += [(optimizer, "evaluate_design"), (optimizer, "mma_update"),
                (optimizer, "StateAdjoint"), (solver, "splu"),
                (adjoint, "splu")]
    return targets


def test_uninstall_restores_every_patched_attribute():
    targets = _patched_attributes()
    before = [getattr(m, a) for m, a in targets]
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(layers=True):
            assert all(getattr(m, a) is not b
                       for (m, a), b in zip(targets, before))
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is b for (m, a), b in zip(targets, before))
    install(tr, layers=False)
    tr.uninstall()
    assert all(getattr(m, a) is b for (m, a), b in zip(targets, before))


def test_seeded_design_is_deterministic_and_in_bounds(tiny_problem):
    from varibc import problems

    base = problems.make_problem("gripper", element_size=TINY.element_size)
    a, b = seeded_design(base, 11), seeded_design(base, 11)
    c = seeded_design(base, 12)
    za, zc = a.to_array(), c.to_array()
    assert za.tobytes() == b.to_array().tobytes()
    assert not np.array_equal(za, zc)
    assert np.all((base.lower <= za) & (za <= base.upper))
    assert not np.array_equal(za, base.design0.to_array())
    again = build_problem(TINY, seed=3)
    assert (again.design0.to_array().tobytes()
            == tiny_problem.design0.to_array().tobytes())


def test_traced_run_equals_untraced_bit_for_bit(tiny_problem):
    plain, _, _ = run.run_budget(tiny_problem, TINY, Tracer(), layers=False)
    tracer = Tracer()
    traced, tracer, stats = run.run_budget(tiny_problem, TINY, tracer,
                                           layers=True)
    assert len(plain.history) == TINY.iterations
    assert run.fingerprint(traced) == run.fingerprint(plain)

    m = run.layer_metrics(tracer, stats, untraced_run_s=0.0)
    assert list(m) == [name for name, _, _ in run.PER_LAYER]
    assert m["assembly.internal_force_and_tangent.calls"] > 0
    assert m["solver.lu_solve.rhs"] >= m["solver.splu.calls"]
    in_run = sum(v for k, v in m.items() if k.endswith(".self_s")
                 and k[:-len(".self_s")] not in run.SETUP_LAYERS)
    assert in_run + m["trace.unattributed_s"] == pytest.approx(
        m["trace.run_s"], rel=1e-12)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    from workloads import WORKLOADS
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
