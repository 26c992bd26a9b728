"""varibc benchmark: optimizer-iteration time on synthesis workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gripper_h3 --seed 1 --seconds 45 \
        --trace 0

One run builds the workload's problem from the seed, repeats a fixed
optimizer budget through the public API (`make_problem` ->
`run_optimization`) while another repeat fits in `--seconds`, then makes one
traced run of the same budget and one untimed adjoint-vs-central-difference
check. It prints a metric table and, as its last line, one JSON object with
the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
It exits non-zero when the correctness gate fails or the program's sources
are missing. Details and results land in `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = [
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, better); per-layer self times cover the traced run's
# iteration window, except the set-up layers, which cover the traced set-up.
PER_LAYER = [
    ("assembly.internal_force_and_tangent.calls", "count", "lower"),
    ("assembly.internal_force_and_tangent.self_s", "s", "lower"),
    ("assembly.internal_force_and_tangent.ms_per_call", "ms", "lower"),
    ("assembly.residual_vjp.calls", "count", "lower"),
    ("assembly.residual_vjp.self_s", "s", "lower"),
    ("assembly.ElementKinematics.self_s", "s", "lower"),
    ("material.pk2_and_tangent_batch.calls", "count", "lower"),
    ("material.pk2_and_tangent_batch.self_s", "s", "lower"),
    ("solver.solve_equilibrium_path.calls", "count", "lower"),
    ("solver.solve_equilibrium_path.self_s", "s", "lower"),
    ("solver.splu.calls", "count", "lower"),
    ("solver.splu.self_s", "s", "lower"),
    ("solver.lu_nnz_mean", "count", "lower"),
    ("solver.lu_solve.rhs", "count", "lower"),
    ("solver.lu_solve.self_s", "s", "lower"),
    ("solver.corrector_iterations", "count", "lower"),
    ("solver.bisections", "count", "lower"),
    ("solver.useful_attempt_ratio", "ratio", "higher"),
    ("adjoint.StateAdjoint.calls", "count", "lower"),
    ("adjoint.StateAdjoint.self_s", "s", "lower"),
    ("adjoint.splu.calls", "count", "lower"),
    ("adjoint.splu.self_s", "s", "lower"),
    ("adjoint.lu_solve.rhs", "count", "lower"),
    ("adjoint.lu_solve.self_s", "s", "lower"),
    ("adjoint.sensitivity.calls", "count", "lower"),
    ("adjoint.sensitivity.self_s", "s", "lower"),
    ("design_field.evaluate_fields.calls", "count", "lower"),
    ("design_field.evaluate_fields.self_s", "s", "lower"),
    ("design_field.build_filter_matrix.self_s", "s", "lower"),
    ("mma.mmasub.calls", "count", "lower"),
    ("mma.mmasub.self_s", "s", "lower"),
    ("mma.fallbacks", "count", "lower"),
    ("mesh.generate_mesh.self_s", "s", "lower"),
    ("problems.make_problem.self_s", "s", "lower"),
    ("optimizer.evaluate_design.self_s", "s", "lower"),
    ("optimizer.mma_update.self_s", "s", "lower"),
    ("optimizer.factorizations_per_state", "ratio", "lower"),
    ("optimizer.assemblies_per_iteration", "ratio", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

SETUP_LAYERS = ("assembly.ElementKinematics", "design_field.build_filter_matrix",
                "mesh.generate_mesh", "problems.make_problem")

# Directional check of the objective: normalized step, and the tolerance
# class of the adjoint-vs-FD acceptance test for BC-coordinate columns.
FD_STEP = 1e-6
FD_TOL = 1e-3


def _import_program():
    """Import varibc from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "varibc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no varibc sources under {src}")
    sys.path.insert(0, str(src))
    import varibc
    if Path(varibc.__file__).resolve().parent != src / "varibc":
        raise SystemExit(f"perfbench: varibc imported from {varibc.__file__}")


def _blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(problem, workload, seed):
    import numpy
    import scipy

    return {
        "workload": workload.name, "seed": seed,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "elements": problem.mesh.num_elements, "dofs": problem.mesh.num_dofs,
        "design_variables": problem.design0.size,
        "free_design_variables": int((~problem.frozen).sum()),
        "constraints": len(problem.constraints),
        "load_cases": len(problem.load_cases), "steps": problem.steps,
        "iterations_per_run": workload.iterations,
    }


def fingerprint(result):
    """Digest of every history record and the final design, bit for bit."""
    import numpy as np

    h = hashlib.sha256()
    for r in result.history:
        h.update(np.array([r.iteration, r.objective, r.f0, r.max_drho,
                           r.mean_drho, r.solver_bisections,
                           r.solver_iterations, r.path_failed,
                           r.oscillating], dtype=float).tobytes())
        h.update(r.g.tobytes())
        h.update(r.bc.tobytes())
        for k in sorted(r.values):
            h.update(k.encode())
            h.update(np.float64(r.values[k]).tobytes())
    h.update(result.design.to_array().tobytes())
    return h.hexdigest()


class PathStats:
    """`on_iteration` callback that tallies the solver's paths and moves the
    tracer on to the next iteration."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.evaluations = self.failed = 0
        self.requested = self.converged = 0
        self.bisections = self.corrector_iterations = 0

    def __call__(self, record, design, evaluation):
        self.tracer.iteration = record.iteration + 1
        self.evaluations += 1
        self.failed += bool(evaluation.failed)
        for p in evaluation.paths:
            self.requested += len(p.requested_states)
            self.converged += len(p.states)
            self.bisections += p.total_bisections
            self.corrector_iterations += p.total_corrector_iterations


def _build_kinematics_and_filter(problem):
    from varibc import assembly, design_field

    assembly.ElementKinematics(problem.mesh, problem.material)
    design_field.build_filter_matrix(problem.mesh, problem.params.r_min)


def run_budget(problem, workload, tracer, layers):
    """One fixed-budget optimization under `tracer`; returns (result,
    tracer, stats). Spans the tracer already holds (a traced set-up) stay."""
    from varibc.optimizer import OptimizerConfig, run_optimization

    stats = PathStats(tracer)
    with tracer.installed(layers=layers):
        tracer.iteration = 1
        result = run_optimization(
            problem, OptimizerConfig(max_iterations=workload.iterations),
            on_iteration=stats)
    return result, tracer, stats


def contract_violations(problem, result):
    """Solver-contract breaches among the final evaluation's requested
    states: residual above tol_residual, or the input point off target by
    more than 1e-10 u_in. The residual is re-assembled, not read back."""
    import numpy as np
    from varibc import assembly
    from varibc.design_field import load_magnitude_field
    from varibc.mesh import shape_values_at
    from varibc.solver import InputControl, SolverConfig

    tol = SolverConfig(steps=problem.steps).tol_residual
    design = result.design
    _, A_f = load_magnitude_field(problem.design0, problem.mesh,
                                  problem.params)
    _, base = assembly.build_model(
        problem.mesh, design, problem.params, problem.material, A_f=A_f,
        output_springs=problem.output_springs)
    control = InputControl(sample=shape_values_at(problem.mesh, design.load),
                           theta=design.theta, u_in_norm=problem.u_in_norm)
    bad = []
    for i, (case, path) in enumerate(zip(problem.load_cases,
                                         result.evaluation.paths)):
        states = path.requested_states
        if len(states) != problem.steps:
            bad.append(f"case {i}: {len(states)} of {problem.steps} steps")
        Fc = case.force_vector(problem.mesh)
        model = base.with_counter_force(Fc if np.any(Fc) else None)
        for m, st in enumerate(states, 1):
            R = model.assemble(st.U, want_tangent=False,
                               counter_scale=st.counter_scale).residual(
                st.lambda_x, st.lambda_y)
            rnorm = float(np.linalg.norm(R))
            off = np.abs(control.sample.interpolate(st.U)
                         - control.target(m / problem.steps)).max()
            if rnorm > tol or off > 1e-10 * problem.u_in_norm:
                bad.append(f"case {i} step {m}: residual {rnorm:.3e}, "
                           f"input offset {off:.3e}")
    return bad


def fd_check(problem, result, seed):
    """Adjoint directional derivative of the scaled objective at the final
    design against a central difference along a seeded direction.

    The direction skips variables pinned at a bound, and the actuator point
    when a step would move it into another element: its displacement
    gradient is element-wise constant, so no difference quotient matches
    across an element edge. Returns (adjoint, fd, relative error, failed
    evaluations)."""
    import numpy as np
    from varibc import assembly, optimizer
    from varibc.design_field import (DesignVector, build_filter_matrix,
                                     load_magnitude_field)
    from varibc.mesh import locate_point

    mesh = problem.mesh
    design = result.design
    n_rho, n_s = len(design.rho), design.num_supports
    z = design.to_array()
    span = problem.upper - problem.lower
    d = np.random.default_rng([seed, 1]).uniform(-1.0, 1.0, z.size) * span
    step = FD_STEP * np.abs(d)
    d[(z - step < problem.lower) | (z + step > problem.upper)] = 0.0
    load = slice(n_rho + 2 * n_s, n_rho + 2 * n_s + 2)
    home = locate_point(mesh, z[load])[0]
    if any(locate_point(mesh, z[load] + s * FD_STEP * d[load])[0] != home
           for s in (1.0, -1.0)):
        d[load] = 0.0

    kin = assembly.ElementKinematics(mesh, problem.material)
    W = build_filter_matrix(mesh, problem.params.r_min)
    _, A_f = load_magnitude_field(problem.design0, mesh, problem.params)
    f0 = []
    failed = 0
    for s in (1.0, -1.0):
        ev = optimizer.evaluate_design(
            problem, DesignVector.from_array(z + s * FD_STEP * d, n_rho, n_s),
            A_f=A_f, W=W, kin=kin)
        failed += bool(ev.failed)
        f0.append(ev.f0)
    fd = (f0[0] - f0[1]) / (2.0 * FD_STEP)
    adj = float(result.evaluation.df0 @ d)
    return adj, fd, abs(adj - fd) / max(abs(fd), 1e-300), failed


def layer_metrics(tracer, stats, untraced_run_s):
    """Per-layer metrics of one traced set-up plus one traced run.

    The in-run self times plus trace.unattributed_s sum to trace.run_s.
    """
    from tracing import iteration_windows, layer_totals

    spans = tracer.spans
    windows = iteration_windows(spans)
    w0, w1 = windows[0][0], windows[-1][1]
    run = layer_totals(spans, keep=lambda s: w0 <= s.start and s.end <= w1)
    setup = layer_totals(spans, keep=lambda s: s.iteration == 0)

    def t(layer):
        totals = setup if layer in SETUP_LAYERS else run
        return totals.get(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "value": 0.0, "errors": {}})

    m = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            m[name] = t(layer)[stat]
    ift = t("assembly.internal_force_and_tangent")
    splu = t("solver.splu")
    m["assembly.internal_force_and_tangent.ms_per_call"] = (
        1e3 * ift["total_s"] / max(ift["calls"], 1))
    m["solver.lu_nnz_mean"] = splu["value"] / max(splu["calls"], 1)
    m["solver.lu_solve.rhs"] = t("solver.lu_solve")["value"]
    m["adjoint.lu_solve.rhs"] = t("adjoint.lu_solve")["value"]
    m["solver.corrector_iterations"] = stats.corrector_iterations
    m["solver.bisections"] = stats.bisections
    m["solver.useful_attempt_ratio"] = stats.requested / max(
        stats.converged + stats.bisections, 1)
    m["mma.fallbacks"] = t("mma.mmasub")["errors"].get("SubproblemError", 0)
    m["optimizer.factorizations_per_state"] = (
        (splu["calls"] + t("adjoint.splu")["calls"]) / max(stats.requested, 1))
    m["optimizer.assemblies_per_iteration"] = ift["calls"] / max(
        stats.evaluations, 1)
    run_s = w1 - w0
    attributed = sum(v for k, v in m.items() if k.endswith(".self_s")
                     and k[:-len(".self_s")] not in SETUP_LAYERS)
    m["trace.run_s"] = run_s
    m["trace.overhead_s"] = run_s - untraced_run_s
    m["trace.unattributed_s"] = run_s - attributed
    return {name: m[name] for name, _, _ in PER_LAYER}


def main(argv=None):
    # single-threaded by design: pin BLAS before anything loads numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    from tracing import Tracer, iteration_windows
    from workloads import build_problem

    wl = WORKLOADS[args.workload]

    setup_s = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        problem = build_problem(wl, args.seed)
        _build_kinematics_and_filter(problem)
        setup_s.append(time.perf_counter() - t0)

    # untraced repeats of the budget while another one fits in --seconds
    runs, walls = [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or (time.perf_counter() + statistics.median(walls)
                        <= deadline):
        gc.collect()  # every repeat starts without the last one's garbage
        t0 = time.perf_counter()
        runs.append(run_budget(problem, wl, Tracer(), layers=False))
        walls.append(time.perf_counter() - t0)
        if len(runs) == 1:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # one traced set-up and run of the same budget
    tracer = Tracer()
    with tracer.installed(layers=True):
        traced_problem = build_problem(wl, args.seed)
        _build_kinematics_and_filter(traced_problem)
    traced, tracer, traced_stats = run_budget(traced_problem, wl, tracer,
                                              layers=True)

    # the correctness gate; nothing below is timed
    results = [r for r, _, _ in runs]
    prints = {fingerprint(r) for r in results}
    violations = contract_violations(problem, results[0])
    adj, fd, rel, fd_failed = fd_check(problem, results[0], args.seed)
    gate = {
        "budget_completed": all(len(r.history) == wl.iterations
                                for r in results + [traced]),
        "repeats_identical": len(prints) == 1,
        "traced_equals_untraced": prints == {fingerprint(traced)},
        "solver_contract": not violations,
        "adjoint_vs_fd": rel <= FD_TOL and not fd_failed,
    }
    attempted = sum(s.evaluations for _, _, s in runs) \
        + traced_stats.evaluations + 2
    failed = sum(s.failed for _, _, s in runs) + traced_stats.failed \
        + fd_failed + sum(not ok for ok in gate.values())
    if not gate["budget_completed"]:
        raise SystemExit("perfbench: an optimization stopped before its "
                         f"{wl.iterations}-iteration budget")

    iter_s, run_s = [], []
    for _, tr, _ in runs:
        windows = iteration_windows(tr.spans)
        # iteration 1 evaluates design0 without an MMA step, so it is not
        # an optimizer iteration; run_s still counts it
        iter_s += [b - a for a, b in windows[1:]]
        run_s.append(windows[-1][1] - windows[0][0])
    e2e = {
        "setup_s": statistics.median(setup_s),
        "iter_s_p50": statistics.median(iter_s),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": peak_rss_mb,
    }
    layers = layer_metrics(tracer, traced_stats, e2e["run_s"])

    report = {
        "provenance": provenance(problem, wl, args.seed),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_eval_share": failed / attempted,
        "gate": gate, "contract_violations": violations,
        "fd": {"adjoint": adj, "central_difference": fd, "rel_err": rel,
               "step": FD_STEP, "tol": FD_TOL},
        "samples": {"setup": len(setup_s), "iterations": len(iter_s),
                    "runs": len(run_s)},
        "setup_s": setup_s, "iter_s": iter_s, "run_s": run_s,
        "end_to_end": e2e, "per_layer": layers,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))

    units = dict(END_TO_END) | {n: u for n, u, _ in PER_LAYER}
    shown = layers if args.trace else e2e
    for name, value in shown.items():
        print(f"{name:50s} {value:14.6g} {units[name]}")
    print(f"{'failed_eval_share':50s} {failed / attempted:14.6g} ratio")
    print(f"samples: {len(iter_s)} iterations in {len(run_s)} runs, "
          f"{len(setup_s)} set-ups; gate: "
          + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                      for k, v in gate.items()))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in shown.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
