"""Design loop: fields -> equilibrium paths -> quantities -> adjoint
gradients -> MMA update -> convergence test.

Mixed-unit design variables (densities, coordinates, angle) are normalized
to [0, 1] by their bound boxes before entering MMA, with the per-class move
limits converted to normalized units. Variables whose lower and upper bounds
coincide are frozen and bypass the optimizer entirely (fixed-BC runs, the
morphing wing's skin-attachment support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly, mma
from .adjoint import SensitivityRecord, SingularReducedSystem, \
    StateAdjoint, StateContext
from .design_field import DesignVector, build_filter_matrix
from .mesh import clamp_to_mesh
from .material import NonPositiveJacobian
from .solver import EquilibriumState, PathFailed, SingularTangent, \
    SolverConfig, solve_equilibrium_path

FAILURE_PENALTY = 10.0
# more failed evaluations in a row than this end the run
MAX_CONSECUTIVE_FAILURES = 10
# iterations over which _flag_oscillation counts objective reversals
OSCILLATION_WINDOW = 10
# what can stop a state's differentiation: the 2x2 multiplier system, the
# fallback factorization of K_T, or the re-assembly of a state without one
ADJOINT_FAILURES = (SingularReducedSystem, SingularTangent,
                    NonPositiveJacobian)


@dataclass
class OptimizerConfig:
    """Design-loop settings; the fields but solver are [optimizer]'s keys,
    in order. solver None takes SolverConfig(steps=problem.steps)."""

    max_iterations: int = 400
    feas_tol: float = 1e-3
    density_change_tol: float = 1e-4
    solver: SolverConfig | None = None

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if min(self.feas_tol, self.density_change_tol) < 0:
            raise ValueError("optimizer tolerances must be non-negative")


@dataclass
class IterationRecord:
    iteration: int
    objective: float            # sum of the objective's quantities
    f0: float                   # scaled minimization objective
    g: np.ndarray               # scaled constraint values (<= 0 feasible)
    values: dict                # quantity name -> value
    max_drho: float
    mean_drho: float
    bc: np.ndarray              # named by DesignVector.bc_names()
    solver_bisections: int
    solver_iterations: int
    path_failed: bool
    oscillating: bool = False
    mma_fallback: bool = False  # design from mma_update's descent fallback


@dataclass
class Evaluation:
    objective: float
    f0: float
    df0: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    values: dict
    paths: list
    solver_bisections: int
    solver_iterations: int
    failure: str = ""           # the first failure's text, "" if none

    @property
    def failed(self):
        return bool(self.failure)


@dataclass
class OptimizationResult:
    design: DesignVector
    history: list
    stop_reason: str
    evaluation: Evaluation | None = None


def _last_converged_state(path, n_dofs):
    """The state a failed path's unreached steps are differentiated at: its
    last converged substate, or the zero state if it converged none."""
    if path.states:
        return path.states[-1]
    return EquilibriumState(U=np.zeros(n_dofs), lambda_x=0.0, lambda_y=0.0,
                            input_fraction=0.0, residual_norm=0.0,
                            corrector_iterations=0, counter_scale=0.0)


def differentiate_path(model, control, solver_cfg, fields, design,
                       quantities):
    """Solve one load case's path and differentiate the quantities on it.

    Each requested state a quantity reads is differentiated as the path
    reaches it, by one StateAdjoint for every quantity of the step, through
    the ConvergedTangent that solve_equilibrium_path's on_state hook passes
    with the state. Steps that a failed path never reached are
    differentiated at _last_converged_state, assembled and with K_T
    factorized afresh. A state whose differentiation raises one
    of ADJOINT_FAILURES fails the path as well: its step's quantities keep
    their value at that state and get a zero gradient. Returns (path,
    {name: SensitivityRecord}, failure): the text of the first failure,
    PathFailed's message or the adjoint error's class, step and message, and
    "" if there was none.
    """
    by_step = {}
    for q in quantities:
        by_step.setdefault(q.step, []).append(q)
    records = {}
    reached = []
    failure = ""

    def differentiate(state, tangent, qs):
        nonlocal failure
        try:
            adjointer = StateAdjoint(model, control, state, fields, design,
                                     tangent=tangent)
            for q in qs:
                records[q.name] = adjointer.sensitivity(q)
        except ADJOINT_FAILURES as err:
            failure = failure or \
                f"{type(err).__name__} at step {qs[0].step}: {err}"
            ctx = StateContext(state=state, model=model, control=control,
                               fields=fields, design=design)
            for q in qs:
                records[q.name] = SensitivityRecord(
                    name=q.name, value=float(q.evaluate(ctx)),
                    dgdzeta=np.zeros(design.size), psi_c=np.zeros(2),
                    psi_R=np.zeros(model.mesh.num_dofs))

    def on_state(state, tangent):
        reached.append(state)
        qs = by_step.get(len(reached))
        if qs:
            differentiate(state, tangent, qs)

    try:
        path = solve_equilibrium_path(model, control, solver_cfg,
                                      on_state=on_state)
    except PathFailed as err:
        path = err.partial
        failure = failure or str(err)
    for m in sorted(by_step):
        if m > len(reached):
            state = _last_converged_state(path, model.mesh.num_dofs)
            differentiate(state, None, by_step[m])
    return path, records, failure


def evaluate_design(problem, design, A_f=None, W=None, kin=None,
                    solver_cfg=None):
    """Solve all load cases at one design and differentiate the quantities,
    one differentiate_path call per model of problem.models. The reference
    load is normalized by problem.A_f; an A_f passed in must equal it."""
    if A_f is not None and A_f != problem.A_f:
        raise ValueError(f"A_f {A_f!r} is not the problem's frozen "
                         f"normalization {problem.A_f!r}")
    if solver_cfg is None:
        solver_cfg = SolverConfig(steps=problem.steps)
    fields, models, control = problem.models(design, kin=kin, W=W)

    by_case = {}
    for q in problem.quantities():
        by_case.setdefault(q.load_case, []).append(q)

    paths = []
    records = {}
    bisections = iterations = 0
    failure = ""
    for i, model in enumerate(models):
        path, case_records, case_failure = differentiate_path(
            model, control, solver_cfg, fields, design, by_case.get(i, []))
        records.update(case_records)
        if case_failure and not failure:
            failure = f"load case {i + 1}: {case_failure}"
        paths.append(path)
        bisections += path.total_bisections
        iterations += path.total_corrector_iterations

    objective, f0, df0 = problem.objective.evaluate(records)
    g = np.empty(len(problem.constraints))
    dg = np.empty((len(problem.constraints), design.size))
    for j, con in enumerate(problem.constraints):
        _, g[j], dg[j] = con.evaluate(records)
    if failure:
        g = g + FAILURE_PENALTY

    values = {name: rec.value for name, rec in records.items()}
    return Evaluation(objective=objective, f0=f0, df0=df0, g=g, dg=dg,
                      values=values, paths=paths,
                      solver_bisections=bisections,
                      solver_iterations=iterations, failure=failure)


def mma_update(problem, design, evaluation, state):
    """One normalized MMA step; returns the new design vector.

    state is a dict carrying (iteration, xold1, xold2, low, upp) across
    calls. Falls back to a bound-projected half-move steepest-descent step if
    the subproblem solver fails, and sets state["fallback"] to whether this
    update did. An actuator point that leaves the mesh is clamped back onto
    it.
    """
    z = design.to_array()
    free = ~problem.frozen
    lb, ub = problem.lower[free], problem.upper[free]
    rng = ub - lb
    xn = (z[free] - lb) / rng
    move_n = problem.move_limits[free] / rng
    df0_n = evaluation.df0[free] * rng
    dg_n = evaluation.dg[:, free] * rng[None, :]

    it = state.setdefault("iteration", 0) + 1
    state["iteration"] = it
    xold1 = state.get("xold1", xn)
    xold2 = state.get("xold2", xn)
    low = state.get("low", xn - 0.5)
    upp = state.get("upp", xn + 0.5)
    try:
        x_new, low, upp = mma.mmasub(
            it, xn, np.zeros_like(xn), np.ones_like(xn), xold1, xold2,
            df0_n, evaluation.g, dg_n, low, upp, move_n)
        state["fallback"] = False
    except mma.SubproblemError:
        step = 0.5 * move_n * np.sign(df0_n)
        x_new = np.clip(xn - step, np.maximum(0.0, xn - move_n),
                        np.minimum(1.0, xn + move_n))
        state["fallback"] = True
    state["xold2"] = xold1
    state["xold1"] = xn
    state["low"] = low
    state["upp"] = upp

    z_new = z.copy()
    z_new[free] = lb + x_new * rng
    new = DesignVector.from_array(z_new, len(design.rho), design.num_supports)
    new.load = clamp_to_mesh(problem.mesh, new.load)
    return new


def convergence_check(history, config=None):
    """Stop only when all constraints hold to config.feas_tol and the mean
    density change is below config.density_change_tol; BC-variable changes
    are deliberately not part of the criterion."""
    config = config or OptimizerConfig()
    if not history:
        return "continue"
    rec = history[-1]
    feasible = np.all(rec.g <= config.feas_tol)
    settled = rec.mean_drho < config.density_change_tol
    return "stop" if (feasible and settled) else "continue"


def _flag_oscillation(history):
    if len(history) < OSCILLATION_WINDOW:
        return False
    objs = np.array([r.objective for r in history[-OSCILLATION_WINDOW:]])
    diffs = np.diff(objs)
    flips = np.sum(diffs[1:] * diffs[:-1] < 0)
    return flips >= 0.7 * (len(diffs) - 1)


def run_optimization(problem, config=None, on_iteration=None):
    """Drive the full design loop; returns the final design and history."""
    config = config or OptimizerConfig()
    solver_cfg = config.solver or SolverConfig(steps=problem.steps)
    kin = assembly.ElementKinematics(problem.mesh, problem.material)
    W = build_filter_matrix(problem.mesh, problem.params.r_min)
    design = problem.design0.copy()

    history = []
    mma_state = {}
    consecutive_failures = 0
    evaluation = None
    stop_reason = "max_iterations"
    if config.max_iterations == 0:
        return OptimizationResult(design=design, history=history,
                                  stop_reason="zero_budget")
    for it in range(1, config.max_iterations + 1):
        if it > 1:
            prev_rho = design.rho.copy()
            design = mma_update(problem, design, evaluation, mma_state)
            drho = np.abs(design.rho - prev_rho)
        else:
            drho = np.zeros_like(design.rho)
        evaluation = evaluate_design(problem, design, W=W, kin=kin,
                                     solver_cfg=solver_cfg)
        record = IterationRecord(
            iteration=it, objective=evaluation.objective, f0=evaluation.f0,
            g=evaluation.g.copy(), values=dict(evaluation.values),
            max_drho=float(drho.max(initial=0.0)),
            mean_drho=float(drho.mean()) if len(drho) else 0.0,
            bc=design.join([], design.bc_points(), design.theta),
            solver_bisections=evaluation.solver_bisections,
            solver_iterations=evaluation.solver_iterations,
            path_failed=evaluation.failed,
            mma_fallback=it > 1 and mma_state["fallback"],
        )
        record.oscillating = _flag_oscillation(history + [record])
        history.append(record)
        if on_iteration is not None:
            on_iteration(record, design, evaluation)

        consecutive_failures = (consecutive_failures + 1
                                if evaluation.failed else 0)
        if consecutive_failures > MAX_CONSECUTIVE_FAILURES:
            stop_reason = "repeated_solver_failure"
            break
        if it >= 2 and convergence_check(history, config) == "stop":
            stop_reason = "converged"
            break
    return OptimizationResult(design=design, history=history,
                              stop_reason=stop_reason, evaluation=evaluation)
