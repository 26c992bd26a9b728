import dataclasses
import gc
import types

import numpy as np
import pytest
from scipy.sparse.linalg import SuperLU

from varibc import assembly, mma, outputs
from varibc import optimizer as O
from varibc import problems as P
from varibc.optimizer import IterationRecord
from varibc.solver import PermutedLU, SolverConfig


def scalar_quadratic_step(x, xold1, xold2, low, upp, it):
    """One step on (X - 2)^2 over X in [0, 5] with a move limit of 1, in
    the unit box: x = X / 5, f0 = (5 x - 2)^2 and a move limit of 0.2."""
    df0 = np.array([10.0 * (5.0 * x[0] - 2.0)])
    # one always-inactive constraint keeps the subproblem well-posed
    fval = np.array([-1.0])
    dfdx = np.zeros((1, 1))
    return mma.mmasub(it, x, xold1, xold2, df0, fval, dfdx, low, upp,
                      np.array([0.2]))


def asymptotes(it, x, xold1, xold2, low, upp):
    """mmasub's (low, upp) at a zero gradient and an inactive constraint."""
    n = x.size
    _, low, upp = mma.mmasub(it, x, xold1, xold2, np.zeros(n),
                             np.array([-1.0]), np.zeros((1, n)), low, upp,
                             np.full(n, 0.1))
    return low, upp


class TestMmaSub:
    def test_scalar_quadratic_converges(self):
        x = np.array([0.0])
        xold1 = xold2 = x
        low = np.array([-0.1])
        upp = np.array([0.1])
        for it in range(1, 31):
            x_new, low, upp = scalar_quadratic_step(
                x, xold1, xold2, low, upp, it)
            xold2, xold1, x = xold1, x, x_new
        assert abs(5.0 * x[0] - 2.0) < 1e-3

    def test_error_envelope_contracts(self):
        # the iterates may overshoot while the asymptotes adapt, but the
        # error envelope over trailing windows must shrink towards zero
        x = np.array([0.0])
        xold1 = xold2 = x
        low = np.array([-0.1])
        upp = np.array([0.1])
        errs = []
        for it in range(1, 31):
            x_new, low, upp = scalar_quadratic_step(
                x, xold1, xold2, low, upp, it)
            xold2, xold1, x = xold1, x, x_new
            errs.append(abs(5.0 * x[0] - 2.0))
            assert 0.0 <= 5.0 * x[0] <= 5.0
        env = [max(errs[i:i + 6]) for i in range(0, 30, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(env, env[1:]))
        assert errs[-1] < 1e-3

    @pytest.mark.parametrize("it", [1, 2])
    def test_first_two_iterations_start_the_asymptotes_at_half(self, it):
        # whatever low and upp are passed, and whatever the history
        x = np.array([0.25, 0.5, 0.75])
        low, upp = asymptotes(it, x, x - 0.1, x + 0.2, x - 3.0, x + 7.0)
        assert np.array_equal(low, x - 0.5)
        assert np.array_equal(upp, x + 0.5)

    def test_later_iterations_adapt_by_the_direction_of_progress(self):
        # monotone progress widens by 1.2, an oscillation narrows by 0.7,
        # a variable that did not move keeps its distances
        xold2 = np.array([0.25, 0.25, 0.5])
        xold1 = np.array([0.5, 0.5, 0.5])
        x = np.array([0.75, 0.25, 0.5])
        low = xold1 - np.array([0.25, 0.125, 0.0625])
        upp = xold1 + np.array([0.5, 0.25, 0.125])
        new_low, new_upp = asymptotes(3, x, xold1, xold2, low, upp)
        factor = np.array([1.2, 0.7, 1.0])
        assert np.allclose(x - new_low, factor * (xold1 - low),
                           rtol=1e-15, atol=0.0)
        assert np.allclose(new_upp - x, factor * (upp - xold1),
                           rtol=1e-15, atol=0.0)

    def test_asymptotes_are_clamped_to_the_near_and_far_limits(self):
        # distances of 1e-6 and 100 from xold1 = x clamp to 1e-4 and 10
        x = np.array([0.5, 0.5])
        low = x - np.array([1e-6, 100.0])
        upp = x + np.array([100.0, 1e-6])
        new_low, new_upp = asymptotes(3, x, x, x, low, upp)
        assert np.array_equal(new_low, [x[0] - 1e-4, x[1] - 10.0])
        assert np.array_equal(new_upp, [x[0] + 10.0, x[1] + 1e-4])

    def test_move_limit_clamps_exactly(self):
        x = np.array([0.5])
        huge = np.array([1e9])
        x_new, *_ = mma.mmasub(
            1, x, x, x, huge, np.array([-1.0]), np.zeros((1, 1)), x - 0.5,
            x + 0.5, np.array([0.2]))
        assert abs((x[0] - x_new[0]) - 0.2) <= 1e-5

    def test_zero_gradient_feasible_point_stays(self):
        x = np.array([0.3, 0.7])
        x_new, *_ = mma.mmasub(
            1, x, x, x, np.zeros(2), np.array([-0.5]), np.zeros((1, 2)),
            x - 0.5, x + 0.5, np.array([0.2, 0.2]))
        assert np.allclose(x_new, x, atol=1e-6)

    def test_respects_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 20)
        df0 = rng.normal(size=20) * 100
        dg = rng.normal(size=(3, 20))
        g = rng.uniform(-1, 0.5, 3)
        x_new, *_ = mma.mmasub(
            1, x, x, x, df0, g, dg, x - 0.5, x + 0.5, np.full(20, 0.1))
        assert np.all(x_new >= -1e-12) and np.all(x_new <= 1 + 1e-12)
        assert np.all(np.abs(x_new - x) <= 0.1 + 1e-9)


def seeded_subproblem(m=13, n=2000, move=0.05):
    """subsolv's arguments for an MMA subproblem of mmasub's form, with P,
    Q and b from seeded gradients at x0 and asymptotes at x0 -+ 0.5. The
    objective gradient is small against the move limit, so some variables
    settle inside [alfa, beta] and others at a move limit. The last four
    constraints (fval = -10) stay inactive; the others end up active."""
    rng = np.random.default_rng(11)
    x0 = rng.uniform(0.2, 0.8, n)
    low, upp = x0 - 0.5, x0 + 0.5
    alfa, beta = x0 - move, x0 + move
    ux1, xl1 = upp - x0, x0 - low
    df0 = rng.normal(0.0, 0.05, n)
    p0 = (np.maximum(df0, 0.0) + 0.1) * ux1**2
    q0 = (np.maximum(-df0, 0.0) + 0.1) * xl1**2
    dg = rng.normal(size=(m, n))
    pq = 0.001 * np.abs(dg) + 1e-5
    P = (np.maximum(dg, 0.0) + pq) * ux1**2
    Q = (np.maximum(-dg, 0.0) + pq) * xl1**2
    fval = np.where(np.arange(m) < m - 4, rng.uniform(-0.5, 0.5, m), -10.0)
    b = P @ (1.0 / ux1) + Q @ (1.0 / xl1) - fval
    return dict(low=low, upp=upp, alfa=alfa, beta=beta, p0=p0, q0=q0, P=P,
                Q=Q, b=b)


class TestSubproblemKkt:
    """subsolv's answer against the KKT conditions of the MMA subproblem,
    evaluated from P, Q, b, the bounds and the fixed a0 = 1, a = 0,
    c = 1000 and d = 1 alone."""

    @pytest.fixture(scope="class")
    def solved(self):
        sub = seeded_subproblem()
        return sub, mma.subsolv(**sub)

    def test_answer_meets_the_kkt_conditions(self, solved):
        sub, (x, y, z, lam) = solved
        tol = 5 * mma.EPSIMIN
        alfa, beta = sub["alfa"], sub["beta"]
        ux, xl = sub["upp"] - x, x - sub["low"]
        assert np.all(alfa < x) and np.all(x < beta)
        assert np.all(y >= 0) and z >= 0 and np.all(lam >= 0)
        # d/dx of the Lagrangian equals xsi - eta: bound multipliers that
        # are nonnegative and complementary to x - alfa and beta - x
        dldx = ((sub["p0"] + sub["P"].T @ lam) / ux**2
                - (sub["q0"] + sub["Q"].T @ lam) / xl**2)
        assert np.max(np.maximum(dldx, 0.0) * (x - alfa)) <= tol
        assert np.max(np.maximum(-dldx, 0.0) * (beta - x)) <= tol
        # primal feasibility and complementary slackness
        h = sub["P"] @ (1.0 / ux) + sub["Q"] @ (1.0 / xl) - y - sub["b"]
        assert h.max() <= tol
        assert np.max(lam * -h) <= tol
        # y and z: the Lagrangian's derivatives are the multipliers of
        # y >= 0 and z >= 0
        mu = 1000.0 + y - lam
        assert mu.min() >= -tol and np.max(mu * y) <= tol
        assert z <= tol  # its multiplier zet = a0 - a lam is 1

    def test_subproblem_exercises_bounds_and_constraints(self, solved):
        sub, (x, y, z, lam) = solved
        n = x.size
        at_alfa = np.sum(x - sub["alfa"] <= 1e-5)
        at_beta = np.sum(sub["beta"] - x <= 1e-5)
        assert min(at_alfa, at_beta, n - at_alfa - at_beta) >= n // 20
        assert np.any(lam > 1e-3) and np.any(lam < 1e-6)


def fake_record(mean_drho, gmax):
    return IterationRecord(
        iteration=1, objective=0.0, f0=0.0, g=np.array([gmax]), values={},
        max_drho=mean_drho, mean_drho=mean_drho, bc=np.zeros(3),
        solver_bisections=0, solver_iterations=0, path_failed=False)


class TestConvergenceCheck:
    def test_stops_when_settled_and_feasible(self):
        hist = [fake_record(5e-5, -0.01)]
        assert O.convergence_check(hist) == "stop"

    def test_continues_when_infeasible(self):
        hist = [fake_record(5e-5, 0.1)]
        assert O.convergence_check(hist) == "continue"

    def test_continues_when_density_still_moving(self):
        hist = [fake_record(2e-4, -0.01)]
        assert O.convergence_check(hist) == "continue"

    def test_empty_history(self):
        assert O.convergence_check([]) == "continue"

    def test_tolerances_come_from_the_config(self):
        hist = [fake_record(5e-5, 0.01)]
        assert O.convergence_check(hist) == "continue"
        assert O.convergence_check(hist, O.OptimizerConfig(feas_tol=0.02)) == "stop"


@pytest.fixture(scope="module")
def tiny_problem():
    return P.make_problem("gripper", fixed_bcs=True, element_size=8e-3)


@pytest.fixture(scope="module")
def tiny_variable_problem():
    return P.make_problem("gripper", fixed_bcs=False, element_size=8e-3)


class TestRunOptimization:
    def test_zero_budget_returns_initial(self, tiny_problem):
        res = O.run_optimization(tiny_problem,
                                 O.OptimizerConfig(max_iterations=0))
        assert res.stop_reason == "zero_budget"
        assert np.array_equal(res.design.rho, tiny_problem.design0.rho)
        assert res.history == []

    def test_history_and_bounds(self, tiny_variable_problem):
        prob = tiny_variable_problem
        designs = []
        res = O.run_optimization(
            prob, O.OptimizerConfig(max_iterations=4),
            on_iteration=lambda r, d, e: designs.append(d.copy()))
        assert len(res.history) == 4
        for d in designs:
            z = d.to_array()
            assert np.all(z >= prob.lower - 1e-12)
            assert np.all(z <= prob.upper + 1e-12)
        for a, b in zip(designs, designs[1:]):
            dz = np.abs(b.to_array() - a.to_array())
            assert np.all(dz <= prob.move_limits + 1e-9)

    def test_fixed_bc_entries_bit_identical(self, tiny_problem):
        designs = []
        O.run_optimization(
            tiny_problem, O.OptimizerConfig(max_iterations=3),
            on_iteration=lambda r, d, e: designs.append(d.copy()))
        z0 = designs[0].to_array()
        n_rho = len(designs[0].rho)
        for d in designs[1:]:
            assert np.array_equal(d.to_array()[n_rho:], z0[n_rho:])

    def test_objective_improves(self, tiny_problem):
        res = O.run_optimization(tiny_problem,
                                 O.OptimizerConfig(max_iterations=6))
        objs = [r.objective for r in res.history]
        assert objs[-1] > objs[0]

    def test_history_round_trip(self, tiny_problem):
        res = O.run_optimization(tiny_problem,
                                 O.OptimizerConfig(max_iterations=3))
        ev = O.evaluate_design(tiny_problem, res.design)
        assert abs(ev.objective - res.history[-1].objective) <= 1e-9 * max(
            abs(ev.objective), 1e-12)

    def test_round_trip_after_the_actuator_moved(self,
                                                  tiny_variable_problem):
        # the constraints read F_in, which scales with the reference-load
        # normalization the run froze at design0
        prob = tiny_variable_problem
        res = O.run_optimization(prob, O.OptimizerConfig(max_iterations=3))
        assert np.any(res.design.load != prob.design0.load)
        ev = O.evaluate_design(prob, res.design)
        assert np.abs(ev.g - res.history[-1].g).max() <= 1e-12

    def test_deterministic(self, tiny_problem):
        r1 = O.run_optimization(tiny_problem,
                                O.OptimizerConfig(max_iterations=3))
        r2 = O.run_optimization(tiny_problem,
                                O.OptimizerConfig(max_iterations=3))
        assert np.array_equal(r1.design.rho, r2.design.rho)
        for a, b in zip(r1.history, r2.history):
            assert a.objective == b.objective
            assert np.array_equal(a.g, b.g)


class TestPathFailureHandling:
    def test_failed_paths_penalize_constraints(self, tiny_problem,
                                               monkeypatch):
        # force PathFailed out of the path solver and check the scoring
        from varibc import solver as S

        real = S.solve_equilibrium_path

        def failing(model, control, config, on_state=None):
            try:
                real(model, control,
                     SolverConfig(steps=config.steps, max_bisections=6))
            except S.PathFailed:
                raise
            raise S.PathFailed(0.5, "synthetic failure",
                               partial=S.EquilibriumPath(states=[]))

        monkeypatch.setattr(O, "solve_equilibrium_path", failing)
        ev = O.evaluate_design(tiny_problem, tiny_problem.design0)
        assert ev.failed
        # every scaled constraint carries the retreat penalty
        assert np.all(ev.g >= O.FAILURE_PENALTY - 1.5)

    def test_path_failing_after_two_of_four_steps(self, tiny_problem,
                                                   monkeypatch):
        from varibc import adjoint as A
        from varibc import assembly as asm
        from varibc import solver as S

        prob = tiny_problem
        assert prob.steps == 4
        cfg = SolverConfig(steps=4, max_bisections=1)
        log = []

        class Recording(A.StateAdjoint):
            def __init__(self, model, control, state, fields, design,
                         tangent=None):
                log.append(("adjoint", state, tangent and tangent.system,
                            tangent and tangent.lu))
                super().__init__(model, control, state, fields, design,
                                 tangent=tangent)

            def sensitivity(self, q):
                rec = super().sensitivity(q)
                log.append(("record", q, rec))
                return rec

        def counted(tag, fn):
            def call(*args, **kwargs):
                log.append((tag,))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(O, "StateAdjoint", Recording)
        healthy = O.evaluate_design(prob, prob.design0, solver_cfg=cfg)
        assert not healthy.failed
        before = {e[1].name: e[2] for e in log if e[0] == "record"}
        log.clear()

        # the corrector fails beyond 70% of the stroke: step 3 fails, its
        # bisected half step to 0.625 converges, and the retry of step 3
        # fails at the bisection limit
        real_corrector = S.corrector

        def corrector(model, control, U, lam, s_target, config, **kwargs):
            if s_target > 0.7:
                raise S.CorrectorFailed("failure beyond 70% of the stroke")
            return real_corrector(model, control, U, lam, s_target, config,
                                  **kwargs)

        monkeypatch.setattr(S, "corrector", corrector)
        monkeypatch.setattr(asm, "internal_force_and_tangent",
                            counted("assemble",
                                    asm.internal_force_and_tangent))
        monkeypatch.setattr(A, "splu", counted("splu", A.splu))
        ev = O.evaluate_design(prob, prob.design0, solver_cfg=cfg)

        assert ev.failed
        assert ev.failure == ("load case 1: path failed at input fraction "
                              "0.625: failure beyond 70% of the stroke")
        path = ev.paths[0]
        substate = path.states[-1]
        assert len(path.requested_states) == 2
        assert not substate.requested
        assert substate.input_fraction == 0.625
        starts = [i for i, e in enumerate(log) if e[0] == "adjoint"]
        assert len(starts) == 4
        # steps 1-2: the corrector's factors, no adjoint factorization,
        # records bit-identical to the healthy path's
        for i, state in zip(starts[:2], path.requested_states):
            assert log[i][1] is state
            assert log[i][2] is not None and log[i][3] is not None
        assert ("splu",) not in log[:starts[2]]
        for e in log[:starts[2]]:
            if e[0] == "record":
                assert e[1].step <= 2
                ref = before[e[1].name]
                assert e[2].value == ref.value
                for name in ("dgdzeta", "psi_c", "psi_R"):
                    assert np.array_equal(getattr(e[2], name),
                                          getattr(ref, name))
        # steps 3-4: the last converged substate, assembled and factorized
        # once each
        for i, j in zip(starts[2:], starts[3:] + [len(log)]):
            assert log[i][1] is substate
            assert log[i][2] is None and log[i][3] is None
            tags = [e[0] for e in log[i:j]]
            assert tags.count("assemble") == 1 and tags.count("splu") == 1
            assert {e[1].step for e in log[i:j] if e[0] == "record"} == {
                3 if i == starts[2] else 4}
        # every constraint carries the penalty
        records = {e[1].name: e[2] for e in log if e[0] == "record"}
        g = np.array([c.evaluate(records)[1] for c in prob.constraints])
        assert np.array_equal(ev.g, g + O.FAILURE_PENALTY)
        early = [j for j, c in enumerate(prob.constraints)
                 if c.quantities[0].step <= 2]
        assert early and np.array_equal(ev.g[early],
                                        healthy.g[early] + O.FAILURE_PENALTY)

    def test_healthy_evaluation_makes_no_adjoint_factorization(
            self, tiny_problem, monkeypatch):
        from varibc import adjoint as A

        calls = []
        real = A.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(A, "splu", counting)
        ev = O.evaluate_design(tiny_problem, tiny_problem.design0)
        assert not ev.failed and ev.values
        assert calls == []

    def test_state_fallback_on_partial_path(self, tiny_problem):
        from varibc.solver import EquilibriumPath, EquilibriumState
        st = EquilibriumState(U=np.ones(4), lambda_x=1.0, lambda_y=2.0,
                              input_fraction=0.5, residual_norm=0.0,
                              corrector_iterations=1, requested=False)
        path = EquilibriumPath(states=[st])
        got = O._last_converged_state(path, 4)
        assert got is st
        empty = EquilibriumPath(states=[])
        zero = O._last_converged_state(empty, 4)
        assert np.all(zero.U == 0.0)

    def test_repeated_failure_aborts(self, tiny_problem, monkeypatch):
        m = len(tiny_problem.constraints)
        n = tiny_problem.design0.size

        def fake_eval(problem, design, **kw):
            return O.Evaluation(
                objective=0.0, f0=0.0, df0=np.zeros(n),
                g=np.full(m, O.FAILURE_PENALTY),
                dg=np.zeros((m, n)), values={}, paths=[],
                solver_bisections=0, solver_iterations=0,
                failure="load case 1: synthetic failure")

        monkeypatch.setattr(O, "evaluate_design", fake_eval)
        monkeypatch.setattr(O, "MAX_CONSECUTIVE_FAILURES", 3)
        res = O.run_optimization(tiny_problem,
                                 O.OptimizerConfig(max_iterations=30))
        assert res.stop_reason == "repeated_solver_failure"
        assert len(res.history) == 4


class TestAdjointFailureHandling:
    """A state whose differentiation fails fails the evaluation, not the
    run."""

    @pytest.mark.parametrize("error", O.ADJOINT_FAILURES)
    def test_failed_step_keeps_values_and_gets_zero_gradient(
            self, tiny_problem, monkeypatch, error):
        from varibc import adjoint as A

        prob = tiny_problem
        healthy = O.evaluate_design(prob, prob.design0)
        real = A.StateAdjoint.sensitivity

        def failing(self, q):
            if q.step == 2:
                raise error("injected")
            return real(self, q)

        monkeypatch.setattr(A.StateAdjoint, "sensitivity", failing)
        ev = O.evaluate_design(prob, prob.design0)
        assert ev.failed and not healthy.failure
        assert ev.failure == f"load case 1: {error.__name__} at step 2: injected"
        assert ev.values == healthy.values
        assert np.array_equal(ev.g, healthy.g + O.FAILURE_PENALTY)
        assert np.array_equal(ev.df0, healthy.df0)
        steps = [c.quantities[0].step for c in prob.constraints]
        assert 2 in steps
        for j, step in enumerate(steps):
            if step == 2:
                assert not np.any(ev.dg[j])
            else:
                assert np.array_equal(ev.dg[j], healthy.dg[j])

    @pytest.mark.parametrize("max_failures", [10, 0])
    def test_run_goes_on_past_a_singular_reduced_system(
            self, tiny_variable_problem, monkeypatch, max_failures):
        from varibc import adjoint as A

        armed = []
        real = A.StateAdjoint.solve_multipliers

        def failing(self, dfdU, dfdlam):
            if armed == [True]:
                armed.append("fired")
                raise A.SingularReducedSystem("injected")
            return real(self, dfdU, dfdlam)

        def arm_after_first(record, design, evaluation):
            if record.iteration == 1:
                armed.append(True)

        monkeypatch.setattr(A.StateAdjoint, "solve_multipliers", failing)
        monkeypatch.setattr(O, "MAX_CONSECUTIVE_FAILURES", max_failures)
        res = O.run_optimization(
            tiny_variable_problem, O.OptimizerConfig(max_iterations=4),
            on_iteration=arm_after_first)
        assert armed == [True, "fired"]
        failed = [r.path_failed for r in res.history]
        if max_failures:
            assert res.stop_reason == "max_iterations"
            assert failed == [False, True, False, False]
        else:
            # the failed iteration counts toward MAX_CONSECUTIVE_FAILURES
            assert res.stop_reason == "repeated_solver_failure"
            assert failed == [False, True]
        assert np.all(res.history[1].g >= O.FAILURE_PENALTY - 1.5)


class TestMmaFallback:
    @pytest.fixture
    def evaluation(self, tiny_variable_problem):
        prob = tiny_variable_problem
        n, m = prob.design0.size, len(prob.constraints)
        rng = np.random.default_rng(8)
        return O.Evaluation(
            objective=0.0, f0=0.0, df0=rng.normal(size=n),
            g=np.full(m, -0.5), dg=0.1 * rng.normal(size=(m, n)),
            values={}, paths=[], solver_bisections=0, solver_iterations=0)

    def test_subproblem_failure_takes_half_move_descent_step(
            self, tiny_variable_problem, evaluation, monkeypatch):
        prob = tiny_variable_problem

        def failing(*args, **kwargs):
            raise mma.SubproblemError("synthetic failure")

        monkeypatch.setattr(mma, "mmasub", failing)
        state = {}
        new, fallback = O.mma_update(prob, prob.design0, evaluation, state)
        assert fallback is True
        # every free variable moves half its move limit against the
        # gradient, clipped to its bounds; frozen ones stay put
        z = prob.design0.to_array()
        free = ~prob.frozen
        want = np.clip(z - 0.5 * prob.move_limits * np.sign(evaluation.df0),
                       prob.lower, prob.upper)
        got = new.to_array()
        assert np.array_equal(got[~free], z[~free])
        assert np.allclose(got[free], want[free], rtol=0.0,
                           atol=1e-12 * np.abs(z).max())
        assert np.any(got[free] != z[free])

    def test_non_finite_gradient_fails_the_real_subproblem(
            self, tiny_variable_problem, evaluation):
        prob = tiny_variable_problem
        free = np.flatnonzero(~prob.frozen)
        dg = evaluation.dg.copy()
        dg[0, free[0]] = np.nan
        bad = dataclasses.replace(evaluation, dg=dg)
        x = np.full(free.size, 0.5)
        with pytest.raises(mma.SubproblemError):
            mma.mmasub(1, x, x, x, evaluation.df0[free], evaluation.g,
                       dg[:, free], x - 0.5, x + 0.5,
                       np.full(free.size, 0.1))
        new, fallback = O.mma_update(prob, prob.design0, bad, {})
        assert fallback is True
        z = prob.design0.to_array()
        want = np.clip(z - 0.5 * prob.move_limits * np.sign(evaluation.df0),
                       prob.lower, prob.upper)
        got = new.to_array()
        assert np.allclose(got[free], want[free], rtol=0.0,
                           atol=1e-12 * np.abs(z).max())

    def test_singular_newton_system_fails_the_real_subproblem(
            self, tiny_variable_problem, evaluation, monkeypatch):
        prob = tiny_variable_problem

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        free = np.flatnonzero(~prob.frozen)
        x = np.full(free.size, 0.5)
        with pytest.raises(mma.SubproblemError, match="Singular matrix"):
            mma.mmasub(1, x, x, x, evaluation.df0[free], evaluation.g,
                       evaluation.dg[:, free], x - 0.5, x + 0.5,
                       np.full(free.size, 0.1))
        new, fallback = O.mma_update(prob, prob.design0, evaluation, {})
        assert fallback is True
        z = prob.design0.to_array()
        want = np.clip(z - 0.5 * prob.move_limits * np.sign(evaluation.df0),
                       prob.lower, prob.upper)
        got = new.to_array()
        assert np.allclose(got[free], want[free], rtol=0.0,
                           atol=1e-12 * np.abs(z).max())

    def test_real_subproblem_records_no_fallback(self, tiny_variable_problem,
                                                 evaluation):
        _, fallback = O.mma_update(tiny_variable_problem,
                                   tiny_variable_problem.design0, evaluation,
                                   {})
        assert fallback is False

    @pytest.mark.parametrize("fails", [True, False])
    def test_fallback_is_reported_per_iteration(self, tiny_variable_problem,
                                                monkeypatch, tmp_path, fails):
        prob = tiny_variable_problem
        if fails:
            def failing(*args, **kwargs):
                raise mma.SubproblemError("synthetic failure")

            monkeypatch.setattr(mma, "mmasub", failing)
        history = outputs.HistoryWriter(tmp_path / "history.csv", prob)
        try:
            res = O.run_optimization(prob, O.OptimizerConfig(max_iterations=2),
                                     on_iteration=history)
        finally:
            history.close()
        assert [r.mma_fallback for r in res.history] == [False, fails]
        header, *rows = (tmp_path / "history.csv").read_text().splitlines()
        cols = header.split(",")
        col = cols.index("mma_fallback")
        assert cols[col - 1] == "oscillating"
        assert [row.split(",")[col] for row in rows] == ["0", str(int(fails))]


@pytest.fixture(scope="module")
def line_gen_eval():
    prob = P.make_problem("line_generator", element_size=6e-3)
    ev = O.evaluate_design(prob, prob.design0)
    return prob, ev


class TestMultiLoadCaseEvaluation:
    """Counter-force load cases: pre-equilibration ramp plus adjoints."""

    @pytest.fixture
    def line_gen(self, line_gen_eval):
        return line_gen_eval

    def test_counter_cases_pre_equilibrate(self, line_gen):
        prob, ev = line_gen
        assert not ev.failed
        assert len(ev.paths) == 3
        free, cx, cy = ev.paths
        # counter-loaded cases carry unrequested alpha-ramp states at s = 0
        assert all(s.input_fraction == 0.0
                   for s in cx.states if not s.requested)
        assert len([s for s in cx.states if not s.requested]) >= 1
        assert len([s for s in free.states if not s.requested]) == 0
        # the counter force changes the equilibrium
        assert not np.allclose(
            [cx.requested_states[-1].lambda_x,
             cx.requested_states[-1].lambda_y],
            [free.requested_states[-1].lambda_x,
             free.requested_states[-1].lambda_y])

    def test_replay_gives_the_evaluated_states(self, line_gen):
        # both build their models with problem.models, counter cases too
        prob, ev = line_gen
        paths, _, _ = outputs.replay_design(prob, prob.design0,
                                            SolverConfig(steps=prob.steps))
        assert len(paths) == len(ev.paths) == 3
        for rep, run in zip(paths, ev.paths):
            assert len(rep.requested_states) == prob.steps
            assert len(run.requested_states) == prob.steps
            for a, b in zip(rep.requested_states, run.requested_states):
                assert np.array_equal(a.U, b.U)
                assert (a.lambda_x, a.lambda_y) == (b.lambda_x, b.lambda_y)

    def test_an_evaluation_holds_no_system_or_factors(self, line_gen):
        # the converged systems and the factors live only as long as the
        # adjoints that read them; what is left is states and gradients
        prob, ev = line_gen
        heavy = (assembly.GlobalSystem, PermutedLU, SuperLU)
        seen, todo = {id(ev)}, [ev]
        while todo:
            obj = todo.pop()
            assert not isinstance(obj, heavy), type(obj)
            for ref in gc.get_referents(obj):
                # the data an evaluation holds, not the code that made it
                if id(ref) not in seen and not isinstance(
                        ref, (type, types.ModuleType, types.FunctionType)):
                    seen.add(id(ref))
                    todo.append(ref)
        assert len(seen) > 3 * prob.steps * len(ev.paths)

    def test_objective_and_constraint_gradients_vs_fd(self, line_gen):
        prob, ev = line_gen
        A_f = prob.A_f
        cfg = SolverConfig(steps=prob.steps, tol_residual=1e-10,
                           max_corrector_iters=30)
        ev0 = O.evaluate_design(prob, prob.design0, A_f=A_f, solver_cfg=cfg)
        n_rho = len(prob.design0.rho)
        # (zeta column, step, tolerance): a density, Y_s2, theta
        probes = [(11, 1e-4, 1e-4), (n_rho + 3, 1e-6, 1e-3),
                  (prob.design0.size - 1, 1e-6, 1e-4)]
        for col, h, tol in probes:
            evp, evm = (O.evaluate_design(prob, prob.design0.shifted(col, s),
                                          A_f=A_f, solver_cfg=cfg)
                        for s in (h, -h))
            fd_f0 = (evp.f0 - evm.f0) / (2 * h)
            assert abs(ev0.df0[col] - fd_f0) <= tol * max(abs(fd_f0), 1e-9)
            fd_g = (evp.g - evm.g) / (2 * h)
            big = np.abs(fd_g) > 1e-6
            assert np.allclose(ev0.dg[big, col], fd_g[big], rtol=5 * tol)


def test_each_quantity_is_differentiated_once(tiny_problem, monkeypatch):
    # each |F_p| cap is two constraints, upper and lower, on one quantity
    names = []
    sensitivity = O.StateAdjoint.sensitivity

    def counting(self, quantity):
        names.append(quantity.name)
        return sensitivity(self, quantity)

    monkeypatch.setattr(O.StateAdjoint, "sensitivity", counting)
    ev = O.evaluate_design(tiny_problem, tiny_problem.design0)
    read = [q for s in [tiny_problem.objective, *tiny_problem.constraints]
            for q in s.quantities]
    assert len(read) == 14
    assert sorted(names) == sorted({q.name for q in read})
    assert len(names) == 10 == len(ev.values)


def test_evaluation_refuses_another_normalization(tiny_problem):
    with pytest.raises(ValueError, match="frozen normalization"):
        O.evaluate_design(tiny_problem, tiny_problem.design0,
                          A_f=2.0 * tiny_problem.A_f)


def test_wing_evaluation_with_frozen_skin_support():
    prob = P.make_problem("morphing_wing", element_size=2e-3)
    ev = O.evaluate_design(prob, prob.design0)
    assert not ev.failed
    assert len(ev.paths) == 3
    assert ev.objective > 0.0  # squared distance from the precision point


def test_oscillation_flag():
    hist = []
    for i in range(12):
        r = fake_record(1e-3, -0.1)
        r.iteration = i
        r.objective = (-1.0) ** i
        hist.append(r)
    assert O._flag_oscillation(hist)
    for i, r in enumerate(hist):
        r.objective = float(i)
    assert not O._flag_oscillation(hist)
