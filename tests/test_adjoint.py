import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from varibc import adjoint as adj
from varibc import assembly as asm
from varibc import fixtures as fx
from varibc import mesh as msh
from varibc import optimizer as O
from varibc import problems as P
from varibc import solver as S
from varibc import verify


SOLVE_CFG = S.SolverConfig(steps=2, tol_residual=1e-11,
                           max_corrector_iters=30)


@pytest.fixture(scope="module")
def gripper_setup():
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    ctrl = f.control()
    path = S.solve_equilibrium_path(model, ctrl, SOLVE_CFG)
    return f, fields, model, ctrl, path


def quantity_set(f):
    return [
        P.UOut(f.output_selector, step=2, name="u_out"),
        P.FIn(step=2, name="f_in"),
        P.FP(step=2, name="f_p"),
        P.VolumeFraction(step=2),
        P.OutputOffsetSq(f.output_springs[0][0] // 2, (0.105, 0.061), 2, 0,
                         name="off2"),
    ]


class TestMultipliers:
    def test_state_free_quantity_has_zero_multipliers(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        rec = adj.StateAdjoint(model, ctrl, path.state_at_step(2), fields,
                               f.design).sensitivity(P.VolumeFraction(step=2))
        assert np.all(rec.psi_c == 0.0)
        assert np.all(rec.psi_R == 0.0)
        # and the gradient reduces to the explicit partial, exactly
        ctx = adj.StateContext(state=path.state_at_step(2), model=model,
                               control=ctrl, fields=fields, design=f.design)
        explicit = P.VolumeFraction(step=2).dfdzeta(ctx)
        assert np.array_equal(rec.dgdzeta, explicit)

    def test_multiplier_equations_satisfied(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        sa = adj.StateAdjoint(model, ctrl, path.state_at_step(2), fields,
                              f.design)
        for q in quantity_set(f):
            dfdU, dfdlam = q.dfdU(sa.ctx), q.dfdlam(sa.ctx)
            psi_c, psi_R = sa.solve_multipliers(dfdU, dfdlam)
            r1, r2 = sa.multiplier_residuals(dfdU, dfdlam, psi_c, psi_R)
            assert r1 <= 1e-9 and r2 <= 1e-9

    def test_multipliers_match_dense_kkt_oracle(self):
        # quantity lambda_x on the one-element fixture: brute-force transpose
        # solve of the full bordered system
        f = fx.load_fixture("one_triangle_spring")
        fields, model = f.build()
        ctrl = f.control()
        cfg = S.SolverConfig(steps=1, tol_residual=1e-14)
        path = S.solve_equilibrium_path(model, ctrl, cfg)
        st = path.state_at_step(1)

        class LambdaX(adj.QuantitySpec):
            def evaluate(self, ctx):
                return ctx.state.lambda_x

            def dfdlam(self, ctx):
                return np.array([1.0, 0.0])

        sa = adj.StateAdjoint(model, ctrl, st, fields, f.design)
        q = LambdaX("lam_x", step=1)
        psi_c, psi_R = sa.solve_multipliers(q.dfdU(sa.ctx), q.dfdlam(sa.ctx))

        n = f.mesh.num_dofs
        K = sa.system.K_T.toarray()
        A = np.zeros((n + 2, n + 2))
        A[:n, :n] = -K                       # dR/dU
        A[:n, n] = sa.system.F_ext_x         # dR/dlam
        A[:n, n + 1] = sa.system.F_ext_y
        A[n:, :n] = sa.Nt.T                  # dc/dU
        rhs = np.zeros(n + 2)
        rhs[n] = -1.0                        # -df/dlam
        sol = np.linalg.solve(A.T, rhs)
        psi_R_ref, psi_c_ref = sol[:n], sol[n:]
        assert np.allclose(psi_R, psi_R_ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(psi_c, psi_c_ref, rtol=1e-9)

    def test_singular_reduced_system_detected(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        sa = adj.StateAdjoint(model, ctrl, path.state_at_step(2), fields,
                              f.design)
        sa.M2 = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank-1
        with pytest.raises(adj.SingularReducedSystem):
            sa.solve_multipliers(None, np.array([1.0, 0.0]))


def count_assemblies(monkeypatch):
    """Record every call of the element kernel; returns the call list."""
    calls = []
    real = asm.internal_force_and_tangent

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(asm, "internal_force_and_tangent", counting)
    return calls


def hooked_systems(model, ctrl, cfg):
    """A path and the (state, system) pairs its per-state hook was given."""
    seen = []
    path = S.solve_equilibrium_path(
        model, ctrl, cfg,
        on_state=lambda state, tangent: seen.append((state, tangent.system)))
    return path, seen


class TestConvergedSystemReuse:
    @pytest.fixture(scope="class")
    def converged(self, gripper_setup):
        """The step-2 state and the converged system the hook passed."""
        f, fields, model, ctrl, _ = gripper_setup
        _, seen = hooked_systems(model, ctrl, SOLVE_CFG)
        return seen[1]

    def test_records_equal_those_of_a_reassembled_state(self, gripper_setup,
                                                        converged):
        f, fields, model, ctrl, path = gripper_setup
        st, system = converged
        assert system is not None
        carried = adj.StateAdjoint(model, ctrl, st, fields, f.design,
                                   tangent=S.ConvergedTangent(system,
                                                              model.kin))
        rebuilt = adj.StateAdjoint(model, ctrl, st, fields, f.design)
        assert rebuilt.system is not system
        for q in quantity_set(f):
            a, b = carried.sensitivity(q), rebuilt.sensitivity(q)
            assert a.value == b.value
            for name in ("dgdzeta", "psi_c", "psi_R"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_carried_system_is_not_reassembled(self, gripper_setup,
                                               converged, monkeypatch):
        f, fields, model, ctrl, path = gripper_setup
        st, system = converged
        calls = count_assemblies(monkeypatch)
        adj.StateAdjoint(model, ctrl, st, fields, f.design,
                         tangent=S.ConvergedTangent(system, model.kin))
        assert calls == []
        adj.StateAdjoint(model, ctrl, st, fields, f.design)
        assert len(calls) == 1

    def test_bisection_substates_carry_no_system(self):
        f = fx.load_fixture("mini_gripper_100")
        _, model = f.build()
        # two corrector iterations are too few for the full stroke at once
        path, seen = hooked_systems(
            model, f.control(),
            S.SolverConfig(steps=1, max_corrector_iters=2, max_bisections=2))
        assert path.total_bisections >= 1
        substates = [s for s in path.states if not s.requested]
        assert substates
        assert not any(hasattr(s, "system") for s in path.states)
        # the hook gets each requested state with its own converged system
        assert [st for st, _ in seen] == path.requested_states
        for st, system in seen:
            assert np.array_equal(system.U, st.U)

    def test_failed_path_fallback_reassembles(self, monkeypatch):
        f = fx.load_fixture("toy_arch")
        fields, model = f.build()
        ctrl = S.InputControl(
            sample=msh.shape_values_at(f.mesh, f.design.load),
            theta=f.design.theta, u_in_norm=3.0)  # unreachable stroke
        with pytest.raises(S.PathFailed) as err:
            S.solve_equilibrium_path(model, ctrl,
                                     S.SolverConfig(steps=2, max_bisections=3))
        partial = err.value.partial
        st = O._state_for_step(partial, 1, f.mesh.num_dofs)
        assert st is partial.states[-1]
        assert not st.requested
        calls = count_assemblies(monkeypatch)
        sa = adj.StateAdjoint(model, ctrl, st, fields, f.design)
        assert len(calls) == 1
        for q in (P.FIn(step=1, name="f_in"), P.VolumeFraction(step=1)):
            rec = sa.sensitivity(q)
            assert np.isfinite(rec.value)
            assert np.all(np.isfinite(rec.dgdzeta))

    def test_singular_tangent_raises_solver_exception(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        n = f.mesh.num_dofs
        stub = SimpleNamespace(K_T=sp.csc_matrix((n, n)), F_ext_x=np.zeros(n),
                               F_ext_y=np.zeros(n))
        with pytest.raises(S.SingularTangent):
            adj.StateAdjoint(model, ctrl, path.state_at_step(2), fields,
                             f.design,
                             tangent=S.ConvergedTangent(stub, model.kin))


def count_adjoint_factorizations(monkeypatch):
    """Record every factorization the adjoint makes; returns the list."""
    calls = []
    real = adj.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(adj, "splu", counting)
    return calls


def assert_records_close(a, b, rtol):
    assert abs(a.value - b.value) <= rtol * abs(b.value)
    for name in ("dgdzeta", "psi_c", "psi_R"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.abs(x - y).max() <= rtol * np.abs(y).max(), name


class TestRefinedAdjoint:
    """StateAdjoint with the corrector's factors refines instead of
    factorizing."""

    @pytest.fixture(scope="class")
    def hooked(self):
        f = fx.load_fixture("mini_gripper_100")
        fields, model = f.build()
        ctrl = f.control()
        seen = []

        def on_state(state, tangent):
            # the parts of the tangent, which the path releases or takes
            seen.append((state, tangent.system, tangent.lu, tangent.K,
                         tangent.ref))

        path = S.solve_equilibrium_path(
            model, ctrl, S.SolverConfig(steps=4), on_state=on_state)
        return f, fields, model, ctrl, path, seen

    def test_multipliers_match_a_fresh_factorization(self, hooked,
                                                     monkeypatch):
        f, fields, model, ctrl, path, seen = hooked
        assert len(seen) == 4
        calls = count_adjoint_factorizations(monkeypatch)
        for state, system, lu, K, ref in seen:
            refined = adj.StateAdjoint(
                model, ctrl, state, fields, f.design,
                tangent=S.ConvergedTangent(system, model.kin, lu, K, ref))
            got = [refined.sensitivity(q) for q in quantity_set(f)]
            assert calls == [] and refined.tangent.factorizations == 0
            assert all(1 <= n <= S.MAX_REFINEMENT_STEPS
                       for n in refined.tangent.refinement_steps)
            fresh = adj.StateAdjoint(
                model, ctrl, state, fields, f.design,
                tangent=S.ConvergedTangent(system, model.kin))
            assert len(calls) == 1 and fresh.tangent.factorizations == 1
            calls.clear()
            for a, q in zip(got, quantity_set(f)):
                assert_records_close(a, fresh.sensitivity(q), 1e-11)

    def test_distant_factors_fall_back_to_one_factorization(
            self, hooked, monkeypatch):
        f, fields, model, ctrl, path, seen = hooked
        state, system = seen[3][:2]
        far_lu = seen[0][2]  # the step-1 factors, three steps away
        calls = count_adjoint_factorizations(monkeypatch)
        sa = adj.StateAdjoint(
            model, ctrl, state, fields, f.design,
            tangent=S.ConvergedTangent(system, model.kin, far_lu))
        got = [sa.sensitivity(q) for q in quantity_set(f)]
        assert len(calls) == 1 and sa.tangent.factorizations == 1
        assert len(sa.tangent.refinement_steps) == 1
        fresh = adj.StateAdjoint(
            model, ctrl, state, fields, f.design,
            tangent=S.ConvergedTangent(system, model.kin))
        for a, q in zip(got, quantity_set(f)):
            assert_records_close(a, fresh.sensitivity(q), 1e-11)


    def test_records_equal_those_of_row_wise_norms(self, hooked,
                                                   monkeypatch):
        # a maximum does not depend on the order it is taken in, so the
        # column-major norms of the refinement change no bit of its records
        f, fields, model, ctrl, path, seen = hooked

        def records():
            out = []
            for state, system, lu, K, ref in seen:
                sa = adj.StateAdjoint(
                    model, ctrl, state, fields, f.design,
                    tangent=S.ConvergedTangent(system, model.kin, lu, K, ref))
                out.append((sa.tangent.refinement_steps,
                            [sa.sensitivity(q) for q in quantity_set(f)]))
            return out

        got = records()
        monkeypatch.setattr(S, "_column_max_abs",
                            lambda a: np.abs(a).max(axis=0))
        want = records()
        assert len(got) == 4
        for (steps, recs), (ref_steps, refs) in zip(got, want):
            assert steps == ref_steps
            for a, b in zip(recs, refs):
                assert a.value == b.value
                for name in ("dgdzeta", "psi_c", "psi_R"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))


def test_criterion_1_differentiates_with_the_corrector_factors(monkeypatch):
    # criterion 1 runs optimizer.differentiate_path, whose adjoints refine with
    # the corrector's factors; an adjoint of its own would factorize K_T
    calls = count_adjoint_factorizations(monkeypatch)
    ok, detail = verify.gradient_exactness()
    assert ok, detail
    assert calls == []


def test_criterion_1_names_the_failing_zeta_column(monkeypatch):
    real = O.differentiate_path

    def skewed_theta(*args, **kwargs):
        path, sens, failed = real(*args, **kwargs)
        for rec in sens.values():
            rec.dgdzeta[-1] *= 1.01
        return path, sens, failed

    monkeypatch.setattr(O, "differentiate_path", skewed_theta)
    ok, detail = verify.gradient_exactness()
    theta_col = fx.load_fixture("mini_gripper_100").design.size - 1
    assert not ok
    assert detail.startswith(f"u_out d/dzeta[{theta_col}] rel err")


def test_path_values_runs_no_adjoint(monkeypatch, gripper_setup):
    # the FD oracle re-solves the path and evaluates; it must not reuse the
    # adjoint it checks
    f, fields, model, ctrl, path = gripper_setup

    def forbidden(*args, **kwargs):
        raise AssertionError("the FD oracle ran an adjoint")

    for module in (O, adj):
        monkeypatch.setattr(module, "StateAdjoint", forbidden)
    monkeypatch.setattr(O, "differentiate_path", forbidden)
    got = verify.path_values(f, f.design, fields.A_f, SOLVE_CFG,
                             quantity_set(f))
    for q in quantity_set(f):
        ctx = adj.StateContext(state=path.state_at_step(q.step), model=model,
                               control=ctrl, fields=fields, design=f.design)
        assert got[q.name] == q.evaluate(ctx)


class TestConstraintPartials:
    def test_density_and_support_columns_vanish(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        ctx = adj.StateContext(state=path.state_at_step(2), model=model,
                               control=ctrl, fields=fields, design=f.design)
        dc = adj.constraint_partials(ctx)
        n_rho = len(f.design.rho)
        assert np.all(dc[:, :n_rho] == 0.0)
        assert np.all(dc[:, n_rho:n_rho + 4] == 0.0)

    def test_uniform_translation_gives_zero_position_columns(self,
                                                             gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        st = path.state_at_step(2)
        U = np.zeros_like(st.U)
        U[0::2] = 3e-3
        U[1::2] = -2e-3
        fake = S.EquilibriumState(U=U, lambda_x=0, lambda_y=0,
                                  input_fraction=1.0, residual_norm=0,
                                  corrector_iterations=0)
        ctx = adj.StateContext(state=fake, model=model, control=ctrl,
                               fields=fields, design=f.design)
        dc = adj.constraint_partials(ctx)
        col = len(f.design.rho) + 4
        assert np.allclose(dc[:, col:col + 2], 0.0, atol=1e-12)

    def test_linear_field_gradient_exact(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        a = 0.37
        U = np.zeros(f.mesh.num_dofs)
        U[0::2] = a * f.mesh.nodes[:, 0]
        fake = S.EquilibriumState(U=U, lambda_x=0, lambda_y=0,
                                  input_fraction=1.0, residual_norm=0,
                                  corrector_iterations=0)
        ctx = adj.StateContext(state=fake, model=model, control=ctrl,
                               fields=fields, design=f.design)
        dc = adj.constraint_partials(ctx)
        col = len(f.design.rho) + 4
        assert abs(dc[0, col] - a) <= 1e-10
        assert abs(dc[1, col]) <= 1e-10

    def test_theta_column(self, gripper_setup):
        f, fields, model, ctrl, path = gripper_setup
        st = path.state_at_step(2)
        ctx = adj.StateContext(state=st, model=model, control=ctrl,
                               fields=fields, design=f.design)
        dc = adj.constraint_partials(ctx)
        s = st.input_fraction
        want = s * ctrl.u_in_norm * np.array(
            [np.sin(ctrl.theta), -np.cos(ctrl.theta)])
        assert np.allclose(dc[:, -1], want, rtol=1e-14)


@pytest.fixture(scope="module")
def all_sens(gripper_setup):
    f, fields, model, ctrl, path = gripper_setup
    os.environ["VARIBC_CHECK_ADJOINT"] = "1"
    try:
        _, out, failed = O.differentiate_path(model, ctrl, SOLVE_CFG, fields,
                                              f.design, quantity_set(f))
        assert not failed
    finally:
        del os.environ["VARIBC_CHECK_ADJOINT"]
    return out


class TestTotalDerivativeVsFd:
    """Central-difference oracles through the full nonlinear solve."""

    @pytest.fixture
    def sens(self, all_sens):
        return all_sens

    def _fd(self, f, A_f, quantities, col, h):
        qp, qm = (verify.path_values(f, f.design.shifted(col, s), A_f,
                                     SOLVE_CFG, quantities) for s in (h, -h))
        return {k: (qp[k] - qm[k]) / (2 * h) for k in qp}

    def test_density_gradients(self, gripper_setup, sens):
        f, fields, model, ctrl, path = gripper_setup
        qs = quantity_set(f)
        rng = np.random.default_rng(11)
        for j in rng.integers(0, len(f.design.rho), 3):
            fd = self._fd(f, fields.A_f, qs, int(j), 1e-4)
            for name, v in fd.items():
                got = sens[name].dgdzeta[int(j)]
                assert abs(got - v) <= 1e-4 * max(abs(v), 1e-9)

    def test_theta_gradients(self, gripper_setup, sens):
        f, fields, model, ctrl, path = gripper_setup
        qs = quantity_set(f)
        col = f.design.size - 1
        fd = self._fd(f, fields.A_f, qs, col, 1e-6)
        for name, v in fd.items():
            got = sens[name].dgdzeta[col]
            assert abs(got - v) <= 1e-4 * max(abs(v), 1e-9)
        assert fd["v_f"] == 0.0

    def test_coordinate_gradients(self, gripper_setup, sens):
        f, fields, model, ctrl, path = gripper_setup
        qs = quantity_set(f)
        n_rho = len(f.design.rho)
        # X_s1, Y_s2, X_f, Y_f in the [rho, X_s(all), Y_s(all), X_f, Y_f,
        # theta] layout of the two-support fixture
        for col in (n_rho + 0, n_rho + 3, n_rho + 4, n_rho + 5):
            fd = self._fd(f, fields.A_f, qs, col, 1e-6)
            for name, v in fd.items():
                got = sens[name].dgdzeta[col]
                assert abs(got - v) <= 1e-3 * max(abs(v), 1e-9)


def test_differentiate_path_groups_by_step(monkeypatch):
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    ctrl = f.control()
    adjoints = []

    class Recording(adj.StateAdjoint):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            adjoints.append(self)

    monkeypatch.setattr(O, "StateAdjoint", Recording)
    calls = count_adjoint_factorizations(monkeypatch)
    qs = [P.FIn(step=1, name="f1"), P.FIn(step=2, name="f2"),
          P.VolumeFraction(step=1)]
    path, out, failed = O.differentiate_path(model, ctrl, SOLVE_CFG, fields,
                                             f.design, qs)
    assert not failed
    assert set(out) == {"f1", "f2", "v_f"}
    assert out["f1"].value != out["f2"].value
    # one adjoint per step, each on the corrector's factors
    assert len(adjoints) == len(path.requested_states) == 2
    assert all(a.ctx.state is st
               for a, st in zip(adjoints, path.requested_states))
    assert all(a.tangent.refinement_steps and a.tangent.factorizations == 0
               for a in adjoints)
    assert calls == []
