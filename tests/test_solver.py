import gc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from varibc import adjoint as adj
from varibc import assembly as asm
from varibc import fixtures as fx
from varibc import mesh as M
from varibc import optimizer as O
from varibc import problems as P
from varibc import solver as S


def f_in_of(state, theta):
    return state.lambda_x * np.cos(theta) + state.lambda_y * np.sin(theta)


def union_jack_mesh(nx, ny, width=1.0, height=1.0):
    """Structured crisscross mesh, mirror-symmetric across both midlines."""
    xs = np.linspace(0, width, nx + 1)
    ys = np.linspace(0, height, ny + 1)
    corners = np.array([(x, y) for y in ys for x in xs])
    centers = np.array(
        [(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
         for j in range(ny) for i in range(nx)]
    )
    nodes = np.vstack([corners, centers])
    tris = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c, d = a + 1, a + nx + 2, a + nx + 1
            m = len(corners) + j * nx + i
            tris += [[a, b, m], [b, c, m], [c, d, m], [d, a, m]]
    return M.MeshModel(nodes, np.array(tris), thickness=0.01)


@pytest.fixture(scope="module")
def one_triangle():
    f = fx.load_fixture("one_triangle_spring")
    fields, model = f.build()
    return f, fields, model


@pytest.fixture(scope="module")
def gripper():
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    return f, fields, model


# two corrector iterations are too few for mini_gripper_100's full stroke at
# once, so its path bisects
FORCED_BISECTION = S.SolverConfig(steps=1, max_corrector_iters=2,
                                  max_bisections=2)


def counter_ramp_model(f):
    """The fixture's model with a counter force at the output node, which
    its path ramps in two halves."""
    F_counter = np.zeros(f.mesh.num_dofs)
    F_counter[f.output_selector[0][0]] = 100.0
    return f.build()[1].with_counter_force(F_counter)


class TestInputPointResponse:
    def test_uniform_translation(self, gripper):
        f, fields, model = gripper
        ctrl = f.control()
        n = f.mesh.num_dofs
        cols = np.zeros((n, 2))
        cols[0::2, 0] = 0.3
        cols[1::2, 0] = -0.7
        cols[0::2, 1] = 1.1
        cols[1::2, 1] = 0.2
        M2 = S.input_point_response(ctrl.sample, cols)
        assert np.allclose(M2, [[0.3, 1.1], [-0.7, 0.2]], atol=1e-14)

    def test_point_at_node_reads_nodal_values(self, gripper):
        f, fields, model = gripper
        node = 17
        smp = M.shape_values_at(f.mesh, f.mesh.nodes[node])
        rng = np.random.default_rng(0)
        cols = rng.normal(size=(f.mesh.num_dofs, 2))
        M2 = S.input_point_response(smp, cols)
        assert np.allclose(M2[0], cols[2 * node, :], atol=1e-12)
        assert np.allclose(M2[1], cols[2 * node + 1, :], atol=1e-12)

    def test_random_columns_match_barycentric_oracle(self, gripper):
        f, fields, model = gripper
        ctrl = f.control()
        rng = np.random.default_rng(1)
        cols = rng.normal(size=(f.mesh.num_dofs, 2))
        M2 = S.input_point_response(ctrl.sample, cols)
        e, lam = M.locate_point(f.mesh, f.design.load)
        tri = f.mesh.triangles[e]
        for j in range(2):
            ux = sum(lam[i] * cols[2 * tri[i], j] for i in range(3))
            uy = sum(lam[i] * cols[2 * tri[i] + 1, j] for i in range(3))
            assert np.allclose(M2[:, j], [ux, uy], atol=1e-12)


def zero_state_factors(model):
    U0 = np.zeros(model.mesh.num_dofs)
    return U0, S._factorize(model.assemble(U0).K_T)


class TestPredictorCorrector:
    def test_zero_step_keeps_state(self, one_triangle):
        f, fields, model = one_triangle
        ctrl = f.control()
        U0, lu = zero_state_factors(model)
        U, lam, _ = S.newton_update(model, ctrl, lu, U0, np.zeros(2),
                                    ctrl.target(0.0))
        assert np.all(U == 0.0) and np.all(lam == 0.0)

    def test_predictor_hits_prescribed_increment(self, one_triangle):
        f, fields, model = one_triangle
        ctrl = f.control()
        U0, lu = zero_state_factors(model)
        du = 1e-7
        U, lam, _ = S.newton_update(model, ctrl, lu, U0, np.zeros(2),
                                    ctrl.target(du / ctrl.u_in_norm))
        got = ctrl.sample.interpolate(U)
        want = du * ctrl.direction()
        assert np.linalg.norm(got - want) <= 1e-12 * du

    def test_linear_problem_converges_immediately(self):
        f = fx.load_fixture("two_triangle_linear")
        fields, model = f.build()
        ctrl = f.control()
        cfg = S.SolverConfig(steps=1, tol_residual=1e-9)
        path = S.solve_equilibrium_path(model, ctrl, cfg)
        st = path.requested_states[0]
        # at a 1e-6 stroke the problem is linear: the predictor already is
        # the solution and at most one polish iteration is needed
        assert st.corrector_iterations <= 1
        assert st.residual_norm <= 1e-9

    def test_corrector_zero_iterations_on_converged_state(self, one_triangle):
        f, fields, model = one_triangle
        ctrl = f.control()
        U0 = np.zeros(f.mesh.num_dofs)
        cfg = S.SolverConfig(steps=1)
        U, lam, system, lu, K, iters, hist, ref = S.corrector(
            model, ctrl, U0, np.zeros(2), 0.0, cfg)
        assert iters == 0 and ref is None and K is system.K_T

    def test_quadratic_residual_decay(self, gripper):
        f, fields, model = gripper
        ctrl = f.control()
        cfg = S.SolverConfig(steps=1, tol_residual=1e-12,
                             max_corrector_iters=30)
        path = S.solve_equilibrium_path(model, ctrl, cfg)
        hist = np.array(path.requested_states[0].residual_history)
        hist = hist[hist > 1e-14]
        # superlinear tail: ratios of successive residuals shrink
        ratios = hist[1:] / hist[:-1]
        assert len(ratios) >= 2
        assert ratios[-1] < 0.2 * ratios[0]

    def test_symmetric_structure_zero_lateral_factor(self):
        # union-jack structured mesh, exactly mirror-symmetric about y = 0.5
        mesh = union_jack_mesh(4, 4)
        from varibc.design_field import DesignVector, ProjectionParams
        from varibc.material import MaterialParams
        design = DesignVector(
            rho=np.full(len(mesh.designable), 0.8),
            supports=np.array([[0.125, 0.25], [0.125, 0.75]]),
            load=np.array([0.5, 0.5]), theta=0.0,
        )
        params = ProjectionParams(r=0.12, r_min=0.1, beta=500.0)
        fields, model = asm.build_model(mesh, design, params,
                                        MaterialParams(nu=0.3))
        ctrl = S.InputControl(sample=M.shape_values_at(mesh, design.load),
                              theta=0.0, u_in_norm=1e-4)
        path = S.solve_equilibrium_path(model, ctrl, S.SolverConfig(steps=2))
        st = path.requested_states[-1]
        assert abs(st.lambda_y) <= 1e-9 * abs(st.lambda_x)


class TestEquilibriumPath:
    def test_one_element_lambda_matches_dense_oracle(self, one_triangle):
        f, fields, model = one_triangle
        ctrl = f.control()
        cfg = S.SolverConfig(steps=1, tol_residual=1e-14)
        path = S.solve_equilibrium_path(model, ctrl, cfg)
        st = path.requested_states[0]

        # independent dense linear oracle built from the CST formula
        x = f.mesh.nodes[f.mesh.triangles[0], 0]
        y = f.mesh.nodes[f.mesh.triangles[0], 1]
        A = f.mesh.areas[0]
        t = f.mesh.thickness
        gx = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / (2 * A)
        gy = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / (2 * A)
        B = np.zeros((3, 6))
        B[0, 0::2] = gx
        B[1, 1::2] = gy
        B[2, 0::2] = gy
        B[2, 1::2] = gx
        K = fields.E[0] * A * t * B.T @ f.material.D0 @ B
        K += np.eye(6) * fields.k_s[0] / 3.0
        e, lam_b = M.locate_point(f.mesh, f.design.load)
        N = np.zeros((2, 6))
        N[0, 0::2] = lam_b
        N[1, 1::2] = lam_b
        Fx = np.zeros(6)
        Fy = np.zeros(6)
        Fx[0::2] = fields.f_e[0] * f.mesh.volumes[0] / 3.0
        Fy[1::2] = fields.f_e[0] * f.mesh.volumes[0] / 3.0
        big = np.zeros((8, 8))
        big[:6, :6] = K
        big[:6, 6] = -Fx
        big[:6, 7] = -Fy
        big[6:, :6] = N
        rhs = np.zeros(8)
        rhs[6:] = ctrl.target(1.0)
        sol = np.linalg.solve(big, rhs)
        assert abs(st.lambda_x - sol[6]) <= 1e-6 * max(abs(sol[6]), 1e-12)
        assert abs(st.lambda_y - sol[7]) <= 1e-6 * max(abs(sol[7]), 1e-12)
        assert np.allclose(st.U, sol[:6], rtol=1e-6)

    def test_reported_states_meet_contract(self, gripper):
        f, fields, model = gripper
        ctrl = f.control()
        cfg = S.SolverConfig(steps=4)
        path = S.solve_equilibrium_path(model, ctrl, cfg)
        assert [s.input_fraction for s in path.requested_states] == [
            0.25, 0.5, 0.75, 1.0]
        for st in path.requested_states:
            assert st.residual_norm <= 1e-6
            got = ctrl.sample.interpolate(st.U)
            want = ctrl.target(st.input_fraction)
            assert np.all(np.abs(got - want) <= 1e-10 * ctrl.u_in_norm)

    def test_step_refinement_consistency(self, gripper):
        f, fields, model = gripper
        ctrl = f.control()
        p1 = S.solve_equilibrium_path(model, ctrl, S.SolverConfig(steps=4))
        p2 = S.solve_equilibrium_path(model, ctrl, S.SolverConfig(steps=8))
        u1 = p1.requested_states[-1].U
        u2 = p2.requested_states[-1].U
        assert np.linalg.norm(u1 - u2) <= 1e-3 * np.linalg.norm(u2)

    def test_bitwise_determinism(self, gripper):
        f, fields, model = gripper
        ctrl = f.control()
        cfg = S.SolverConfig(steps=3)
        p1 = S.solve_equilibrium_path(model, ctrl, cfg)
        p2 = S.solve_equilibrium_path(model, ctrl, cfg)
        for a, b in zip(p1.states, p2.states):
            assert np.array_equal(a.U, b.U)
            assert a.lambda_x == b.lambda_x and a.lambda_y == b.lambda_y

    def test_linear_limit_matches_bordered_solve(self, gripper):
        f, fields, model = gripper
        smp = M.shape_values_at(f.mesh, f.design.load)
        ctrl = S.InputControl(sample=smp, theta=f.design.theta,
                              u_in_norm=1e-6 * 0.1)
        path = S.solve_equilibrium_path(
            model, ctrl, S.SolverConfig(steps=1, tol_residual=1e-11,
                                        max_corrector_iters=25))
        st = path.requested_states[0]
        U_lin, lam_lin = S.linear_reference_solve(model, ctrl, s=1.0)
        assert np.linalg.norm(st.U - U_lin) <= 1e-3 * np.linalg.norm(U_lin)
        assert abs(st.lambda_x - lam_lin[0]) <= 1e-3 * abs(lam_lin[0])


@pytest.fixture(scope="module")
def arch_setup():
    f = fx.load_fixture("toy_arch")
    fields, model = f.build()
    return f, model


class TestPerStateHook:
    def test_called_with_each_requested_state_and_live_factors(self):
        f = fx.load_fixture("mini_gripper_100")
        _, model = f.build()
        seen = []

        def on_state(state, system, lu):
            seen.append(state)
            assert np.array_equal(system.U, state.U)
            # the factors solve with a tangent one Newton step away
            b = system.F_ext_x
            x = lu.solve(b)
            r = b - system.K_T @ x
            assert np.abs(r).max() <= 1e-3 * np.abs(b).max()

        path = S.solve_equilibrium_path(model, f.control(), FORCED_BISECTION,
                                        on_state=on_state)
        assert path.total_bisections >= 1
        assert len(seen) == len(path.requested_states) == 1
        assert all(a is b for a, b in zip(seen, path.requested_states))


def reused_and_resolved(monkeypatch, model_of, control, cfg):
    """Paths of model_of() as solved, and with every newton_update
    re-solving the reference loads, each with the column counts of the
    PermutedLU solves it made."""
    calls = []
    real_solve = S.PermutedLU.solve

    def counting(self, b):
        calls.append(b.shape[1] if b.ndim == 2 else 1)
        return real_solve(self, b)

    monkeypatch.setattr(S.PermutedLU, "solve", counting)

    def solve_path():
        calls.clear()
        # a new ElementKinematics each time
        path = S.solve_equilibrium_path(model_of(), control, cfg)
        return path, list(calls)

    reused = solve_path()
    real_update = S.newton_update

    def resolving(*args, ref=None, **kwargs):
        return real_update(*args, **kwargs)

    monkeypatch.setattr(S, "newton_update", resolving)
    return reused, solve_path()


def assert_same_states(p1, p2):
    for a, b in zip(p1.states, p2.states, strict=True):
        assert a.U.tobytes() == b.U.tobytes()
        assert (a.lambda_x, a.lambda_y) == (b.lambda_x, b.lambda_y)
        assert a.residual_history == b.residual_history


class TestPredictorReuse:
    def test_predictor_reuses_the_correctors_reference_solves(
            self, monkeypatch):
        # the corrector's last iteration solved [F_ext_x, F_ext_y, R] with
        # the factors the next predictor uses, so every predictor after the
        # first solves nothing; the states equal those of re-solving ones
        f = fx.load_fixture("mini_gripper_100")
        cfg = S.SolverConfig(steps=4)
        (reused, cols_reused), (resolved, cols_resolved) = \
            reused_and_resolved(monkeypatch, lambda: f.build()[1],
                                f.control(), cfg)
        assert all(st.corrector_iterations > 0 for st in reused.states)
        assert len(cols_resolved) - len(cols_reused) == cfg.steps - 1
        assert_same_states(reused, resolved)

    def test_counter_ramp_reuses_the_reference_solves(self, monkeypatch):
        # a counter force at the output node that the ramp reaches in two
        # halves: the second half's predictor solves the counter column
        # alone, with the reference solves of the first half's corrector
        f = fx.load_fixture("mini_gripper_100")
        ctrl = f.control()
        cfg = S.SolverConfig(steps=2)
        (reused, cols_reused), (resolved, cols_resolved) = \
            reused_and_resolved(monkeypatch, lambda: counter_ramp_model(f),
                                ctrl, cfg)
        assert [st.counter_scale for st in reused.states[:2]] == [0.5, 1.0]
        assert 1 in cols_reused and 1 not in cols_resolved
        assert_same_states(reused, resolved)
        ramp = reused.states[1]
        assert ramp.input_fraction == 0.0 and not ramp.requested
        assert np.all(np.abs(ctrl.sample.interpolate(ramp.U))
                      <= 1e-10 * ctrl.u_in_norm)
        assert ramp.residual_norm <= cfg.tol_residual


class TestMemory:
    def test_a_solved_path_leaves_no_reference_cycle(self):
        # factors and systems a path no longer needs are freed at once, not
        # at the next cyclic collection, which let peak memory vary by run
        f = fx.load_fixture("mini_gripper_100")
        _, model = f.build()
        gc.collect()
        gc.disable()
        try:
            path = S.solve_equilibrium_path(model, f.control(),
                                            FORCED_BISECTION,
                                            on_state=lambda *args: None)
            assert path.total_bisections >= 1
            del path
            assert gc.collect() == 0
        finally:
            gc.enable()


class CountedLU:
    """SuperLU factors, counted alive from their creation until freed.

    SuperLU objects take no weak references, so a proxy's __del__ counts
    them out.
    """

    def __init__(self, lu, live):
        self._lu = lu
        self._live = live
        live.alive += 1
        live.most = max(live.most, live.alive)

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def __del__(self):
        self._live.alive -= 1


@pytest.fixture
def live_factors(monkeypatch):
    """Counts of the factorizations of the solver and of the adjoint, and
    of those alive at once; the cyclic collector is off, so factors count
    as freed only once nothing refers to them."""
    live = SimpleNamespace(alive=0, most=0, calls={})
    for module in (S, adj):
        def counted(*args, real=module.splu, name=module.__name__,
                    **kwargs):
            live.calls[name] = live.calls.get(name, 0) + 1
            return CountedLU(real(*args, **kwargs), live)
        monkeypatch.setattr(module, "splu", counted)
    gc.collect()
    gc.disable()
    yield live
    gc.enable()


class TestFactorLifetime:
    """At most one set of tangent factors is alive at any time."""

    @pytest.mark.parametrize("model_of, cfg", [
        (lambda f: f.build()[1], S.SolverConfig(steps=4)),
        (lambda f: f.build()[1], FORCED_BISECTION),
        (counter_ramp_model, S.SolverConfig(steps=2)),
    ], ids=["four_steps", "forced_bisection", "counter_ramp"])
    def test_path(self, live_factors, model_of, cfg):
        f = fx.load_fixture("mini_gripper_100")
        model = model_of(f)
        seen = []
        path = S.solve_equilibrium_path(
            model, f.control(), cfg,
            on_state=lambda state, system, lu: seen.append(
                live_factors.alive))
        assert len(seen) == cfg.steps and set(seen) == {1}
        assert live_factors.calls[S.__name__] > len(path.states)
        assert live_factors.most == 1
        assert live_factors.alive == 0

    def test_differentiate_path(self, live_factors):
        f = fx.load_fixture("mini_gripper_100")
        fields, model = f.build()
        qs = [P.FIn(step=1, name="f1"), P.FIn(step=2, name="f2"),
              P.VolumeFraction(step=1)]
        cfg = S.SolverConfig(steps=2, tol_residual=1e-11,
                             max_corrector_iters=30)
        path, records, failure = O.differentiate_path(
            model, f.control(), cfg, fields, f.design, qs)
        assert not failure and set(records) == {"f1", "f2", "v_f"}
        # no refinement fallback, so the adjoint factorized nothing
        assert adj.__name__ not in live_factors.calls
        assert live_factors.most == 1
        assert live_factors.alive == 0

    def test_bisection_retry_equals_reusing_the_kept_factors(
            self, monkeypatch):
        # a retry from a converged substate factorizes the tangent kept from
        # its corrector again; handing back the factors made from that very
        # matrix, as a _factorize memoized by identity does, changes no bit
        f = fx.load_fixture("mini_gripper_100")
        solved = S.solve_equilibrium_path(f.build()[1], f.control(),
                                          FORCED_BISECTION)
        memo, reused = [], []
        real = S._factorize

        def memoized(K, *args, **kwargs):
            for key, lu in memo:
                if key is K:
                    reused.append(lu)
                    return lu
            memo.append((K, real(K, *args, **kwargs)))
            return memo[-1][1]

        monkeypatch.setattr(S, "_factorize", memoized)
        kept = S.solve_equilibrium_path(f.build()[1], f.control(),
                                        FORCED_BISECTION)
        assert solved.total_bisections >= 2 and reused
        assert_same_states(solved, kept)


class TestToyArch:
    @pytest.fixture
    def arch(self, arch_setup):
        return arch_setup

    def test_snap_through_curve(self, arch):
        f, model = arch
        ctrl = f.control()
        path = S.solve_equilibrium_path(
            model, ctrl, S.SolverConfig(steps=f.steps))
        fins = np.array([f_in_of(s, f.design.theta)
                         for s in path.requested_states])
        assert fins.max() > 0
        assert fins[-1] < 0  # ends on the negative branch

    def test_nominal_step_fails_and_bisection_recovers(self, arch):
        f, model = arch
        smp = M.shape_values_at(f.mesh, f.design.load)
        ctrl = S.InputControl(sample=smp, theta=f.design.theta,
                              u_in_norm=f.expected["bisect_stroke"])
        with pytest.raises(S.PathFailed):
            S.solve_equilibrium_path(
                model, ctrl, S.SolverConfig(steps=1, max_bisections=0))
        path = S.solve_equilibrium_path(
            model, ctrl, S.SolverConfig(steps=1, max_bisections=6))
        assert path.total_bisections >= 1
        assert path.requested_states[-1].input_fraction == 1.0

    def test_path_failed_carries_partial_progress(self, arch):
        f, model = arch
        smp = M.shape_values_at(f.mesh, f.design.load)
        ctrl = S.InputControl(sample=smp, theta=f.design.theta,
                              u_in_norm=3.0)  # unreachable stroke
        with pytest.raises(S.PathFailed) as ei:
            S.solve_equilibrium_path(
                model, ctrl, S.SolverConfig(steps=2, max_bisections=3))
        err = ei.value
        assert err.partial is not None
        assert 0.0 <= err.fraction_reached < 1.0


class TestFactorize:
    """The tangent factorization with the symmetric fill-reducing ordering."""

    @pytest.fixture(scope="class")
    def tangent(self, gripper):
        f, fields, model = gripper
        U = np.random.default_rng(3).uniform(-1e-4, 1e-4, f.mesh.num_dofs)
        return model.assemble(U).K_T

    def test_solves_match_default_splu(self, tangent):
        b = np.random.default_rng(4).standard_normal((tangent.shape[0], 3))
        ref = splu(tangent).solve(b)
        got = S._factorize(tangent).solve(b)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_fill_below_default_ordering(self, tangent):
        assert S._factorize(tangent).nnz < splu(tangent).nnz

    def test_zero_column_raises_singular_tangent(self, tangent):
        K = tangent.copy()
        K.data[K.indptr[5]:K.indptr[6]] = 0.0
        with pytest.raises(S.SingularTangent):
            S._factorize(K)

    def test_pre_permuted_factors_match_tangent_splu(self, gripper, tangent):
        f, fields, model = gripper
        kin = asm.ElementKinematics(f.mesh, model.kin.material)
        first = S._factorize(tangent, kin=kin)
        assert kin.tangent_ordering is not None
        assert not isinstance(first, S.PermutedLU)
        # a later tangent of the same pattern, at another displacement
        U = np.random.default_rng(5).uniform(-2e-4, 2e-4, f.mesh.num_dofs)
        K = model.assemble(U).K_T
        lu = S._factorize(K, kin=kin)
        assert isinstance(lu, S.PermutedLU)
        ref = splu(K, **S.TANGENT_SPLU)
        assert lu.nnz == ref.nnz
        b = np.random.default_rng(6).standard_normal((K.shape[0], 3))
        x = ref.solve(b)
        assert np.abs(lu.solve(b) - x).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(lu.solve(b[:, 0]) - x[:, 0]).max() <= (
            1e-12 * np.abs(x[:, 0]).max())

    def test_pre_permuted_solve_hands_superlu_fortran_order(self, gripper,
                                                             tangent):
        # b[q] gathered into Fortran order gives, bit for bit, the solution
        # of the C-ordered gather, and SuperLU receives no C-ordered block
        f, fields, model = gripper
        kin = asm.ElementKinematics(f.mesh, model.kin.material)
        S._factorize(tangent, kin=kin)
        lu = S._factorize(tangent, kin=kin)
        q, perm_c = lu.ordering.q, lu.ordering.perm_c
        superlu = lu.lu
        seen = []

        class Recording:
            def solve(self, b):
                seen.append(b.flags.f_contiguous)
                return superlu.solve(b)

        lu.lu = Recording()
        rng = np.random.default_rng(9)
        for b in (rng.standard_normal((tangent.shape[0], 3)),
                  rng.standard_normal(tangent.shape[0])):
            want = superlu.solve(b[q])[perm_c]
            assert lu.solve(b).tobytes() == want.tobytes()
        assert seen == [True, True]

    def test_column_at_a_time_keeps_pivots_and_fill(self, gripper, tangent):
        # panel_size = 1 against SuperLU's default panels, on the first
        # tangent of a mesh and on a later one factorized pre-permuted
        for settings in (S.TANGENT_SPLU, S.NATURAL_SPLU):
            assert settings["panel_size"] == 1

        def default_panels(K, **kwargs):
            kwargs.pop("panel_size")
            return splu(K, **kwargs)

        f, fields, model = gripper
        kin = asm.ElementKinematics(f.mesh, model.kin.material)
        first = S._factorize(tangent, kin=kin)
        U = np.random.default_rng(7).uniform(-2e-4, 2e-4, f.mesh.num_dofs)
        later = model.assemble(U).K_T
        pairs = [
            (first, S._factorize(tangent, default_panels)),
            (S._factorize(later, kin=kin).lu,
             kin.tangent_ordering.factorize(later, default_panels).lu),
        ]
        b = np.random.default_rng(8).standard_normal((tangent.shape[0], 3))
        for lu, ref in pairs:
            assert np.array_equal(lu.perm_r, ref.perm_r)
            assert np.array_equal(lu.perm_c, ref.perm_c)
            assert lu.L.nnz + lu.U.nnz == ref.L.nnz + ref.U.nnz
            x = ref.solve(b)
            assert np.abs(lu.solve(b) - x).max() <= 1e-12 * np.abs(x).max()

    def test_ordering_runs_once_per_element_kinematics(self, monkeypatch):
        f = fx.load_fixture("mini_gripper_100")
        specs = []
        real = S.splu

        def counting(K, **kwargs):
            specs.append(kwargs["permc_spec"])
            return real(K, **kwargs)

        monkeypatch.setattr(S, "splu", counting)
        for meshes in (1, 2):
            _, model = f.build()  # a new ElementKinematics each time
            for _ in range(2):
                S.solve_equilibrium_path(model, f.control(),
                                         S.SolverConfig(steps=2))
            assert specs.count("MMD_AT_PLUS_A") == meshes
            assert specs.count("NATURAL") == len(specs) - meshes


def test_solver_config_validation():
    with pytest.raises(ValueError):
        S.SolverConfig(tol_residual=-1.0)
    with pytest.raises(ValueError):
        S.SolverConfig(max_bisections=-1)
    S.SolverConfig(max_bisections=0)
