import numpy as np
import pytest
import scipy.sparse as sp

from varibc import assembly as asm
from varibc import fixtures as fx
from varibc import mesh as M
from varibc import problems as P
from varibc.material import MaterialParams, NonPositiveJacobian

import oracles


@pytest.fixture(scope="module")
def kin_small():
    mesh = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.4), thickness=0.01)
    return asm.ElementKinematics(mesh, MaterialParams(nu=0.49))


@pytest.fixture(scope="module")
def gripper():
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    return f, fields, model


def rand_ue(rng, scale=0.05):
    return rng.uniform(-scale, scale, size=6)


class TestElementForce:
    def test_zero_displacement(self, kin_small):
        f = oracles.element_internal_force(kin_small, 0, np.zeros(6), 1e7, 1.0)
        assert np.allclose(f, 0.0)

    def test_rigid_translation_is_force_free(self, kin_small):
        u = np.tile([1e-3, 2e-3], 3)
        for gamma in (0.0, 1.0):
            f = oracles.element_internal_force(kin_small, 1, u, 1e7, gamma)
            assert np.all(np.abs(f) <= 1e-12)

    def test_force_is_energy_gradient(self, kin_small):
        rng = np.random.default_rng(0)
        for e in range(min(4, kin_small.mesh.num_elements)):
            for gamma in (1.0, 0.6):
                ue = rand_ue(rng)
                f = oracles.element_internal_force(kin_small, e, ue, 1e7,
                                                   gamma)
                h = 1e-7
                fd = np.empty(6)
                for i in range(6):
                    up, um = ue.copy(), ue.copy()
                    up[i] += h
                    um[i] -= h
                    fd[i] = (
                        oracles.element_strain_energy(kin_small, e, up, 1e7,
                                                      gamma)
                        - oracles.element_strain_energy(kin_small, e, um, 1e7,
                                                        gamma)
                    ) / (2 * h)
                assert np.linalg.norm(f - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_inverted_element_raises(self, kin_small):
        # huge displacement gradient flips the element
        ue = np.array([0.0, 0.0, -3.0, 0.0, 0.0, 0.0])
        with pytest.raises(NonPositiveJacobian):
            oracles.element_internal_force(kin_small, 0, ue, 1e7, 1.0)


class TestElementTangent:
    def test_equals_linear_stiffness_at_zero(self, kin_small):
        e = 2
        k1 = oracles.element_tangent(kin_small, e, np.zeros(6), 1e7, 1.0)
        kl = 1e7 * kin_small.kl0[e]
        assert np.allclose(k1, kl, rtol=1e-12)

    def test_gamma_zero_is_linear_for_any_u(self, kin_small):
        rng = np.random.default_rng(1)
        ue = rand_ue(rng, scale=0.3)
        k = oracles.element_tangent(kin_small, 0, ue, 1e7, 0.0)
        assert np.allclose(k, 1e7 * kin_small.kl0[0], rtol=1e-12)

    def test_tangent_is_force_jacobian(self, kin_small):
        rng = np.random.default_rng(2)
        for gamma in (1.0, 0.35):
            ue = rand_ue(rng)
            k = oracles.element_tangent(kin_small, 1, ue, 1e7, gamma)
            h = 1e-7
            fd = np.empty((6, 6))
            for i in range(6):
                up, um = ue.copy(), ue.copy()
                up[i] += h
                um[i] -= h
                fd[:, i] = (
                    oracles.element_internal_force(kin_small, 1, up, 1e7,
                                                   gamma)
                    - oracles.element_internal_force(kin_small, 1, um, 1e7,
                                                     gamma)
                ) / (2 * h)
            assert np.linalg.norm(k - fd) <= 1e-6 * np.linalg.norm(fd)
            assert np.allclose(k, k.T, atol=1e-9 * np.abs(k).max())


class TestVectorizedAssembly:
    def test_matches_single_element_path(self, gripper):
        f, fields, model = gripper
        rng = np.random.default_rng(3)
        U = rng.uniform(-1e-3, 1e-3, f.mesh.num_dofs)
        F_int, K, arrays = asm.internal_force_and_tangent(
            model.kin, U, fields.E, fields.gamma
        )
        ref = np.zeros_like(F_int)
        for e in range(f.mesh.num_elements):
            ue = U[model.kin.dofs[e]]
            fe = oracles.element_internal_force(
                model.kin, e, ue, fields.E[e], fields.gamma[e])
            ref[model.kin.dofs[e]] += fe
        assert np.allclose(F_int, ref, rtol=1e-12, atol=1e-14)
        e = 7
        ke = oracles.element_tangent(model.kin, e, U[model.kin.dofs[e]],
                                     fields.E[e], fields.gamma[e])
        rows = model.kin.dofs[e]
        assert np.allclose(K.toarray()[np.ix_(rows, rows)].sum(),
                           ke.sum() + _overlap_sum(model.kin, K, e, fields, U),
                           rtol=1e-9)

    def test_dF_dgamma_matches_fd(self, gripper):
        f, fields, model = gripper
        rng = np.random.default_rng(4)
        U = rng.uniform(-1e-3, 1e-3, f.mesh.num_dofs)
        _, _, arrays = asm.internal_force_and_tangent(
            model.kin, U, fields.E, fields.gamma)
        h = 1e-7
        for e in rng.integers(0, f.mesh.num_elements, 8):
            ue = U[model.kin.dofs[e]]
            fp = oracles.element_internal_force(model.kin, e, ue, fields.E[e],
                                                fields.gamma[e] + h)
            fm = oracles.element_internal_force(model.kin, e, ue, fields.E[e],
                                                fields.gamma[e] - h)
            fd = (fp - fm) / (2 * h)
            got = arrays.dF_dgamma[e]
            assert np.allclose(got, fd, rtol=1e-5,
                               atol=1e-7 * np.abs(fd).max() + 1e-12)


class TestFusedKernel:
    """The whole kernel output against the single-element reference forms."""

    @pytest.fixture(scope="class")
    def state(self, kin_small):
        rng = np.random.default_rng(5)
        n_e = kin_small.mesh.num_elements
        U = rng.uniform(-0.02, 0.02, kin_small.mesh.num_dofs)
        E = rng.uniform(1e3, 1e7, n_e)
        gamma = rng.uniform(0.0, 1.0, n_e)
        return U, E, gamma, asm.internal_force_and_tangent(kin_small, U, E,
                                                           gamma)

    def test_tangent_equals_dense_sum_of_element_tangents(self, kin_small,
                                                          state):
        U, E, gamma, (_, K, _) = state
        n = kin_small.mesh.num_dofs
        ref = np.zeros((n, n))
        for e, d in enumerate(kin_small.dofs):
            ref[np.ix_(d, d)] += oracles.element_tangent(kin_small, e, U[d],
                                                         E[e], gamma[e])
        assert np.abs(K.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_tangent_is_canonical_symmetric_csc(self, kin_small, state):
        K = state[3][1]
        assert K.format == "csc"
        assert K.has_canonical_format
        # one stored entry per DOF pair that shares an element, no more
        pairs = {(r, c) for d in kin_small.dofs for r in d for c in d}
        coo = K.tocoo()
        assert K.nnz == len(pairs)
        assert set(zip(coo.row.tolist(), coo.col.tolist())) == pairs
        assert abs(K - K.T).max() <= 1e-12 * abs(K).max()

    def test_force_and_gamma_derivative_match_scalar_oracles(self, kin_small,
                                                             state):
        U, E, gamma, (F_int, _, arrays) = state
        ref_F = np.zeros_like(F_int)
        for e, d in enumerate(kin_small.dofs):
            u, g = U[d], gamma[e]
            f_e = oracles.element_internal_force(kin_small, e, u, E[e], g)
            # d f / d gamma = f_nl + gamma k_nl u - 2 gamma f_l, with the
            # nonlinear parts at gamma u and the linear part at gamma = 0
            f_nl = oracles.element_internal_force(kin_small, e, g * u, E[e],
                                                  1.0)
            k_nl = oracles.element_tangent(kin_small, e, g * u, E[e], 1.0)
            f_l = oracles.element_internal_force(kin_small, e, u, E[e], 0.0)
            dfdg = f_nl + g * (k_nl @ u) - 2.0 * g * f_l
            scale = max(np.abs(f_nl).max(), np.abs(f_l).max())
            assert np.abs(arrays.f_int[e] - f_e).max() <= 1e-12 * scale
            assert np.abs(arrays.dF_dgamma[e] - dfdg).max() <= 1e-12 * scale
            ref_F[d] += f_e
        assert np.abs(F_int - ref_F).max() <= 1e-12 * np.abs(ref_F).max()

    def test_inverted_element_raises_with_its_index(self, kin_small):
        mesh = kin_small.mesh
        n_e = mesh.num_elements
        e = n_e // 2
        # u_x = -3 x gives F = diag(-2, 1); gamma = 0 keeps the others at I
        gamma = np.zeros(n_e)
        gamma[e] = 1.0
        U = np.zeros(mesh.num_dofs)
        U[0::2] = -3.0 * mesh.nodes[:, 0]
        with pytest.raises(NonPositiveJacobian) as err:
            asm.internal_force_and_tangent(kin_small, U, np.full(n_e, 1e7),
                                           gamma)
        assert err.value.element == e


def _pattern_meshes():
    rect = M.generate_mesh(M.rectangle_geometry(1.0, 0.6, 0.15), thickness=0.01)
    # the same mesh with nodes and elements numbered in random order
    rng = np.random.default_rng(11)
    perm = rng.permutation(rect.num_nodes)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(len(perm))
    shuffled = M.MeshModel(rect.nodes[perm],
                           new_id[rect.triangles][rng.permutation(
                               rect.num_elements)], thickness=0.01)
    # a node that no element references, numbered among the others
    k = rect.num_nodes // 2
    nodes = np.insert(rect.nodes, k, [[0.5, 0.3]], axis=0)
    tri = rect.triangles + (rect.triangles >= k)
    lonely = M.MeshModel(nodes, tri, thickness=0.01)
    return {"rectangle": rect, "shuffled": shuffled, "unreferenced": lonely}


class TestTangentPattern:
    """ElementKinematics' CSC pattern against scipy's COO-to-CSC sum."""

    @pytest.fixture(scope="class", params=["rectangle", "shuffled",
                                           "unreferenced"])
    def case(self, request):
        mesh = _pattern_meshes()[request.param]
        kin = asm.ElementKinematics(mesh, MaterialParams(nu=0.49))
        n = mesh.num_dofs
        dofs = kin.dofs.T                                   # (6, Ne)
        rows = np.broadcast_to(dofs[:, None, :], (6, 6, mesh.num_elements))
        cols = np.broadcast_to(dofs[None, :, :], (6, 6, mesh.num_elements))
        k = np.random.default_rng(12).standard_normal(rows.shape)
        diag = np.arange(n)
        ref = sp.coo_matrix(
            (np.concatenate([k.ravel(), np.zeros(n)]),
             (np.concatenate([rows.ravel(), diag]),
              np.concatenate([cols.ravel(), diag]))),
            shape=(n, n)).tocsc()
        return kin, k, ref

    def test_indices_and_indptr_equal_the_reference(self, case):
        kin, _, ref = case
        for got, want in ((kin.csc_indices, ref.indices),
                          (kin.csc_indptr, ref.indptr)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable

    def test_scatter_sums_element_matrices_like_coo(self, case):
        kin, k, ref = case
        data = np.bincount(kin.csc_scatter, weights=k.ravel(),
                           minlength=len(kin.csc_indices))
        assert np.allclose(data, ref.data, rtol=1e-13, atol=1e-13)

    def test_diagonal_points_at_the_diagonal_entries(self, case):
        kin, _, _ = case
        n = kin.mesh.num_dofs
        d = kin.csc_diagonal
        assert np.array_equal(kin.csc_indices[d], np.arange(n))
        assert np.all(kin.csc_indptr[:-1] <= d)
        assert np.all(d < kin.csc_indptr[1:])

    def test_unreferenced_node_keeps_only_its_diagonal(self):
        mesh = _pattern_meshes()["unreferenced"]
        kin = asm.ElementKinematics(mesh, MaterialParams(nu=0.49))
        lonely = np.setdiff1d(np.arange(mesh.num_nodes), mesh.triangles)
        assert len(lonely) == 1
        k = int(lonely[0])
        for c in (2 * k, 2 * k + 1):
            start, stop = kin.csc_indptr[c], kin.csc_indptr[c + 1]
            assert kin.csc_indices[start:stop].tolist() == [c]
        assert np.count_nonzero(np.isin(kin.csc_indices,
                                        [2 * k, 2 * k + 1])) == 2


def _overlap_sum(kin, K, e, fields, U):
    # contributions of other elements sharing DOFs with element e
    rows = kin.dofs[e]
    total = 0.0
    for e2 in range(kin.mesh.num_elements):
        if e2 == e:
            continue
        shared = np.intersect1d(rows, kin.dofs[e2])
        if len(shared) == 0:
            continue
        k2 = oracles.element_tangent(kin, e2, U[kin.dofs[e2]], fields.E[e2],
                                     fields.gamma[e2])
        idx = [list(kin.dofs[e2]).index(d) for d in shared]
        total += k2[np.ix_(idx, idx)].sum()
    return total


class TestModelTangentPattern:
    """Support and output springs are added into the element pattern."""

    @pytest.fixture(scope="class")
    def model(self):
        prob = P.make_problem("gripper", element_size=6e-3)
        _, model = asm.build_model(prob.mesh, prob.design0, prob.params,
                                   prob.material,
                                   output_springs=prob.output_springs)
        assert len(model.spring_dofs)
        return model

    @pytest.mark.parametrize("scale", [0.0, 1e-4])
    def test_tangent_keeps_the_pattern_and_equals_sparse_sum(self, model,
                                                             scale):
        # at U = 0 the linear element stiffness has exact zeros, which a
        # sparse addition would drop from the pattern
        kin = model.kin
        n = model.mesh.num_dofs
        U = scale * np.random.default_rng(6).uniform(-1.0, 1.0, n)
        K = model.assemble(U).K_T
        assert K.nnz == len(kin.csc_indices)
        assert np.shares_memory(K.indices, kin.csc_indices)
        assert np.shares_memory(K.indptr, kin.csc_indptr)
        _, K_el, _ = asm.internal_force_and_tangent(kin, U, model.E,
                                                    model.gamma)
        ref = K_el + model.K_s + sp.csc_matrix(
            (model.spring_k, (model.spring_dofs, model.spring_dofs)),
            shape=K.shape)
        assert np.array_equal(K.toarray(), ref.toarray())


class TestSupportMatrix:
    def test_zero_field(self, kin_small):
        K = asm.assemble_support_matrix(
            np.zeros(kin_small.mesh.num_elements), kin_small.mesh)
        assert K.nnz == 0 or np.all(K.data == 0)

    def test_single_element_lumping(self):
        mesh = M.MeshModel(np.array([[0.0, 0], [1, 0], [0, 1]]),
                           np.array([[0, 1, 2]]))
        K = asm.assemble_support_matrix(np.array([3.0]), mesh)
        assert np.allclose(K.diagonal(), 1.0)
        assert K.nnz == 6

    def test_anchors_resist_rigid_translation(self, gripper):
        f, fields, model = gripper
        u = np.tile([1e-3, -2e-3], f.mesh.num_nodes)
        r = model.K_s @ u
        assert np.linalg.norm(r) > 0.0


class TestExternalRefs:
    def test_initial_total_load_is_unit(self, gripper):
        f, fields, model = gripper
        assert abs(model.F_ext_x.sum() - 1.0) <= 1e-9
        assert abs(model.F_ext_y.sum() - 1.0) <= 1e-9

    def test_disjoint_dof_supports(self, gripper):
        _, _, model = gripper
        assert np.all(model.F_ext_x[1::2] == 0.0)
        assert np.all(model.F_ext_y[0::2] == 0.0)
        assert model.F_ext_x @ model.F_ext_y == 0.0

    def test_single_element_thirds(self):
        mesh = M.MeshModel(np.array([[0.0, 0], [1, 0], [0, 1]]),
                           np.array([[0, 1, 2]]), thickness=1.0)
        f_e = np.array([0.3]) / mesh.volumes[0]
        Fx, Fy = asm.assemble_external_refs(f_e, mesh)
        assert np.allclose(Fx[0::2], 0.1)
        assert np.allclose(Fy[1::2], 0.1)


class TestGlobalSystem:
    def test_residual_at_zero(self, gripper):
        f, fields, model = gripper
        sys0 = model.assemble(np.zeros(f.mesh.num_dofs))
        R = sys0.residual(2.0, -1.0)
        assert np.allclose(R, 2.0 * model.F_ext_x - 1.0 * model.F_ext_y)

    def test_tangent_is_directional_derivative(self, gripper):
        f, fields, model = gripper
        rng = np.random.default_rng(5)
        U = rng.uniform(-5e-4, 5e-4, f.mesh.num_dofs)
        system = model.assemble(U)
        d = rng.normal(size=f.mesh.num_dofs)
        d /= np.linalg.norm(d)
        h = 1e-8
        Fp = model.assemble(U + h * d, want_tangent=False).F_int
        Fm = model.assemble(U - h * d, want_tangent=False).F_int
        fd = (Fp - Fm) / (2 * h)
        Kd = system.K_T @ d
        assert np.linalg.norm(Kd - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_symmetry_and_positive_definite_at_zero(self, gripper):
        f, fields, model = gripper
        K = model.assemble(np.zeros(f.mesh.num_dofs)).K_T
        asym = abs(K - K.T).max()
        assert asym <= 1e-9 * abs(K).max()
        from scipy.sparse.linalg import splu
        lu = splu(K.tocsc())
        # positive definite iff all diagonal growth factors positive
        x = lu.solve(np.ones(f.mesh.num_dofs))
        assert np.all(np.isfinite(x))

    def test_small_strain_matches_pure_linear(self, gripper):
        f, fields, model = gripper
        rng = np.random.default_rng(6)
        U = rng.uniform(-1e-9, 1e-9, f.mesh.num_dofs)
        nl = model.assemble(U, want_tangent=False).F_int
        K_lin = model.assemble(np.zeros(f.mesh.num_dofs)).K_T
        lin = K_lin @ U
        assert np.linalg.norm(nl - lin) <= 1e-4 * np.linalg.norm(lin)

    def test_output_springs_enter_force_and_tangent(self, gripper):
        f, fields, model = gripper
        dof, k = model.output_springs[0]
        U = np.zeros(f.mesh.num_dofs)
        U[dof] = 1e-3
        sys1 = model.assemble(U)
        bare = asm.NonlinearModel(model.kin, fields)
        sys0 = bare.assemble(U)
        dF = sys1.F_int - sys0.F_int
        assert abs(dF[dof] - k * 1e-3) <= 1e-12
        assert abs((sys1.K_T - sys0.K_T)[dof, dof] - k) <= 1e-9


class TestKernelWorkArrays:
    def test_later_assemblies_leave_earlier_results_alone(self, gripper):
        # the kernel overwrites its work arrays on every call; what it
        # returns must not share them
        f, fields, model = gripper
        rng = np.random.default_rng(8)
        Us = [rng.uniform(-1e-3, 1e-3, f.mesh.num_dofs) for _ in range(2)]

        def arrays(system):
            el = system.elements
            return [system.K_T.data, system.F_int, el.f_int, el.dF_dE,
                    el.dF_dgamma]

        first = model.assemble(Us[0])
        kept = [a.copy() for a in arrays(first)]
        second = model.assemble(Us[1])
        for a, b in zip(arrays(first), kept):
            assert a.tobytes() == b.tobytes()
        for U, system in zip(Us, (first, second)):
            fresh = asm.NonlinearModel(
                asm.ElementKinematics(f.mesh, model.kin.material), fields,
                output_springs=model.output_springs).assemble(U)
            for a, b in zip(arrays(system), arrays(fresh)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def partials_setup():
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    rng = np.random.default_rng(7)
    U = rng.uniform(-1e-3, 1e-3, f.mesh.num_dofs)
    lam = (0.8, -0.5)
    system = model.assemble(U)
    dRdz = oracles.residual_design_partials(model, system, *lam)
    return f, fields, model, U, lam, system, dRdz


class TestResidualDesignPartials:
    @pytest.fixture
    def setup(self, partials_setup):
        return partials_setup

    def _fd_column(self, f, fields, U, lam, col, h):
        def residual_of(design):
            flds, mdl = asm.build_model(
                f.mesh, design, f.params, f.material, A_f=fields.A_f,
                output_springs=f.output_springs)
            s = mdl.assemble(U, want_tangent=False)
            return s.residual(*lam)

        return (residual_of(f.design.shifted(col, h))
                - residual_of(f.design.shifted(col, -h))) / (2 * h)

    def test_theta_column_is_zero(self, setup):
        f, fields, model, U, lam, system, dRdz = setup
        assert abs(dRdz[:, -1]).max() == 0.0
        fd = self._fd_column(f, fields, U, lam, f.design.size - 1, 1e-6)
        assert np.all(fd == 0.0)

    def test_density_columns_match_fd(self, setup):
        f, fields, model, U, lam, system, dRdz = setup
        rng = np.random.default_rng(8)
        scale = np.abs(system.F_int).max()
        for j in rng.integers(0, len(f.design.rho), 10):
            fd = self._fd_column(f, fields, U, lam, int(j), 1e-6)
            got = np.asarray(dRdz[:, int(j)].todense()).ravel()
            assert np.linalg.norm(got - fd) <= 1e-4 * max(
                np.linalg.norm(fd), 1e-9 * scale)

    def test_bc_columns_match_fd(self, setup):
        f, fields, model, U, lam, system, dRdz = setup
        # every support and load coordinate: the columns between the
        # densities and theta
        for col in range(len(f.design.rho), f.design.size - 1):
            fd = self._fd_column(f, fields, U, lam, col, 1e-7)
            got = np.asarray(dRdz[:, col].todense()).ravel()
            assert np.linalg.norm(got - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_vjp_agrees_with_explicit_matrix(self, setup):
        f, fields, model, U, lam, system, dRdz = setup
        rng = np.random.default_rng(9)
        psi = rng.normal(size=f.mesh.num_dofs)
        got = asm.residual_vjp(model, system, lam[0], lam[1], psi)
        want = np.asarray(psi @ dRdz).ravel()
        assert np.allclose(got, want, rtol=1e-10,
                           atol=1e-12 * np.abs(want).max())
