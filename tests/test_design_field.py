import numpy as np
import pytest

import oracles
from varibc import design_field as df
from varibc import fixtures as fx
from varibc import mesh as M


@pytest.fixture(scope="module")
def square_mesh():
    return M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.12), thickness=0.01)


def make_params(**over):
    base = dict(r=0.08, r_min=0.15)
    base.update(over)
    return df.ProjectionParams(**base)


def make_design(mesh, rho=0.5, supports=((0.2, 0.2), (0.2, 0.8)),
                load=(0.1, 0.5), theta=0.0):
    n = len(mesh.designable)
    r = np.full(n, rho) if np.isscalar(rho) else rho
    return df.DesignVector(rho=r, supports=np.array(supports),
                           load=np.array(load), theta=theta)


class TestFilter:
    def test_rows_sum_to_one(self, square_mesh):
        W = df.build_filter_matrix(square_mesh, 0.2)
        rows = np.asarray(W.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0, atol=1e-12)

    def test_uniform_field_is_fixed_point(self, square_mesh):
        W = df.build_filter_matrix(square_mesh, 0.25)
        c = 0.37 * np.ones(W.shape[0])
        assert np.allclose(W @ c, c, atol=1e-12)

    def test_tiny_radius_gives_identity(self, square_mesh):
        W = df.build_filter_matrix(square_mesh, 1e-6)
        assert (W != 0).sum() == W.shape[0]
        assert np.allclose(W.diagonal(), 1.0)

    def test_three_collinear_elements(self):
        # hand-built mesh: three unit-ish triangles with centroids spaced 1.0
        # apart along x; r_min = 1.5 gives middle-row weights (0.5, 1.5, 0.5)
        nodes = []
        tris = []
        for k in range(3):
            x = 3.0 * k  # separate islands; centroid x = 3k + 1
            nodes += [[x, 0.0], [x + 3.0, 0.0], [x, 3.0]]
            tris.append([3 * k, 3 * k + 1, 3 * k + 2])
        mesh = M.MeshModel(np.array(nodes) / 3.0, np.array(tris))
        cent = mesh.centroids
        assert np.allclose(np.diff(cent[:, 0]), 1.0)
        W = df.build_filter_matrix(mesh, 1.5).toarray()
        assert np.allclose(W[1], [0.2, 0.6, 0.2], atol=1e-12)


class TestSmoothMin:
    def test_single_point(self):
        d, _ = df.smooth_min_distance([[0.0, 0.0]], [[3.0, 4.0]], Q=12)
        assert np.allclose(d, 5.0)

    def test_two_equidistant_points(self):
        pts = [[1.0, 0.0], [-1.0, 0.0]]
        d, _ = df.smooth_min_distance(pts, [[0.0, 0.0]], Q=12)
        want = 1.0 * 2.0 ** (-1.0 / 12.0)  # direct evaluation
        assert abs(want - 0.943874) < 1e-6
        assert np.allclose(d, want, atol=1e-12)

    def test_distances_one_and_two(self):
        pts = [[1.0, 0.0], [0.0, 2.0]]
        d, _ = df.smooth_min_distance(pts, [[0.0, 0.0]], Q=12)
        want = (1.0 ** -12 + 2.0 ** -12) ** (-1.0 / 12.0)  # oracle
        assert abs(want - 0.99997966) < 1e-7
        assert np.allclose(d, want, atol=1e-12)

    def test_lower_bound_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = rng.normal(size=(rng.integers(1, 6), 2))
            q = rng.normal(size=(1, 2))
            d = df.smooth_min_distance(pts, q, Q=12)[0][0]
            true = np.min(np.hypot(*(q - pts).T))
            assert d <= true + 1e-12
            assert d >= true / len(pts) ** (1.0 / 12.0) - 1e-12

    def test_coincident_point_returns_zero(self):
        pts = [[0.5, 0.5], [2.0, 0.0]]
        d, g = df.smooth_min_distance(pts, [[0.5, 0.5]], Q=12)
        assert d[0] == 0.0
        assert np.all(g[0] == 0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(3, 2))
        q = rng.normal(size=(4, 2)) * 2.0
        d, g = df.smooth_min_distance(pts, q, Q=12)
        h = 1e-6
        for k in range(3):
            for c in range(2):
                pp, pm = pts.copy(), pts.copy()
                pp[k, c] += h
                pm[k, c] -= h
                fd = (df.smooth_min_distance(pp, q, 12)[0]
                      - df.smooth_min_distance(pm, q, 12)[0]) / (2 * h)
                assert np.allclose(g[:, k, c], fd, rtol=1e-4, atol=1e-9)


class TestSuperGaussian:
    def test_zero_distance(self):
        assert df.super_gaussian(0.0, 7.0, 2.0, 0.5, 4.0)[0] == 7.0

    def test_at_radius_equals_a_over_b(self):
        g, _ = df.super_gaussian(0.5, 7.0, 2.0, 0.5, 4.0)
        assert abs(g - 7.0 / 2.0) < 1e-15

    def test_half_radius(self):
        g, _ = df.super_gaussian(0.25, 1.0, 2.0, 0.5, 4.0)
        want = 2.0 ** (-(0.25 ** 2) ** 4 / (0.5 ** 2) ** 4)  # direct Eq form
        assert abs(want - 0.9972960) < 1e-6
        assert abs(g - want) < 1e-12

    def test_monotone_and_bounded(self):
        d = np.linspace(0, 3, 500)
        g, _ = df.super_gaussian(d, 1.0, 2.0, 0.5, 4.0)
        assert np.all(np.diff(g) <= 1e-15)
        assert np.all(g <= 1.0) and np.all(g >= 0.0)

    def test_gradient_matches_fd(self):
        d = np.array([0.05, 0.2, 0.5, 0.8, 1.4])
        g, dg = df.super_gaussian(d, 2.5, 2.0, 0.5, 4.0)
        h = 1e-5
        fd = (df.super_gaussian(d + h, 2.5, 2.0, 0.5, 4.0)[0]
              - df.super_gaussian(d - h, 2.5, 2.0, 0.5, 4.0)[0]) / (2 * h)
        assert np.allclose(dg, fd, rtol=1e-4, atol=1e-9)


class TestSupportField:
    def test_centroid_on_support(self, square_mesh):
        p = make_params()
        e = 11
        design = make_design(square_mesh,
                             supports=[tuple(square_mesh.centroids[e])])
        k, _ = df.support_stiffness_field(design, square_mesh, p)
        want = p.G_s / p.t_s * square_mesh.areas[e]
        assert abs(k[e] - want) < 1e-9 * want

    def test_centroid_at_radius(self, square_mesh):
        p = make_params()
        e = 20
        c = square_mesh.centroids[e]
        design = make_design(square_mesh, supports=[(c[0] + p.r, c[1])])
        k, _ = df.support_stiffness_field(design, square_mesh, p)
        want = p.G_s / p.t_s * square_mesh.areas[e] / p.b
        assert abs(k[e] - want) < 1e-9 * want

    def test_two_supports_match_scalar_chain(self, square_mesh):
        # independent two-step scalar oracle: Eq-7 smooth min, then Eq-11
        p = make_params()
        design = make_design(square_mesh)
        k, _ = df.support_stiffness_field(design, square_mesh, p)
        rng = np.random.default_rng(0)
        for e in rng.integers(0, square_mesh.num_elements, size=12):
            c = square_mesh.centroids[e]
            d1 = np.hypot(*(c - design.supports[0]))
            d2 = np.hypot(*(c - design.supports[1]))
            d = (d1 ** -p.Q + d2 ** -p.Q) ** (-1.0 / p.Q)
            want = (p.G_s / p.t_s * square_mesh.areas[e]
                    * p.b ** (-((d / p.r) ** 2) ** p.P))
            assert abs(k[e] - want) <= 1e-9 * max(want, 1e-30)


class TestLoadField:
    def test_initial_normalization(self, square_mesh):
        p = make_params()
        design = make_design(square_mesh)
        f, A_f = df.load_magnitude_field(design, square_mesh, p)
        assert abs(np.sum(f * square_mesh.volumes) - 1.0) <= 1e-9

    def test_frozen_af_after_move(self, square_mesh):
        p = make_params()
        design = make_design(square_mesh)
        _, A_f = df.load_magnitude_field(design, square_mesh, p)
        moved = make_design(square_mesh, load=(0.45, 0.52))
        f2, A_f2 = df.load_magnitude_field(moved, square_mesh, p, A_f=A_f)
        assert A_f2 == A_f
        total = np.sum(f2 * square_mesh.volumes)
        assert 0.0 < total <= 1.5
        # re-summation oracle
        d = np.hypot(*(square_mesh.centroids - np.array([0.45, 0.52])).T)
        want = A_f * np.sum(
            2.0 ** (-((d / p.r) ** 2) ** p.P) * square_mesh.volumes)
        assert abs(total - want) < 1e-12

    def test_element_at_load_point(self, square_mesh):
        p = make_params()
        e = 30
        design = make_design(square_mesh, load=tuple(square_mesh.centroids[e]))
        f, A_f = df.load_magnitude_field(design, square_mesh, p)
        assert abs(f[e] - A_f) < 1e-12 * A_f


class TestPhysicalDensity:
    def test_bc_point_forces_solid(self, square_mesh):
        p = make_params()
        e = 25
        design = make_design(square_mesh, rho=0.0,
                             load=tuple(square_mesh.centroids[e]))
        rt = np.zeros(square_mesh.num_elements)
        rho_bar, rho_hat, *_ = df.physical_density(rt, design, square_mesh, p)
        assert abs(rho_hat[e] - 1.0) < 1e-12
        assert abs(rho_bar[e] - 1.0) < 1e-12

    def test_smooth_max_clamped(self, square_mesh):
        p = make_params()
        e = 25
        design = make_design(square_mesh, rho=1.0,
                             load=tuple(square_mesh.centroids[e]))
        rt = np.ones(square_mesh.num_elements)
        raw = (1.0 + 1.0) ** (1.0 / p.Q)
        assert abs(raw - 1.0594631) < 1e-6  # direct evaluation of smooth max
        rho_bar, *_ = df.physical_density(rt, design, square_mesh, p)
        assert rho_bar[e] == 1.0

    def test_far_from_bcs_keeps_filtered(self, square_mesh):
        p = make_params(r=0.02)
        design = make_design(square_mesh, supports=[(0.0, 0.0)], load=(0.0, 0.05))
        rt = np.full(square_mesh.num_elements, 0.42)
        rho_bar, rho_hat, *_ = df.physical_density(rt, design, square_mesh, p)
        far = np.hypot(*(square_mesh.centroids - [0.0, 0.0]).T) > 0.5
        assert np.all(rho_hat[far] <= 1e-30)
        assert np.allclose(rho_bar[far], 0.42, atol=1e-12)

    def test_monotone_in_rho_tilde(self, square_mesh):
        p = make_params()
        design = make_design(square_mesh)
        rng = np.random.default_rng(5)
        rt = rng.uniform(0, 1, square_mesh.num_elements)
        r1, *_ = df.physical_density(rt, design, square_mesh, p)
        r2, *_ = df.physical_density(np.minimum(rt + 0.05, 1.0), design,
                                    square_mesh, p)
        assert np.all(r2 >= r1 - 1e-12)


class TestSimpAndGamma:
    def test_simp_endpoints(self):
        p = make_params()
        assert df.simp_modulus(np.array([1.0]), p)[0][0] == p.E0
        assert df.simp_modulus(np.array([0.0]), p)[0][0] == p.E_min
        assert p.E_min == p.E0 * 1e-9
        half = df.simp_modulus(np.array([0.5]), p)[0][0]
        assert abs(half - (p.E_min + 0.125 * (p.E0 - p.E_min))) < 1e-6

    def test_gamma_endpoints(self):
        p = make_params(beta=500.0)
        g, _ = df.energy_interpolation_factor(np.array([0.0, 1.0]), p)
        assert abs(g[0]) < 1e-15
        assert abs(g[1] - 1.0) < 1e-15

    def test_gamma_interior_value(self):
        # direct evaluation of the corrected blend at rho^p = 1/beta
        p = make_params(beta=500.0)
        rho = (1.0 / 500.0) ** (1.0 / 3.0)
        g = df.energy_interpolation_factor(np.array([rho]), p)[0][0]
        want = np.tanh(1.0) / np.tanh(500.0)
        assert abs(want - 0.761594) < 1e-6
        assert abs(g - want) < 1e-12

    def test_gamma_monotone_and_bounded(self):
        p = make_params(beta=2000.0)
        rho = np.linspace(0, 1, 2000)
        g, _ = df.energy_interpolation_factor(rho, p)
        assert np.all(np.diff(g) >= -1e-15)
        assert np.all((g >= 0) & (g <= 1.0 + 1e-15))

    def test_gamma_gradient_fd(self):
        p = make_params(beta=500.0)
        rho = np.array([0.05, 0.1, 0.13, 0.3, 0.7])
        _, dg = df.energy_interpolation_factor(rho, p)
        h = 1e-7
        fd = (df.energy_interpolation_factor(rho + h, p)[0]
              - df.energy_interpolation_factor(rho - h, p)[0]) / (2 * h)
        assert np.allclose(dg, fd, rtol=1e-5, atol=1e-8)


@pytest.fixture(scope="module")
def partials_setup(square_mesh):
    p = make_params()
    rng = np.random.default_rng(42)
    design = make_design(square_mesh,
                         rho=rng.uniform(0.2, 0.8,
                                         len(square_mesh.designable)),
                         supports=((0.31, 0.24), (0.27, 0.77)),
                         load=(0.12, 0.48), theta=0.3)
    state = df.evaluate_fields(design, square_mesh, p)
    return square_mesh, p, design, state


class TestFieldPartials:
    """Analytic chain-rule partials against central finite differences."""

    @pytest.fixture
    def setup(self, partials_setup):
        return partials_setup

    def _fd_field(self, mesh, p, design, A_f, attr, col, h):
        def get(des):
            st = df.evaluate_fields(des, mesh, p, A_f=A_f)
            return getattr(st, attr).copy()

        return (get(design.shifted(col, h))
                - get(design.shifted(col, -h))) / (2 * h)

    def test_load_field_has_no_density_dependence(self, setup):
        mesh, p, design, state = setup
        fd = self._fd_field(mesh, p, design, state.A_f, "f_e", 3, 1e-5)
        assert np.all(fd == 0.0)

    def test_support_field_ignores_load_point(self, setup):
        mesh, p, design, state = setup
        fd = self._fd_field(mesh, p, design, state.A_f, "k_s",
                            design.size - 2, 1e-7)
        assert np.all(fd == 0.0)

    def test_rho_bar_vs_fd_support_coordinates(self, setup):
        mesh, p, design, state = setup
        J = oracles.rho_bar_jacobian(state)
        for k in range(2):
            for c in range(2):
                # zeta column of coordinate c of support k
                col = len(design.rho) + c * design.num_supports + k
                fd = self._fd_field(mesh, p, design, state.A_f, "rho_bar",
                                    col, 1e-6)
                got = J[:, col].toarray().ravel()
                # meaningful derivatives are O(1/r) ~ 10; 1e-8 is FD noise
                assert np.allclose(got, fd, rtol=1e-4, atol=1e-8)

    def test_rho_bar_vs_fd_density(self, setup):
        mesh, p, design, state = setup
        J = oracles.rho_bar_jacobian(state).toarray()
        rng = np.random.default_rng(4)
        for j in rng.integers(0, len(design.rho), 10):
            fd = self._fd_field(mesh, p, design, state.A_f, "rho_bar",
                                int(j), 1e-6)
            assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-9)

    def test_ks_vs_fd(self, setup):
        mesh, p, design, state = setup
        for k in range(2):
            for c in range(2):
                col = len(design.rho) + c * design.num_supports + k
                fd = self._fd_field(mesh, p, design, state.A_f, "k_s", col,
                                    1e-7)
                got = state.dks_dsup[:, k, c]
                assert np.allclose(got, fd, rtol=1e-5,
                                   atol=1e-6 * np.abs(fd).max())

    def test_fe_vs_fd(self, setup):
        mesh, p, design, state = setup
        for c in range(2):
            fd = self._fd_field(mesh, p, design, state.A_f, "f_e",
                                design.size - 3 + c, 1e-7)
            got = state.dfe_dload[:, c]
            assert np.allclose(got, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())

    def test_E_gamma_chain_vs_fd(self, setup):
        mesh, p, design, state = setup
        # at the fixture's beta gamma is 1 to double precision everywhere,
        # so its chain is checked where the blend is soft
        p5 = make_params(beta=5.0)
        state5 = df.evaluate_fields(design, mesh, p5)
        J = oracles.rho_bar_jacobian(state)
        J5 = oracles.rho_bar_jacobian(state5)
        for j in [5, 17]:
            fdE = self._fd_field(mesh, p, design, state.A_f, "E", j, 1e-6)
            gotE = state.dE_drho_bar * np.asarray(J[:, j].todense()).ravel()
            assert np.allclose(gotE, fdE, rtol=1e-4, atol=1e-5 * p.E0 * 1e-6)
            fdg = self._fd_field(mesh, p5, design, state5.A_f, "gamma", j,
                                 1e-6)
            gotg = (state5.dgamma_drho_bar
                    * np.asarray(J5[:, j].todense()).ravel())
            assert np.allclose(gotg, fdg, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("field", ["rho_bar", "E", "gamma", "k_s", "f_e"])
    def test_vjp_vs_fd(self, setup, field):
        """vjp against central differences of sum(v * field) for a seeded
        random v, on density, support, load and theta columns."""
        mesh, _, design, _ = setup
        # a soft blend keeps gamma off its saturated plateau
        p = make_params(beta=5.0)
        state = df.evaluate_fields(design, mesh, p)
        v = np.random.default_rng(11).normal(size=mesh.num_elements)
        got = state.vjp(**{field: v})
        n = len(design.rho)
        rng = np.random.default_rng(5)
        cols = [*rng.integers(0, n, 4), *range(n, design.size)]
        fd = np.array([v @ self._fd_field(mesh, p, design, state.A_f, field,
                                          int(col), 1e-7) for col in cols])
        assert got.shape == (design.size,)
        assert got[-1] == 0.0 == fd[-1]
        assert np.allclose(got[cols], fd, rtol=1e-5,
                           atol=1e-6 * np.abs(fd).max())


def test_design_vector_round_trip():
    d = df.DesignVector(rho=np.array([0.1, 0.9]),
                        supports=np.array([[0.0, 1.0], [2.0, 3.0]]),
                        load=np.array([4.0, 5.0]), theta=0.25)
    z = d.to_array()
    assert np.allclose(z, [0.1, 0.9, 0.0, 2.0, 1.0, 3.0, 4.0, 5.0, 0.25])
    d2 = df.DesignVector.from_array(z, 2, 2)
    assert np.allclose(d2.supports, d.supports)
    assert d2.theta == d.theta


def test_design_vector_validation():
    with pytest.raises(ValueError):
        df.DesignVector(rho=np.array([1.2]), supports=np.zeros((1, 2)),
                        load=np.zeros(2), theta=0.0)
    with pytest.raises(ValueError):
        df.DesignVector(rho=np.array([0.5]), supports=np.array([[np.nan, 0]]),
                        load=np.zeros(2), theta=0.0)


# the first density, then X_s1, X_s2, Y_s1, Y_s2, X_f, Y_f and theta of the
# two-support fixture, counted from the end of to_array()
@pytest.mark.parametrize("col", [0, -7, -6, -5, -4, -3, -2, -1])
def test_shifted_moves_exactly_one_zeta_column(col):
    design = fx.load_fixture("mini_gripper_100").design
    z = design.to_array()
    col %= len(z)
    for h in (1e-4, -1e-4, 1e-6, -1e-6):
        moved = design.shifted(col, h).to_array()
        want = z.copy()
        want[col] += h
        assert np.array_equal(moved, want)
        assert np.array_equal(design.to_array(), z)
    if col < len(design.rho):
        # the shift is validated like any new design
        for h in (-1.0, 1.0):
            with pytest.raises(ValueError, match=r"within \[0, 1\]"):
                design.shifted(col, h)


def _named_entry(design, name):
    """The design entry that a bc_names() name stands for."""
    if name == "theta":
        return design.theta
    row = -1 if name[2:] == "f" else int(name[3:]) - 1
    return design.bc_points()[row, "XY".index(name[0])]


@pytest.mark.parametrize("n_sup", [1, 2, 3])
def test_join_lays_out_zeta_and_bc_names_name_it(n_sup):
    rng = np.random.default_rng(n_sup)
    d = df.DesignVector(rho=rng.uniform(size=4),
                        supports=rng.normal(size=(n_sup, 2)),
                        load=rng.normal(size=2), theta=0.3)
    z = d.to_array()
    # [rho, X_s(all), Y_s(all), X_f, Y_f, theta]
    assert np.array_equal(z, np.concatenate(
        [d.rho, d.supports[:, 0], d.supports[:, 1], d.load, [d.theta]]))
    assert np.array_equal(df.DesignVector.join(d.rho, d.bc_points(), d.theta),
                          z)
    back = df.DesignVector.from_array(z, 4, n_sup)
    assert np.array_equal(back.to_array(), z)
    assert back.supports.shape == (n_sup, 2)
    names = d.bc_names()
    assert len(names) == len(z) - 4 == len(set(names))
    for k, name in enumerate(names):
        moved = d.shifted(4 + k, 1e-3)
        for other in names:
            delta = _named_entry(moved, other) - _named_entry(d, other)
            assert delta == pytest.approx(1e-3 if other == name else 0.0,
                                          abs=1e-12)
