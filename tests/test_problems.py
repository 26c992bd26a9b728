import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from varibc import mesh as M
from varibc import outputs
from varibc import problems as P


class TestForceDecomposition:
    def test_theta_zero_reads_components(self):
        assert P.f_in(3.0, 4.0, 0.0) == 3.0
        assert P.f_p(3.0, 4.0, 0.0) == 4.0
        # agreement with the magnitude/angle form where it is defined
        mag = np.hypot(3.0, 4.0)
        want = mag * np.sin(0.0 + np.arctan(3.0 / 4.0))
        assert abs(P.f_in(3.0, 4.0, 0.0) - want) < 1e-12

    def test_zero_loads(self):
        assert P.f_in(0.0, 0.0, 1.2) == 0.0
        assert P.f_p(0.0, 0.0, 1.2) == 0.0

    def test_magnitude_identity_100k_random(self):
        rng = np.random.default_rng(123)
        lx = rng.normal(scale=10, size=100_000)
        ly = rng.normal(scale=10, size=100_000)
        th = rng.uniform(-np.pi, np.pi, size=100_000)
        fin = P.f_in(lx, ly, th)
        fp = P.f_p(lx, ly, th)
        lhs = fin**2 + fp**2
        rhs = lx**2 + ly**2
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(rhs, 1e-30))


class TestUOut:
    def test_zero_displacement(self):
        mesh = M.MeshModel(np.array([[0.0, 0], [1, 0], [0, 1]]),
                           np.array([[0, 1, 2]]))
        q = P.UOut(((3, 1.0),), step=1)

        class Ctx:
            U = np.zeros(6)
            mesh_ = mesh

        ctx = Ctx()
        ctx.mesh = mesh
        assert q.evaluate(ctx) == 0.0

    def test_single_dof_selector(self):
        mesh = M.MeshModel(np.array([[0.0, 0], [1, 0], [0, 1]]),
                           np.array([[0, 1, 2]]))
        u = np.zeros(6)
        u[3] = 0.01

        class Ctx:
            pass

        ctx = Ctx()
        ctx.U = u
        ctx.mesh = mesh
        assert P.UOut(((3, 1.0),), step=1).evaluate(ctx) == 0.01
        # two signed entries sum the jaw motions
        u[5] = -0.004
        q = P.UOut(((3, 1.0), (5, -1.0)), step=1)
        assert abs(q.evaluate(ctx) - 0.014) < 1e-15


def volume_fraction(rho_bar, mesh):
    """VolumeFraction.evaluate on a stub context holding rho_bar."""
    ctx = SimpleNamespace(mesh=mesh, fields=SimpleNamespace(rho_bar=rho_bar))
    return P.VolumeFraction().evaluate(ctx)


def path_error(outs, prec):
    """Sum of OutputOffsetSq.evaluate over load cases and steps.

    outs[i][m] is the deformed output point of case i at step m, carried as
    the displacement of a one-node stub mesh whose node sits at the origin.
    """
    mesh = SimpleNamespace(nodes=np.zeros((1, 2)))
    total = 0.0
    for i, case in enumerate(outs):
        for m, (pos, target) in enumerate(zip(case, prec)):
            ctx = SimpleNamespace(mesh=mesh, U=np.asarray(pos, dtype=float))
            total += P.OutputOffsetSq(0, target, m + 1, i).evaluate(ctx)
    return total


class TestVolumeFraction:
    def test_all_solid(self):
        mesh = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.4))
        assert volume_fraction(np.ones(mesh.num_elements), mesh) == 1.0

    def test_uniform(self):
        mesh = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.4))
        vf = volume_fraction(np.full(mesh.num_elements, 0.3), mesh)
        assert abs(vf - 0.3) <= 1e-12

    def test_nondesign_solid_only(self):
        band = np.array([[0.0, 0.75], [1.0, 0.75], [1.0, 1.0], [0.0, 1.0]])
        g = M.rectangle_geometry(1.0, 1.0, 0.1,
                                 nondesign_regions=[(band, M.SOLID_NONDESIGN)])
        mesh = M.generate_mesh(g)
        rho = np.where(mesh.element_tag == M.SOLID_NONDESIGN, 1.0, 0.0)
        want = (mesh.volumes[mesh.element_tag == M.SOLID_NONDESIGN].sum()
                / mesh.volumes.sum())
        assert abs(volume_fraction(rho, mesh) - want) <= 1e-14


class TestPathError:
    def test_exact_hit_is_zero(self):
        prec = [(1.0, 2.0), (1.5, 2.0)]
        outs = [[(1.0, 2.0), (1.5, 2.0)]]
        assert path_error(outs, prec) == 0.0

    def test_millimeter_offset(self):
        prec = [(0.0, 0.0)]
        outs = [[(1e-3, 0.0)]]
        assert abs(path_error(outs, prec) - 1e-6) <= 1e-18

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        prec = rng.normal(size=(4, 2))
        outs = [rng.normal(size=(4, 2)) for _ in range(3)]
        got = path_error(outs, prec)
        want = 0.0
        for case in outs:
            for m in range(4):
                want += (case[m][0] - prec[m][0]) ** 2
                want += (case[m][1] - prec[m][1]) ** 2
        assert abs(got - want) <= 1e-12 * want


@pytest.fixture(scope="module")
def coarse_gripper_problem():
    return P.make_problem("gripper", element_size=4e-3)


class TestMakeProblem:
    @pytest.fixture
    def coarse_gripper(self, coarse_gripper_problem):
        return coarse_gripper_problem

    def test_gripper_table_parameters(self, coarse_gripper):
        g = coarse_gripper
        assert g.u_in_norm == 5e-3
        assert g.output_springs[0][1] == 300.0
        assert g.params.r_min == 3e-3
        assert g.params.r == 2.5e-3
        assert g.params.beta == 500.0
        assert g.mesh.thickness == 0.01
        assert g.params.t_s == 0.01
        assert g.steps == 4
        n_rho = len(g.design0.rho)
        assert np.allclose(g.move_limits[:n_rho], 0.2)
        assert np.allclose(g.move_limits[n_rho:n_rho + 6], 2.5e-3)
        assert np.isclose(g.move_limits[-1], np.deg2rad(5.0))

    def test_gripper_constraint_schedule(self, coarse_gripper):
        g = coarse_gripper
        # V_f plus (F_in, two-sided F_p) at each of 4 steps
        assert len(g.constraints) == 1 + 3 * 4
        vf = g.constraints[0]
        assert vf.bound == 0.3 and vf.direction == "upper"
        fin4 = [c for c in g.constraints
                if c.quantities[0].name == "f_in[4,0]"
                and c.direction == "upper"]
        assert fin4[0].bound == 30.0
        fin1 = [c for c in g.constraints
                if c.quantities[0].name == "f_in[1,0]"
                and c.direction == "upper"]
        assert fin1[0].bound == 7.5

    def test_gripper_bc_bounds_inset_by_r(self, coarse_gripper):
        g = coarse_gripper
        n_rho = len(g.design0.rho)
        r = g.params.r
        assert np.allclose(g.lower[n_rho:n_rho + 6], r)
        assert np.allclose(g.upper[n_rho:n_rho + 6], 0.1 - r)

    @pytest.mark.parametrize("family,h", [
        ("gripper", 4e-3), ("bistable_airfoil", 2.5e-3),
        ("line_generator", 4e-3), ("morphing_wing", 2e-3),
    ], ids=["gripper", "bistable_airfoil", "line_generator",
            "morphing_wing"])
    def test_fixed_bcs_freeze(self, family, h):
        g = P.make_problem(family, fixed_bcs=True, element_size=h)
        n_rho = len(g.design0.rho)
        assert np.all(g.frozen[n_rho:])
        assert not np.any(g.frozen[:n_rho])
        assert np.array_equal(g.lower[n_rho:], g.design0.to_array()[n_rho:])
        if family == "gripper":
            # literature corner positions kept exactly
            assert np.allclose(g.design0.supports, [[0.0, 0.1], [0.0, 0.0]])
            assert np.allclose(g.design0.load, [0.0, 0.05])

    def test_bistable_table_parameters(self):
        b = P.make_problem("bistable_airfoil", element_size=2.5e-3)
        assert b.u_in_norm == 2.5e-3
        assert b.output_springs[0][1] == 100.0
        assert b.params.r_min == 4e-3
        assert b.params.r == 2e-3
        assert b.params.beta == 2000.0
        assert b.steps == 8
        n_rho = len(b.design0.rho)
        assert np.allclose(b.move_limits[:n_rho], 0.05)
        assert np.allclose(b.move_limits[n_rho:n_rho + 8], 0.5e-3)
        assert np.isclose(b.move_limits[-1], np.deg2rad(1.0))
        # supports may leave the domain: bounds exceed the bounding box
        assert b.lower[n_rho] < 0.0
        assert b.upper[n_rho] > 0.2
        # sine-wave force schedule
        caps = [c.bound for c in b.constraints
                if c.quantities[0].name.startswith("f_in[")
                and c.direction == "upper"]
        want = [15 * np.sin(np.pi * m / 6) + 5 for m in range(1, 7)]
        assert np.allclose(sorted(caps), sorted(want))

    def test_path_problem_parameters(self):
        lg = P.make_problem("line_generator", element_size=4e-3)
        assert lg.u_in_norm == 0.01
        assert len(lg.load_cases) == 3
        assert lg.load_cases[1].counter_vector == (-5.0, 0.0)
        assert lg.load_cases[2].counter_vector == (0.0, -5.0)
        assert lg.output_springs == ()
        # one precision point per step, shared by the three load cases
        assert len({tuple(q.target) for q in lg.objective.quantities}) == 4
        w = P.make_problem("morphing_wing", element_size=2e-3)
        assert w.u_in_norm == 2e-3
        assert w.load_cases[1].counter_vector == (1.0, 0.0)
        assert w.load_cases[2].counter_vector == (0.0, 1.0)
        # one precision point, 2.5 mm behind and 5 mm below the output point
        targets = {tuple(q.target) for q in w.objective.quantities}
        assert len(targets) == 1
        out_xy = w.mesh.nodes[w.output_node]
        assert np.allclose(targets.pop(),
                           [out_xy[0] + 2.5e-3, out_xy[1] - 5e-3])

    @pytest.fixture(scope="class")
    def wing(self):
        return P.make_problem("morphing_wing", element_size=2e-3)

    def test_wing_skin_support_frozen_in_variable_run(self, wing):
        w = wing
        n_rho = len(w.design0.rho)
        frozen_bc = np.flatnonzero(w.frozen[n_rho:])
        assert list(frozen_bc) == [2, 5]  # X and Y of the third support

    def test_wing_history_header_names_three_supports(self, wing, tmp_path):
        outputs.HistoryWriter(tmp_path / "history.csv", wing).close()
        header = (tmp_path / "history.csv").read_text().splitlines()[0]
        assert (",mma_fallback,X_s1,X_s2,X_s3,Y_s1,Y_s2,Y_s3,X_f,Y_f,theta,g0,"
                in header)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            P.make_problem("perpetuum_mobile")


def custom_problem(**extra):
    """A [custom] problem on a 10 x 5 cm plate, output at mid right edge."""
    spec = dict(outline=[0.0, 0.0, 0.1, 0.0, 0.1, 0.05, 0.0, 0.05],
                supports=[0.0, 0.0, 0.0, 0.05], load=[0.0, 0.025],
                theta_deg=0.0, output_point=[0.1, 0.025])
    spec.update(extra)
    return P.make_custom_problem(spec, element_size=0.01, u_in=2e-3,
                                 max_steps=3)


class TestCustomProblem:
    def test_min_f_in_final_objective(self):
        for f_p_bound, scale in ((7.5, 7.5), (0.4, 1.0)):
            p = custom_problem(objective="min_f_in_final",
                               f_p_bound=f_p_bound)
            [q] = p.objective.quantities
            assert p.objective.bound == 0.0 and isinstance(q, P.FIn)
            assert (q.step, q.load_case) == (3, 0)
            assert p.objective.direction == "upper"
            assert p.objective.scale == scale

    def test_path_error_single_point(self):
        p = custom_problem(objective="path_error",
                           precision_points=[0.1, 0.02])
        assert [c.name for c in p.load_cases] == ["nominal"]
        [q] = p.objective.quantities
        assert p.objective.bound == 0.0 and isinstance(q, P.OutputOffsetSq)
        assert (q.node, q.step, q.load_case) == (p.output_node, 3, 0)
        assert np.array_equal(q.target, [0.1, 0.02])
        x0 = p.mesh.nodes[p.output_node]
        assert p.objective.scale == np.sum((x0 - [0.1, 0.02]) ** 2)
        assert p.objective.direction == "upper"

    def test_path_error_every_step_with_counter_forces(self):
        prec = [[0.1, 0.020], [0.1, 0.021], [0.1, 0.022]]
        p = custom_problem(
            objective="path_error", precision_points=sum(prec, []),
            counter_forces=[1.0, 0.0, 0.0, -2.0])
        out = p.output_node
        assert [(c.name, c.counter_node, tuple(c.counter_vector))
                for c in p.load_cases] == [
            ("nominal", None, (0.0, 0.0)), ("counter1", out, (1.0, 0.0)),
            ("counter2", out, (0.0, -2.0))]
        terms = [(q.load_case, q.step, tuple(q.target))
                 for q in p.objective.quantities]
        assert terms == [(i, m, tuple(prec[m - 1]))
                         for i in range(3) for m in range(1, 4)]
        x0 = p.mesh.nodes[out]
        want = 3 * sum(np.sum((x0 - t) ** 2) for t in np.array(prec))
        assert np.isclose(p.objective.scale, want, rtol=1e-14, atol=0)
        # F_in cap and two-sided F_p at the final step of every case
        forces = [(type(q).__name__, q.load_case, q.step, c.direction)
                  for c in p.constraints[1:] for q in c.quantities]
        assert forces == [(k, i, 3, d) for i in range(3)
                          for k, d in (("FIn", "upper"), ("FP", "upper"),
                                       ("FP", "lower"))]

    @pytest.mark.parametrize("key,value", [
        ("bc_margin", 0.01), ("rho_init", 0.45), ("move_rho", 0.1),
        ("move_xy", 1e-3), ("move_theta_deg", 2.0)])
    def test_bound_and_move_keys_reach_the_problem(self, key, value):
        def entries(p):
            """What each key sets: support bounds, densities, moves."""
            n_rho = len(p.design0.rho)
            sup = n_rho + np.flatnonzero(
                ["_s" in name for name in p.design0.bc_names()])
            assert len(sup) == 4
            return {"bc_margin": np.array([p.lower[sup], p.upper[sup]]),
                    "rho_init": p.design0.rho,
                    "move_rho": p.move_limits[:n_rho],
                    "move_xy": p.move_limits[n_rho:-1],
                    "move_theta_deg": p.move_limits[-1]}

        base = entries(custom_problem())
        want = {"bc_margin": base["bc_margin"] + [[-value], [value]],
                "rho_init": value, "move_rho": value, "move_xy": value,
                "move_theta_deg": np.deg2rad(value)}[key]
        got = entries(custom_problem(**{key: value}))[key]
        assert np.array_equal(*np.broadcast_arrays(got, want))
        assert not np.array_equal(*np.broadcast_arrays(base[key], want))

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError, match="precision points"):
            custom_problem(objective="path_error",
                           precision_points=[0.1, 0.02] * 2)
        with pytest.raises(ValueError, match="output_point"):
            custom_problem(output_point=[], counter_forces=[1.0, 0.0])
        with pytest.raises(ValueError, match="unknown objective"):
            custom_problem(objective="max_fun")
        for key, value in (("output_sign", 0.0), ("output_sign", 2.0),
                           ("output_axis", "z"),
                           ("counter_forces", [1.0, 0.0, 2.0]),
                           ("precision_points", [0.1, 0.02, 0.03]),
                           ("supports", [0.0, 0.0, 0.0]),
                           ("load", [0.0, 0.025, 0.0]),
                           ("output_point", [0.1]),
                           ("output_point", [0.1, 0.025, 0.0])):
            with pytest.raises(ValueError, match=rf"\[custom\] {key}"):
                custom_problem(**{"objective": "path_error",
                                  "precision_points": [0.1, 0.02],
                                  key: value})

    @pytest.mark.parametrize("key,name", [
        ("move_rho", "rho"), ("move_xy", "X_s1"), ("move_theta_deg", "theta")])
    def test_negative_move_limit_raises(self, key, name):
        with pytest.raises(ValueError, match=f"move limit of {name} = -"):
            custom_problem(**{key: -0.1})
        custom_problem(**{key: 0.0})

    def test_first_negative_move_limit_is_named(self):
        prob = P.make_problem("gripper", element_size=8e-3)
        moves = prob.move_limits.copy()
        moves[-3:] = -1e-3  # X_f, Y_f and theta
        with pytest.raises(ValueError, match="move limit of X_f = -0.001;"):
            dataclasses.replace(prob, move_limits=moves)

    def test_max_u_out_needs_an_output_point(self):
        with pytest.raises(ValueError, match="output_point"):
            custom_problem(objective="max_u_out", output_point=[])

    def test_path_error_needs_an_output_point(self):
        with pytest.raises(ValueError, match="output_point"):
            custom_problem(
                objective="path_error", precision_points=[0.1, 0.02],
                output_point=[])


class TestScaled:
    @staticmethod
    def evaluate(scaled, values, grads=None):
        """scaled.evaluate on records of the given values and gradients."""
        grads = grads or [np.zeros(2)] * len(values)
        return scaled.evaluate({
            q.name: SimpleNamespace(value=v, dgdzeta=d)
            for q, v, d in zip(scaled.quantities, values, grads)})

    def test_upper_and_lower(self):
        q = P.FIn(step=1)
        up = P.Scaled([q], 30.0, "upper", 30.0)
        lo = P.Scaled([q], 2.0, "lower", 2.0)
        assert self.evaluate(up, [33.0])[0] == 33.0
        assert self.evaluate(up, [30.0])[1] == 0.0
        assert self.evaluate(up, [33.0])[1] > 0.0
        assert self.evaluate(up, [27.0])[1] < 0.0
        assert self.evaluate(lo, [2.0])[1] == 0.0
        assert self.evaluate(lo, [1.0])[1] > 0.0
        assert self.evaluate(lo, [3.0])[1] < 0.0
        g = np.array([1.0, -2.0])
        assert np.allclose(self.evaluate(up, [1.0], [g])[2], g / 30.0)
        assert np.allclose(self.evaluate(lo, [1.0], [g])[2], -g / 2.0)
        assert (up.name, lo.name) == ("f_in[1,0] < 30", "f_in[1,0] > 2")

    @pytest.mark.parametrize("direction,sign", [("lower", -1.0),
                                                ("upper", 1.0)],
                             ids=["max", "min"])
    def test_objective_is_the_signed_scaled_sum(self, direction, sign):
        qs = [P.FIn(step=1), P.FP(step=2)]
        objective = P.Scaled(qs, 0.0, direction, 4.0)
        grads = [np.array([1.0, -2.0]), np.array([0.5, 3.0])]
        value, f0, df0 = self.evaluate(objective, [1.5, 2.5], grads)
        assert value == 4.0
        assert f0 == sign * 4.0 / 4.0
        assert np.array_equal(df0, sign * np.array([1.5, 1.0]) / 4.0)


@pytest.mark.parametrize("make", [
    lambda: P.make_problem("gripper", element_size=4e-3),
    lambda: P.make_problem("bistable_airfoil", element_size=6e-3),
    lambda: P.make_problem("line_generator", element_size=8e-3),
    lambda: P.make_problem("morphing_wing", element_size=3e-3),
    lambda: custom_problem(counter_forces=[1.0, 0.0]),
], ids=["gripper", "bistable_airfoil", "line_generator", "morphing_wing",
        "custom"])
def test_objective_and_constraints_share_one_form(make):
    p = make()
    for c in p.constraints:
        assert len(c.quantities) == 1
        assert c.scale == abs(c.bound) > 0.0
    assert p.objective.bound == 0.0 and p.objective.scale > 0.0
    read = {q.name for s in [p.objective, *p.constraints]
            for q in s.quantities}
    names = [q.name for q in p.quantities()]
    assert sorted(names) == sorted(read)


class TestModels:
    """ProblemSpec.models: the models every solve of a design uses."""

    def test_frozen_normalization_counter_forces_and_stroke(self):
        prob = P.make_problem("line_generator", element_size=6e-3)
        moved = prob.design0.copy()
        moved.load = moved.load + np.array([5e-3, 2e-3])
        fields, models, control = prob.models(moved, stroke_scale=0.5)
        # the load moved, but its normalization stays design0's
        assert fields.A_f == prob.A_f
        total = np.sum(fields.f_e * prob.mesh.volumes)
        assert abs(total - 1.0) > 1e-6
        assert np.array_equal(prob.fields(moved).f_e, fields.f_e)
        assert len(models) == len(prob.load_cases) == 3
        for model, case in zip(models, prob.load_cases):
            assert np.array_equal(model.F_counter,
                                  case.force_vector(prob.mesh))
            assert model.fields is fields
        assert control.u_in_norm == 0.5 * prob.u_in_norm
        assert control.theta == moved.theta
