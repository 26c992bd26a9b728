"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 1-6 are the check functions of varibc.verify, which also back the
`varibc verify` table; their oracles and tolerances live there. Each test
prints a single PASS line on success (run with -s or -rA to see them);
failures surface as ordinary assertion errors. Criterion 7 runs two
desk-scale optimizations and dominates the suite's runtime.
"""

import time

import numpy as np
import pytest

from varibc import fixtures as fx
from varibc import problems as P
from varibc import solver as S
from varibc import verify as V


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


# -- 1-6: the same check functions `varibc verify` runs ---------------------

def _gate(n, check):
    ok, detail = check()
    assert ok, detail
    _ok(n, detail)


def test_01_gradient_exactness():
    _gate(1, V.gradient_exactness)


def test_02_material_consistency():
    _gate(2, V.material_consistency)


def test_03_solver_contract():
    _gate(3, V.solver_contract)


def test_04_linear_limit():
    _gate(4, V.linear_limit)


def test_05_projection_identities():
    _gate(5, V.projection_identities)


def test_06_force_decomposition_identity():
    _gate(6, V.force_decomposition_identity)


# -- 7 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def gripper_runs():
    t0 = time.perf_counter()
    out = {mode: V.desk_scale_gripper(fixed)
           for mode, fixed in (("fixed", True), ("variable", False))}
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_07_desk_scale_gripper(gripper_runs):
    prob_f, res_f, (u_f, _, feasible_f) = gripper_runs["fixed"]
    _, _, (u_v, moved, feasible_v) = gripper_runs["variable"]
    assert gripper_runs["elapsed"] <= 3600.0
    assert 1800 <= prob_f.mesh.num_elements <= 3200  # ~2,500 elements

    assert res_f.stop_reason in ("converged", "max_iterations")
    assert u_f > 0.0
    assert feasible_f
    assert res_f.history[-1].values["v_f"] <= 0.3 + 1e-3

    assert feasible_v
    assert u_v >= u_f
    assert moved > 5e-3
    _ok(7, (f"fixed U_out {u_f * 100:.3f} cm, variable {u_v * 100:.3f} cm "
            f"({u_v / u_f:.2f}x), max BC move {moved * 1000:.1f} mm, "
            f"{gripper_runs['elapsed']:.0f} s total"))


# -- 8 ----------------------------------------------------------------------

def test_08_bistability_replay(tmp_path):
    import json

    from varibc import cli, config, mesh as mesh_mod

    f = fx.load_fixture("toy_arch")
    fields, model = f.build()
    ctrl = f.control()
    # the stored design reaches a negative final input force at M = 8
    path = S.solve_equilibrium_path(model, ctrl,
                                    S.SolverConfig(steps=f.steps))
    fins = np.array([P.f_in(s.lambda_x, s.lambda_y, f.design.theta)
                     for s in path.requested_states])
    assert fins[-1] < 0.0

    # replay it through the CLI at 50 increments: custom problem around the
    # imported arch mesh, design summary as `run` would have written it
    mesh_mod.write_mesh(f.mesh, str(tmp_path / "mesh.mesh"))
    sup = f.design.supports
    cfg_text = (
        'problem = "custom"\n'
        '[mesh]\nsource = "import"\npath = "%s"\nthickness = 0.01\n'
        '[parameters]\nnu = 0.3\nr = 0.12\nr_min = 0.05\nbeta = 500\n'
        'u_in = %r\n'
        '[solver]\nsteps = 8\n'
        '[custom]\n'
        'supports = [%r, %r, %r, %r]\n'
        'load = [%r, %r]\n'
        'theta_deg = -90.0\n'
        'objective = "min_f_in_final"\n'
        'output_point = [%r, %r]\noutput_axis = "y"\noutput_sign = -1.0\n'
    ) % (tmp_path / "mesh.mesh", float(f.u_in_norm),
         float(sup[0, 0]), float(sup[0, 1]), float(sup[1, 0]),
         float(sup[1, 1]), float(f.design.load[0]), float(f.design.load[1]),
         float(f.design.load[0]), float(f.design.load[1]))
    resolved = config.dump_config(config.parse_config(cfg_text))
    summary = {
        "problem": "custom",
        "design": {"rho": [float(v) for v in f.design.rho],
                   "supports": sup.tolist(),
                   "load": f.design.load.tolist(),
                   "theta": float(f.design.theta)},
        "resolved_config": resolved,
    }
    spath = tmp_path / "design_summary.json"
    spath.write_text(json.dumps(summary))
    assert cli.main(["replay", str(spath), "--steps", "50",
                     "-o", str(tmp_path)]) == 0
    rows = (tmp_path / "replay_load_displacement_case1.csv").read_text() \
        .strip().splitlines()[1:]
    assert len(rows) == 50
    curve = np.array([float(r.split(",")[2]) for r in rows])
    peak = int(np.argmax(curve))
    first_neg = int(np.argmax(curve < 0.0))
    assert curve.max() > 0.0
    assert curve[-1] < 0.0
    assert 0 < first_neg and peak < first_neg  # positive peak, then negative
    _ok(8, (f"replay curve: peak {curve.max():.1f} N at step {peak + 1}, "
            f"crosses zero at step {first_neg + 1}, ends {curve[-1]:.1f} N"))


# -- 9 ----------------------------------------------------------------------

def test_09_run_determinism(tmp_path):
    from varibc import cli

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        'problem = "gripper"\nfixed_bcs = true\n'
        '[mesh]\nelement_size = 0.008\n'
        '[optimizer]\nmax_iterations = 3\n')
    assert cli.main(["run", str(cfg), "-q", "-o", str(tmp_path / "a")]) == 0
    assert cli.main(["run", str(cfg), "-q", "-o", str(tmp_path / "b")]) == 0
    ha = (tmp_path / "a" / "history.csv").read_bytes()
    hb = (tmp_path / "b" / "history.csv").read_bytes()
    assert ha == hb
    _ok(9, f"two runs produced bit-identical history.csv ({len(ha)} bytes)")


# -- 10 ---------------------------------------------------------------------

def test_10_convergence_rule():
    from varibc.optimizer import IterationRecord, convergence_check

    def rec(mean_drho, g):
        return IterationRecord(
            iteration=1, objective=0.0, f0=0.0, g=np.asarray(g), values={},
            max_drho=mean_drho, mean_drho=mean_drho, bc=np.zeros(1),
            solver_bisections=0, solver_iterations=0, path_failed=False)

    assert convergence_check([rec(5e-5, [-0.01, -0.5])]) == "stop"
    assert convergence_check([rec(5e-5, [0.1, -0.5])]) == "continue"
    assert convergence_check([rec(2e-4, [-0.01, -0.5])]) == "continue"
    assert convergence_check([rec(9.9e-5, [-1e-9])]) == "stop"
    _ok(10, "stops only on feasibility AND mean |drho| < 1e-4")
