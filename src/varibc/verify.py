"""Built-in verification: acceptance criteria 1-6 plus three property checks.

`varibc verify` prints one row per entry of CHECKS. The first six rows are
acceptance criteria 1-6 with the oracles, seeds, probes and tolerances of the
acceptance gate; tests/test_acceptance.py calls these same functions, so the
table and the gate cannot drift apart. The last three rows are property
checks only this table runs: smooth-min distance bounds, the global tangent
against a directional finite difference, and mesh area conservation.
desk_scale_gripper is criterion 7's optimization run, too long for the table.

Every check returns (ok, detail); the CLI prints the table and sets the exit
code.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import adjoint, design_field as df, fixtures as fx
from . import material as mat, mesh as msh, optimizer as O, problems as P
from . import solver as S


def path_values(fixture, design, A_f, solver_cfg, quantities):
    """{name: value} of each quantity on the path solved at `design`.

    The finite-difference oracle of the adjoint checks: it builds the
    fixture's model and input control at `design` with the frozen load
    normalization A_f, solves the path and evaluates each quantity at its
    step. It runs no adjoint, so it is independent of the gradients it
    checks.
    """
    f = dataclasses.replace(fixture, design=design)
    fields, model = f.build(A_f=A_f)
    ctrl = f.control()
    path = S.solve_equilibrium_path(model, ctrl, solver_cfg)
    return {q.name: q.evaluate(adjoint.StateContext(
        state=path.state_at_step(q.step), model=model, control=ctrl,
        fields=fields, design=design)) for q in quantities}


def gradient_exactness():
    """Criterion 1: adjoint design derivatives against central differences.

    Each probe is a zeta column (an entry of DesignVector.to_array()), a
    step h and a relative tolerance: 10 seeded density columns (h 1e-4, tol
    1e-4), theta (h 1e-6, tol 1e-4) and the four support-coordinate and two
    load-coordinate columns (h 1e-6, tol 1e-3). U_out, F_in, F_p, the volume
    fraction and a path-error term are differentiated as every optimizer
    iteration does it (optimizer.differentiate_path) and compared against
    central differences of path_values; the check must finish within 60 s.
    """
    t0 = time.perf_counter()
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    ctrl = f.control()
    cfg = S.SolverConfig(steps=2, tol_residual=1e-11, max_corrector_iters=30)

    out_node = f.output_springs[0][0] // 2
    quantities = [
        P.UOut(f.output_selector, step=2, name="u_out"),
        P.FIn(step=2, name="f_in"),
        P.FP(step=2, name="f_p"),
        P.VolumeFraction(step=2),
        P.OutputOffsetSq(out_node, (0.105, 0.061), 2, 0, name="path_err"),
    ]
    _, sens, failure = O.differentiate_path(model, ctrl, cfg, fields,
                                            f.design, quantities)
    if failure:
        return False, f"the fixture's path failed: {failure}"

    n_rho = len(f.design.rho)
    rng = np.random.default_rng(2024)
    probes = [(int(j), 1e-4, 1e-4)
              for j in rng.choice(n_rho, size=10, replace=False)]
    probes += [(f.design.size - 1, 1e-6, 1e-4)]
    probes += [(n_rho + k, 1e-6, 1e-3) for k in (0, 2, 1, 3, 4, 5)]
    worst = 0.0
    for col, h, tol in probes:
        vp, vm = (path_values(f, f.design.shifted(col, s), fields.A_f, cfg,
                              quantities) for s in (h, -h))
        for name in vp:
            diff = vp[name] - vm[name]
            # skip entries beneath the FD oracle's own resolution: when the
            # central difference is < 1e-9 of the value, its relative error
            # is dominated by solver roundoff, not by the adjoint
            if abs(diff) <= 1e-9 * max(abs(vp[name]), abs(vm[name]), 1e-30):
                continue
            fd = diff / (2 * h)
            got = sens[name].dgdzeta[col]
            rel = abs(got - fd) / abs(fd)
            worst = max(worst, rel)
            if rel > tol:
                return False, (f"{name} d/dzeta[{col}] rel err {rel:.2e} "
                               f"> {tol:g}")
    elapsed = time.perf_counter() - t0
    return elapsed <= 60.0, (f"adjoint vs FD worst rel err {worst:.2e} in "
                             f"{elapsed:.1f} s (limit 60 s)")


def material_consistency():
    """Criterion 2: S against the energy and D against an independent S.

    S and D come from material.pk2_and_tangent_batch, which the element
    kernel runs. Both oracles are central differences in C of closed-form
    expressions written here, not of the function under test.
    """
    p = mat.MaterialParams(nu=0.49)
    (S_I,), (D_I,), _ = mat.pk2_and_tangent_batch(np.eye(2)[None], p)
    zero = np.abs(S_I).max()
    hooke = np.abs(D_I - p.D0).max()

    def energy_of_C(C):
        J = np.sqrt(np.linalg.det(C))
        return (0.5 * p.mu0 * (C[0, 0] + C[1, 1] + 1 - 3)
                - p.mu0 * np.log(J) + 0.5 * p.lam0 * (J - 1) ** 2)

    def stress_of_C(C):
        Ci = np.linalg.inv(C)
        J = np.sqrt(np.linalg.det(C))
        return p.lam0 * (J * J - J) * Ci + p.mu0 * (np.eye(2) - Ci)

    rng = np.random.default_rng(7)
    pairs = [(0, 0), (1, 1), (0, 1)]
    n = 0
    worst_s = worst_d = 0.0
    while n < 100:
        F = np.eye(2) + rng.uniform(-0.6, 0.6, (2, 2))
        J = np.linalg.det(F)
        if not 0.5 <= J <= 2.0:
            continue
        n += 1
        C = F.T @ F
        h = 1e-6
        S_fd = np.zeros((2, 2))
        D_fd = np.zeros((3, 3))
        for b, (k, l) in enumerate(pairs):
            dC = np.zeros((2, 2))
            dC[k, l] += 0.5 * h
            dC[l, k] += 0.5 * h
            S_fd[k, l] = S_fd[l, k] = (energy_of_C(C + dC)
                                       - energy_of_C(C - dC)) / h
            dS = (stress_of_C(C + dC) - stress_of_C(C - dC)) / h
            for a, (i, j) in enumerate(pairs):
                D_fd[a, b] = dS[i, j]
        (Sv,), (Dv,), _ = mat.pk2_and_tangent_batch(F[None], p)
        worst_s = max(worst_s, np.linalg.norm(Sv - S_fd)
                      / max(np.linalg.norm(S_fd), 1e-3))
        worst_d = max(worst_d,
                      np.linalg.norm(Dv - D_fd) / np.linalg.norm(D_fd))
    ok = zero == 0.0 and hooke <= 1e-10 and worst_s <= 1e-7 and worst_d <= 1e-6
    return ok, (f"S-energy {worst_s:.1e}, D-stress {worst_d:.1e}, "
                f"S(I) {zero:.1e}, D(I)-Hooke {hooke:.1e}")


def solver_contract():
    """Criterion 3: residual and input constraint; bisection on the arch."""
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    ctrl = f.control()
    path = S.solve_equilibrium_path(model, ctrl, S.SolverConfig(steps=4))
    worst_r = worst_c = 0.0
    for st in path.requested_states:
        got = ctrl.sample.interpolate(st.U)
        want = ctrl.target(st.input_fraction)
        worst_r = max(worst_r, st.residual_norm)
        worst_c = max(worst_c, np.abs(got - want).max())
    detail = (f"max residual {worst_r:.2e} N, "
              f"constraint {worst_c / ctrl.u_in_norm:.2e}")
    if worst_r > 1e-6 or worst_c > 1e-10 * ctrl.u_in_norm:
        return False, detail

    arch = fx.load_fixture("toy_arch")
    afields, amodel = arch.build()
    actrl = dataclasses.replace(arch.control(),
                                u_in_norm=arch.expected["bisect_stroke"])
    try:
        S.solve_equilibrium_path(amodel, actrl,
                                 S.SolverConfig(steps=1, max_bisections=0))
        return False, "arch: nominal step unexpectedly converged"
    except S.PathFailed:
        pass
    rec = S.solve_equilibrium_path(amodel, actrl,
                                   S.SolverConfig(steps=1, max_bisections=6))
    ok = (rec.total_bisections >= 1
          and rec.requested_states[-1].input_fraction == 1.0)
    return ok, (f"{detail}; arch recovers with {rec.total_bisections} "
                f"bisections")


def linear_limit():
    """Criterion 4: at a 1e-6 stroke the path matches the linear solve."""
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    domain = 0.1
    ctrl = dataclasses.replace(f.control(), u_in_norm=1e-6 * domain)
    path = S.solve_equilibrium_path(
        model, ctrl, S.SolverConfig(steps=1, tol_residual=1e-11,
                                    max_corrector_iters=25))
    st = path.requested_states[0]
    U_lin, lam_lin = S.linear_reference_solve(model, ctrl, s=1.0)
    du = np.linalg.norm(st.U - U_lin) / np.linalg.norm(U_lin)
    dl = np.hypot(st.lambda_x - lam_lin[0], st.lambda_y - lam_lin[1]) \
        / np.hypot(*lam_lin)
    return du <= 1e-3 and dl <= 1e-3, (
        f"nonlinear vs one-shot linear: dU {du:.1e}, dlambda {dl:.1e}")


def projection_identities():
    """Criterion 5: G(0)=A, G(r)=A/b, unit load, stochastic filter rows."""
    A, b, r, Pexp = 3.7, 2.0, 0.031, 4.0
    g0, _ = df.super_gaussian(0.0, A, b, r, Pexp)
    gr, _ = df.super_gaussian(r, A, b, r, Pexp)
    f = fx.load_fixture("mini_gripper_100")
    fields, _ = f.build()
    total = np.sum(fields.f_e * f.mesh.volumes)
    W = df.build_filter_matrix(f.mesh, f.params.r_min)
    rows = np.asarray(W.sum(axis=1)).ravel()
    ok = (g0 == A and abs(gr - A / b) <= 1e-15 * A
          and abs(total - 1.0) <= 1e-9
          and np.abs(rows - 1.0).max() <= 1e-12)
    return ok, (f"G(0)-A {abs(g0 - A):.1e}, G(r)-A/b {abs(gr - A / b):.1e}, "
                f"sum fV - 1 {abs(total - 1):.1e}, filter rows "
                f"{np.abs(rows - 1).max():.1e}")


def force_decomposition_identity():
    """Criterion 6: F_in^2 + F_p^2 = lam_x^2 + lam_y^2 on 1e5 samples."""
    rng = np.random.default_rng(99)
    lx = rng.normal(scale=20, size=100_000)
    ly = rng.normal(scale=20, size=100_000)
    th = rng.uniform(-np.pi, np.pi, size=100_000)
    lhs = P.f_in(lx, ly, th) ** 2 + P.f_p(lx, ly, th) ** 2
    rhs = lx**2 + ly**2
    worst = np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-30))
    return worst <= 1e-12, (f"F_in^2 + F_p^2 identity to {worst:.1e} over "
                            f"1e5 samples")


def desk_scale_gripper(fixed_bcs, rho_scale=None):
    """Criterion 7's run: the gripper at h = 3 mm, 120 iterations, with
    fixed or variable boundary conditions, from design0 with its densities
    times rho_scale if given.

    Returns (problem, result, (U_out, max support/actuator move, feasible)).
    tests/test_acceptance.py and demos/acceptance7_band.py both call it.
    """
    prob = P.make_problem("gripper", fixed_bcs=fixed_bcs, element_size=3e-3)
    if rho_scale is not None:
        prob.design0.rho = prob.design0.rho * rho_scale
    res = O.run_optimization(prob, O.OptimizerConfig(max_iterations=120))
    moved = res.design.bc_points() - prob.design0.bc_points()
    final = res.history[-1]
    return prob, res, (final.objective, np.abs(moved).max(),
                       bool(np.all(final.g <= 1e-3)))


def _check_smooth_min():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        pts = rng.normal(size=(rng.integers(1, 6), 2))
        q = rng.normal(size=(1, 2))
        d = df.smooth_min_distance(pts, q, 12)[0][0]
        true = np.min(np.hypot(*(q - pts).T))
        if d > true + 1e-12 or d < true / len(pts) ** (1 / 12) - 1e-12:
            worst = max(worst, abs(d - true))
            return False, f"bound violated by {worst:.2e}"
    return True, "lower/upper bounds hold on 200 random sets"


def _check_tangent():
    f = fx.load_fixture("mini_gripper_100")
    fields, model = f.build()
    rng = np.random.default_rng(3)
    U = rng.uniform(-5e-4, 5e-4, f.mesh.num_dofs)
    system = model.assemble(U)
    d = rng.normal(size=f.mesh.num_dofs)
    d /= np.linalg.norm(d)
    h = 1e-8
    fd = (model.assemble(U + h * d, want_tangent=False).F_int
          - model.assemble(U - h * d, want_tangent=False).F_int) / (2 * h)
    err = np.linalg.norm(system.K_T @ d - fd) / np.linalg.norm(fd)
    return err <= 1e-5, f"directional FD error {err:.2e}"


def _check_mesh_area():
    g = msh.rectangle_geometry(1.3, 0.8, 0.11,
                               nondesign_regions=())
    m = msh.generate_mesh(g)
    err = abs(m.areas.sum() - 1.04) / 1.04
    grip = msh.generate_mesh(P.gripper_geometry(h=3e-3), thickness=0.01)
    err2 = abs(grip.areas.sum() - 0.0096) / 0.0096
    ok = err <= 1e-6 and err2 <= 1e-6
    return ok, f"area errors {err:.1e}, {err2:.1e}"


CHECKS = [
    ("criterion 1: adjoint gradients vs finite differences",
     gradient_exactness),
    ("criterion 2: material consistency (S, D, identity limits)",
     material_consistency),
    ("criterion 3: solver contract and bisection recovery", solver_contract),
    ("criterion 4: linear limit vs one-shot linear solve", linear_limit),
    ("criterion 5: projection identities", projection_identities),
    ("criterion 6: force decomposition identity",
     force_decomposition_identity),
    ("smooth-min distance bounds", _check_smooth_min),
    ("global tangent vs directional FD", _check_tangent),
    ("mesh area conservation", _check_mesh_area),
]


def run_verification(out=None):
    """Run every check; returns (all_passed, results list)."""
    import sys

    out = out or sys.stdout
    results = []
    width = max(len(name) for name, _ in CHECKS)
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        results.append((name, ok, detail))
        out.write(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  "
                  f"{detail}\n")
    all_ok = all(ok for _, ok, _ in results)
    out.write(("all checks passed\n" if all_ok else "FAILURES present\n"))
    return all_ok, results
