"""
Exact design gradients from the two-multiplier adjoint
======================================================

With movable boundary conditions every mesh DOF is free, so the adjoint
needs a second multiplier pair for the prescribed-input constraint on top of
the residual multipliers. This script differentiates the output displacement
and the actuator force of the miniature gripper with respect to a density, a
support coordinate, the actuator coordinates, and the actuation angle, and
compares each against central finite differences through the full nonlinear
solve.

Run:  python demos/adjoint_gradients.py
"""

from varibc import adjoint, assembly, fixtures, optimizer, problems
from varibc import solver as S
from varibc.mesh import shape_values_at

f = fixtures.load_fixture("mini_gripper_100")
fields, model = f.build()
control = f.control()
cfg = S.SolverConfig(steps=2, tol_residual=1e-11, max_corrector_iters=30)

quantities = [
    problems.UOut(f.output_selector, step=2, name="U_out"),
    problems.FIn(step=2, name="F_in"),
]
# as every optimizer iteration does: solve the path and differentiate each
# state the quantities read with the corrector's factors
_, sens, _ = optimizer.differentiate_path(model, control, cfg, fields,
                                          f.design, quantities)
print("state at full stroke: U_out = %.4e m, F_in = %.2f N"
      % (sens["U_out"].value, sens["F_in"].value))


def evaluate(design):
    flds, mdl = assembly.build_model(
        f.mesh, design, f.params, f.material, A_f=fields.A_f,
        output_springs=f.output_springs)
    c = S.InputControl(sample=shape_values_at(f.mesh, design.load),
                       theta=design.theta, u_in_norm=f.u_in_norm)
    p = S.solve_equilibrium_path(mdl, c, cfg)
    out = {}
    for q in quantities:
        ctx = adjoint.StateContext(state=p.state_at_step(q.step), model=mdl,
                                   control=c, fields=flds, design=design)
        out[q.name] = q.evaluate(ctx)
    return out


n_rho = len(f.design.rho)
probes = [
    ("density rho_40", "rho", 40, 1e-4, 40),
    ("support X_s1", "sup", (0, 0), 1e-6, n_rho + 0),
    ("actuator X_f", "load", 0, 1e-6, n_rho + 4),
    ("actuator Y_f", "load", 1, 1e-6, n_rho + 5),
    ("angle theta", "theta", None, 1e-6, n_rho + 6),
]
print(f"{'variable':<14} {'quantity':<6} {'adjoint':>14} {'central FD':>14} "
      f"{'rel err':>9}")
for label, kind, idx, h, col in probes:
    dp, dm = f.design.copy(), f.design.copy()
    if kind == "rho":
        dp.rho[idx] += h
        dm.rho[idx] -= h
    elif kind == "sup":
        dp.supports[idx] += h
        dm.supports[idx] -= h
    elif kind == "load":
        dp.load[idx] += h
        dm.load[idx] -= h
    else:
        dp.theta += h
        dm.theta -= h
    vp, vm = evaluate(dp), evaluate(dm)
    for name in ("U_out", "F_in"):
        fd = (vp[name] - vm[name]) / (2 * h)
        ad = sens[name].dgdzeta[col]
        rel = abs(ad - fd) / max(abs(fd), 1e-300)
        print(f"{label:<14} {name:<6} {ad:14.6e} {fd:14.6e} {rel:9.2e}")

print("\nthe two multiplier equations are satisfied to solver precision;")
print("set VARIBC_CHECK_ADJOINT=1 to assert them on every adjoint solve")
