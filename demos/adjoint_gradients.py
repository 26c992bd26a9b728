"""
Exact design gradients from the two-multiplier adjoint
======================================================

With movable boundary conditions every mesh DOF is free, so the adjoint
needs a second multiplier pair for the prescribed-input constraint on top of
the residual multipliers. This script differentiates the output displacement
and the actuator force of the miniature gripper with respect to five design
variables, each addressed by its zeta column (its entry of
DesignVector.to_array()): a density, a support coordinate, both actuator
coordinates and the actuation angle. Each adjoint gradient is compared
against a central finite difference of the full nonlinear solve, computed by
the oracle of `varibc verify`'s criterion 1 (verify.path_values).

Run:  python demos/adjoint_gradients.py
"""

from varibc import fixtures, optimizer, problems, verify
from varibc import solver as S

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

n_rho = len(f.design.rho)
column = {name: n_rho + k for k, name in enumerate(f.design.bc_names())}
# (label, zeta column, central-difference step)
probes = [
    ("density rho_40", 40, 1e-4),
    ("support X_s1", column["X_s1"], 1e-6),
    ("actuator X_f", column["X_f"], 1e-6),
    ("actuator Y_f", column["Y_f"], 1e-6),
    ("angle theta", column["theta"], 1e-6),
]
print(f"{'variable':<14} {'quantity':<6} {'adjoint':>14} {'central FD':>14} "
      f"{'rel err':>9}")
for label, col, h in probes:
    # criterion 1's oracle: the path re-solved at the shifted design
    vp, vm = (verify.path_values(f, f.design.shifted(col, s), fields.A_f,
                                 cfg, quantities) for s in (h, -h))
    for name in ("U_out", "F_in"):
        fd = (vp[name] - vm[name]) / (2 * h)
        ad = sens[name].dgdzeta[col]
        rel = abs(ad - fd) / max(abs(fd), 1e-300)
        print(f"{label:<14} {name:<6} {ad:14.6e} {fd:14.6e} {rel:9.2e}")

print("\nthe two multiplier equations are satisfied to solver precision;")
print("set VARIBC_CHECK_ADJOINT=1 to assert them on every adjoint solve")
