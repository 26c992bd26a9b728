"""
Displacement control through a snap-through response
====================================================

The packaged toy arch is a shallow two-bar structure that snaps through when
its apex is pushed down. Driving the apex displacement (not the force) lets
the solver walk over the force limit point: the input force rises, peaks,
drops through zero, and ends negative -- the signature of a bistable
mechanism. A single full-stroke step diverges; automatic step bisection
recovers it.

Run:  python demos/arch_snap_through.py
"""

import dataclasses

import numpy as np

from varibc import fixtures, solver as S
from varibc.problems import f_in

arch = fixtures.load_fixture("toy_arch")
fields, model = arch.build()
control = arch.control()

print(f"arch: {arch.mesh.num_elements} elements, stroke "
      f"{control.u_in_norm:.2f} (apex pushed straight down)")

# fine path: 50 displacement increments
path = S.solve_equilibrium_path(model, control, S.SolverConfig(steps=50))
curve = np.array([f_in(s.lambda_x, s.lambda_y, control.theta)
                  for s in path.requested_states])
u = np.array([s.input_fraction for s in path.requested_states]) \
    * control.u_in_norm

peak = int(np.argmax(curve))
neg = int(np.argmax(curve < 0))
print(f"force peak {curve.max():.1f} N at u = {u[peak]:.3f}; "
      f"crosses zero at u = {u[neg]:.3f}; ends at {curve[-1]:.1f} N")
for k in range(0, 50, 6):
    bar = "#" * int(30 * max(curve[k], 0) / curve.max()) or "|"
    print(f"  u = {u[k]:5.3f}  F_in = {curve[k]:8.2f} N  {bar}")

# a single nominal step over a 1.6x stroke diverges without bisection
hard = dataclasses.replace(control, u_in_norm=arch.expected["bisect_stroke"])
try:
    S.solve_equilibrium_path(model, hard,
                             S.SolverConfig(steps=1, max_bisections=0))
    print("unexpected: the single full step converged")
except S.PathFailed as err:
    print(f"\nsingle nominal step fails as expected: {err.reason[:60]}")
recovered = S.solve_equilibrium_path(
    model, hard, S.SolverConfig(steps=1, max_bisections=6))
print(f"with bisection: completed to fraction "
      f"{recovered.requested_states[-1].input_fraction:.1f} using "
      f"{recovered.total_bisections} bisection(s)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(u, curve, "o-", ms=3)
    ax.axhline(0.0, color="k", lw=0.8)
    ax.set_xlabel("input displacement")
    ax.set_ylabel("input force F_in [N]")
    ax.set_title("snap-through load-displacement curve")
    fig.tight_layout()
    fig.savefig("demo_arch_curve.png", dpi=130)
    print("wrote demo_arch_curve.png")
except ImportError:
    pass
