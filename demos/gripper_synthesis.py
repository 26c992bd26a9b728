"""
Gripper synthesis: fixed versus movable boundary conditions
===========================================================

Runs the jaw-gripper problem twice on a coarse mesh: once with the supports
and actuator pinned at the conventional spots (left corners, middle of the
left edge), and once letting the optimizer move them. The movable-BC design
closes the jaws further for the same actuator stroke.

A coarse mesh and a modest iteration budget keep this demo in the
two-minute range; raise element resolution and iterations for final designs.

Run:  python demos/gripper_synthesis.py
"""

import numpy as np

from varibc import optimizer, outputs, problems

RESULTS = {}
for label, fixed in (("fixed BCs", True), ("movable BCs", False)):
    prob = problems.make_problem("gripper", fixed_bcs=fixed,
                                 element_size=4e-3)
    print(f"\n=== {label}: {prob.mesh.num_elements} elements, "
          f"{prob.design0.size} design variables")

    def report(rec, design, ev):
        if rec.iteration % 10 == 0 or rec.iteration == 1:
            print(f"  it {rec.iteration:3d}  U_out = {rec.objective:9.3e} m"
                  f"  max g = {rec.g.max():+8.4f}"
                  f"  mean |drho| = {rec.mean_drho:.2e}")

    res = optimizer.run_optimization(
        prob, optimizer.OptimizerConfig(max_iterations=60),
        on_iteration=report)
    final = res.history[-1]
    RESULTS[label] = (prob, res)
    print(f"  -> {res.stop_reason}; U_out = {final.objective * 100:.3f} cm, "
          f"V_f = {final.values['v_f']:.3f}, feasible: "
          f"{bool(np.all(final.g <= 1e-3))}")
    if not fixed:
        moved = prob.design0.join(
            [], res.design.bc_points() - prob.design0.bc_points(), 0.0)
        names = prob.design0.bc_names()[:-1]   # all but theta
        print("  boundary-condition moves (mm):",
              {n: round(float(1e3 * m), 1) for n, m in zip(names, moved)})
        print(f"  actuator angle: {np.degrees(res.design.theta):.1f} deg")

u_fixed = RESULTS["fixed BCs"][1].history[-1].objective
u_var = RESULTS["movable BCs"][1].history[-1].objective
print(f"\nmovable / fixed output ratio: {u_var / u_fixed:.2f}x")

# density snapshots for inspection in ParaView etc.
for label, (prob, res) in RESULTS.items():
    flds = prob.fields(res.design)
    name = "demo_gripper_" + label.split()[0] + ".vtk"
    outputs.write_vtk(name, prob.mesh,
                      outputs.density_cell_data(prob.mesh, flds))
    print(f"wrote {name}")
