"""
Defining a new problem entirely in configuration
================================================

A displacement inverter on an L-shaped domain, described only by a config
block: outline polygon, initial boundary conditions, objective, and bounds.
The same text could live in a .cfg file and run through `varibc run`.

Run:  python demos/custom_problem.py
"""

import numpy as np

from varibc import cli, config, optimizer

CFG = """
problem = "custom"
fixed_bcs = false

[mesh]
element_size = 0.004

[parameters]
r = 0.006
r_min = 0.008
u_in = 0.003
k_out = 200.0

[solver]
steps = 3

[custom]
outline = [0.0, 0.0, 0.1, 0.0, 0.1, 0.04, 0.04, 0.04, 0.04, 0.1, 0.0, 0.1]
supports = [0.008, 0.03, 0.03, 0.008]
load = [0.008, 0.008]
theta_deg = 45.0
objective = "max_u_out"
output_point = [0.1, 0.02]
output_axis = "x"
output_sign = 1.0
vf_bound = 0.35
f_in_bound = 25.0
f_p_bound = 6.0
move_xy = 0.004
"""

cfg = config.parse_config(CFG)
prob = cli.build_problem_from_config(cfg)
sense = "max" if prob.objective.direction == "lower" else "min"
print(f"custom L-domain: {prob.mesh.num_elements} elements, "
      f"{len(prob.constraints)} constraints, objective "
      f"{sense} {prob.objective.quantities[0].name}")

res = optimizer.run_optimization(
    prob, optimizer.OptimizerConfig(max_iterations=25))
final = res.history[-1]
print(f"after {len(res.history)} iterations ({res.stop_reason}): "
      f"U_out = {final.objective * 1000:.2f} mm, "
      f"V_f = {final.values['v_f']:.3f}")
print("final actuator:", np.round(res.design.load, 4),
      "angle", round(np.degrees(res.design.theta), 1), "deg")
print("final supports:", np.round(res.design.supports, 4).tolist())
