"""
Acceptance 7's round-off band
=============================

Acceptance criterion 7 optimizes the desk-scale gripper (h = 3 mm, 120
iterations) once with fixed and once with variable boundary conditions, and
reports U_out of both, their ratio and the largest support/actuator move.
Those numbers move under input changes of round-off size, so one run cannot
tell a real shift from noise. This script runs both modes from K starting
designs, each design0 with its densities scaled by 1 + U(-1e-12, 1e-12),
and prints every run and the min, median and max of each number. The
scalings are draws of one generator seeded with 0. Run k of both modes
starts from the same scaled densities; its ratio is variable over fixed
U_out. Of each variable-BC run it also prints the final actuator angle
theta and the mean |drho| of its final densities against run 0's: the
designs spread far more than U_out does.

One run takes about half a minute on one core, so K = 10 takes about ten
minutes.

Run:  python demos/acceptance7_band.py [K]
"""

import argparse

import numpy as np

from varibc import problems
from varibc.verify import desk_scale_gripper


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("K", type=int, nargs="?", default=10,
                        help="starting designs per mode (default 10)")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    n_rho = len(problems.make_problem("gripper", element_size=3e-3)
                .design0.rho)
    rows = []  # per k: the numbers of the table below
    for k in range(args.K):
        scale = 1.0 + rng.uniform(-1e-12, 1e-12, n_rho)  # both modes
        _, _, (u_f, _, ok_f) = desk_scale_gripper(True, scale)
        _, res, (u_v, move, ok_v) = desk_scale_gripper(False, scale)
        if k == 0:
            rho_run0 = res.design.rho
        drho = np.abs(res.design.rho - rho_run0).mean()
        rows.append((u_f, u_v, move, res.design.theta, drho))
        print(f"run {k}: fixed U_out {u_f * 100:.3f} cm, variable "
              f"{u_v * 100:.3f} cm, max BC move {move * 1000:.1f} mm, "
              f"theta {res.design.theta:.3f} rad, mean |drho| to run 0 "
              f"{drho:.4f}" + ("" if ok_f and ok_v else ", ended infeasible"),
              flush=True)

    u_f, u_v, move, theta, drho = np.array(rows).T
    print(f"\n{'K = ' + str(args.K):32s} {'min':>8s} {'median':>8s} "
          f"{'max':>8s}")
    for name, v in (("fixed-BC U_out [cm]", 100 * u_f),
                    ("variable-BC U_out [cm]", 100 * u_v),
                    ("ratio variable / fixed", u_v / u_f),
                    ("variable-BC max BC move [mm]", 1000 * move),
                    ("variable-BC final theta [rad]", theta),
                    ("variable-BC mean |drho| to run 0", drho)):
        print(f"{name:32s} {v.min():8.3f} {np.median(v):8.3f} {v.max():8.3f}")


if __name__ == "__main__":
    main()
