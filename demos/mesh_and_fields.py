"""
Meshing a design domain and projecting boundary-condition fields
================================================================

Builds the jaw-gripper domain, meshes it, and evaluates the smooth fields
that make the boundary conditions differentiable: ground-spring stiffness
around the support points, body-force magnitude around the actuator, and
the movable solid regions merged into the density field.

Run:  python demos/mesh_and_fields.py
"""

import numpy as np

from varibc import design_field as df
from varibc import mesh as M
from varibc.problems import gripper_geometry

# 10 x 10 cm square with a 2 x 2 cm bite; solid bands along the jaws
geometry = gripper_geometry(h=2e-3)
mesh = M.generate_mesh(geometry, thickness=0.01)
print(f"mesh: {mesh.num_elements} elements, {mesh.num_nodes} nodes")
print(f"area check: {mesh.areas.sum():.10f} m^2  (polygon {geometry.area():.10f})")
tags = mesh.element_tag
print(f"designable {np.sum(tags == 0)}, jaw bands (solid) {np.sum(tags == 1)}")

# a design: uniform 30% material, supports at the left corners, actuator at
# the middle of the left edge pointing right
params = df.ProjectionParams(r=2.5e-3, r_min=3e-3, beta=500.0)
design = df.DesignVector(
    rho=np.full(len(mesh.designable), 0.3),
    supports=np.array([[0.005, 0.095], [0.005, 0.005]]),
    load=np.array([0.005, 0.05]),
    theta=0.0,
)
fields = df.evaluate_fields(design, mesh, params)

print("\nprojected fields at the initial design")
print(f"  total reference load  sum f_e V_e = "
      f"{np.sum(fields.f_e * mesh.volumes):.9f} N (normalized to 1)")
print(f"  support stiffness: {np.sum(fields.k_s > 1.0)} elements carry "
      f"springs, strongest {fields.k_s.max():.3e} N/m")
print(f"  physical density range [{fields.rho_bar.min():.3f}, "
      f"{fields.rho_bar.max():.3f}] "
      f"(movable solid discs push it to 1 near the BC points)")

# the projections are flat-topped: half stiffness exactly at distance r
d = np.array([0.0, 0.5 * params.r, params.r, 2 * params.r])
g, _ = df.super_gaussian(d, 1.0, params.b, params.r, params.P)
print("\nsuper-Gaussian profile (A = 1):")
for di, gi in zip(d, g):
    print(f"  d = {di * 1000:5.2f} mm -> G = {gi:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 4))
    for ax, field, title in [
        (axes[0], fields.rho_bar, "physical density"),
        (axes[1], fields.k_s, "support stiffness"),
        (axes[2], fields.f_e, "load magnitude"),
    ]:
        t = ax.tripcolor(mesh.nodes[:, 0], mesh.nodes[:, 1],
                         mesh.triangles, facecolors=field)
        ax.set_aspect("equal")
        ax.set_title(title)
        fig.colorbar(t, ax=ax, shrink=0.8)
    fig.tight_layout()
    fig.savefig("demo_fields.png", dpi=130)
    print("\nwrote demo_fields.png")
except ImportError:
    print("\n(matplotlib not available; skipped the field plots)")
