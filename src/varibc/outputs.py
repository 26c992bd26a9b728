"""Result artifacts: legacy-VTK density fields, CSV curves, run summaries.

Everything written here is deterministic for a fixed run; wall-clock data is
confined to the separate run log so repeated runs produce bit-identical
artifacts.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import problems
from .solver import solve_equilibrium_path


def write_vtk(path, mesh, cell_data):
    """Legacy ASCII unstructured-grid VTK file with per-cell scalars."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 4.2\n")
        f.write("density and boundary-condition fields\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.num_nodes} double\n")
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        f.write(f"CELLS {mesh.num_elements} {4 * mesh.num_elements}\n")
        for i, j, k in mesh.triangles:
            f.write(f"3 {i} {j} {k}\n")
        f.write(f"CELL_TYPES {mesh.num_elements}\n")
        f.write("5\n" * mesh.num_elements)
        f.write(f"CELL_DATA {mesh.num_elements}\n")
        for name, data in cell_data.items():
            kind = "int" if np.issubdtype(np.asarray(data).dtype, np.integer) \
                else "double"
            f.write(f"SCALARS {name} {kind} 1\nLOOKUP_TABLE default\n")
            for v in np.asarray(data):
                f.write(f"{v}\n")


def density_cell_data(mesh, fields):
    return {
        "rho_phys": fields.rho_bar,
        "spring_stiffness": fields.k_s,
        "load_magnitude": fields.f_e,
        "energy_blend": fields.gamma,
        "region_tag": mesh.element_tag,
    }


def history_header(problem):
    cols = ["iteration", "objective", "f0", "mean_drho", "max_drho",
            "solver_bisections", "solver_iterations", "path_failed",
            "oscillating", "mma_fallback"]
    cols += problem.design0.bc_names()
    cols += [f"g{j}" for j in range(len(problem.constraints))]
    return cols


def history_row(record):
    vals = [record.iteration, repr(record.objective), repr(record.f0),
            repr(record.mean_drho), repr(record.max_drho),
            record.solver_bisections, record.solver_iterations,
            int(record.path_failed), int(record.oscillating),
            int(record.mma_fallback)]
    vals += [repr(float(v)) for v in record.bc]
    vals += [repr(float(v)) for v in record.g]
    return vals


class HistoryWriter:
    """Crash-safe CSV streaming: one flushed row per iteration."""

    def __init__(self, path, problem):
        self.f = open(path, "w", encoding="utf-8", newline="")
        self.f.write(",".join(history_header(problem)) + "\r\n")
        self.f.flush()

    def __call__(self, record, design, evaluation):
        self.f.write(",".join(str(v) for v in history_row(record)) + "\r\n")
        self.f.flush()

    def close(self):
        self.f.close()


def write_load_displacement(path, states, u_in_norm, theta):
    """Per-step actuator force curve for one load case."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("step,input_disp_m,F_in_N,F_p_N,lambda_x,lambda_y\r\n")
        for m, st in enumerate(states, start=1):
            fin = problems.f_in(st.lambda_x, st.lambda_y, theta)
            fp = problems.f_p(st.lambda_x, st.lambda_y, theta)
            f.write("%d,%r,%r,%r,%r,%r\r\n" % (
                m, float(st.input_fraction * u_in_norm), float(fin),
                float(fp), float(st.lambda_x), float(st.lambda_y)))


def write_output_path(path, states, mesh, node, u_in_norm):
    """Deformed output-point positions along one load case's path."""
    x0, y0 = mesh.nodes[node]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("step,input_disp_m,X_out_m,Y_out_m\r\n")
        for m, st in enumerate(states, start=1):
            f.write("%d,%r,%r,%r\r\n" % (
                m, float(st.input_fraction * u_in_norm),
                float(x0 + st.U[2 * node]), float(y0 + st.U[2 * node + 1])))


def write_design_summary(path, problem, design, evaluation, stop_reason,
                         resolved_config_text):
    """Self-contained JSON record of the final design.

    Embeds the resolved configuration so `replay` can rebuild the problem
    from this one file; densities are stored in full.
    """
    constraints = [
        {"name": c.name, "g": float(g)}
        for c, g in zip(problem.constraints, evaluation.g)
    ] if evaluation is not None else []
    doc = {
        "problem": problem.name,
        "stop_reason": stop_reason,
        "objective": (float(evaluation.objective)
                      if evaluation is not None else None),
        "quantities": ({k: float(v) for k, v in evaluation.values.items()}
                       if evaluation is not None else {}),
        "constraints": constraints,
        "design": {
            "rho": [float(v) for v in design.rho],
            "supports": [[float(x), float(y)] for x, y in design.supports],
            "load": [float(design.load[0]), float(design.load[1])],
            "theta": float(design.theta),
        },
        "mesh": {"elements": problem.mesh.num_elements,
                 "nodes": problem.mesh.num_nodes},
        "resolved_config": resolved_config_text,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def replay_design(problem, design, solver_cfg, stroke_scale=1.0):
    """Re-solve a stored design with the solver settings solver_cfg.

    Returns (paths, one per load case; fields; control), for post-analysis
    force-displacement curves and output paths. The models come from
    problem.models, as in the run, so a replay with the run's own solver
    settings reproduces the run's forces.
    """
    fields, models, control = problem.models(design,
                                             stroke_scale=stroke_scale)
    paths = [solve_equilibrium_path(m, control, solver_cfg) for m in models]
    return paths, fields, control


def write_case_artifacts(outdir, problem, paths, design, u_in_norm=None,
                         prefix=""):
    """Load-displacement and output-path CSVs for every load case."""
    u_in = problem.u_in_norm if u_in_norm is None else u_in_norm
    for i, path in enumerate(paths, start=1):
        states = path.requested_states
        write_load_displacement(
            os.path.join(outdir, f"{prefix}load_displacement_case{i}.csv"),
            states, u_in, design.theta)
        if problem.output_node is not None:
            write_output_path(
                os.path.join(outdir, f"{prefix}output_path_case{i}.csv"),
                states, problem.mesh, problem.output_node, u_in)
