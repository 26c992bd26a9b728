"""Command-line entry point.

Subcommands:
  run <config>      optimize a problem and write all result artifacts
  verify            run acceptance criteria 1-6 and the property checks
  mesh <config>     generate (or re-export) the analysis mesh only
  replay <summary>  re-solve a stored design at fine displacement resolution
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time


def _fail(message, code=1):
    sys.stderr.write(f"error: {message}\n")
    return code


def build_problem_from_config(cfg):
    """Materialize a ProblemSpec from a parsed RunConfig. A setting left
    at 0 (k_out: below 0) takes the problem's own value."""
    from . import config, mesh as msh, problems
    from .design_field import ProjectionParams

    def given(value):
        return value if value > 0 else None

    mcfg, par = cfg.values["mesh"], cfg.values["parameters"]
    thickness = given(mcfg["thickness"]) or problems.THICKNESS
    mesh = (msh.read_mesh(mcfg["path"], thickness=thickness)
            if mcfg["source"] == "import" else None)
    po = {f.name: given(par[f.name]) if f.name in config.FAMILY_VALUED
          else par[f.name] for f in dataclasses.fields(ProjectionParams)
          if f.init}
    kwargs = dict(
        fixed_bcs=cfg.get("", "fixed_bcs"), mesh=mesh, thickness=thickness,
        element_size=given(mcfg["element_size"]), u_in=given(par["u_in"]),
        k_out=par["k_out"] if par["k_out"] >= 0 else None,
        max_steps=given(cfg.get("solver", "steps")), params_override=po)
    if cfg.get("", "problem") == "custom":
        return problems.make_custom_problem(cfg.values["custom"], **kwargs)
    return problems.make_problem(cfg.get("", "problem"), **kwargs)


def _optimizer_config(cfg, problem, max_iterations=None):
    """The run's OptimizerConfig, its SolverConfig included: the [optimizer]
    and [solver] keys are their fields, but the steps are the problem's.
    max_iterations, when given, overrides the config's."""
    from .optimizer import OptimizerConfig
    from .solver import SolverConfig

    opt = dict(cfg.values["optimizer"])
    if max_iterations is not None:
        opt["max_iterations"] = max_iterations
    return OptimizerConfig(**opt, solver=SolverConfig(
        **{**cfg.values["solver"], "steps": problem.steps}))


def cmd_run(args):
    from . import config, mesh as msh, optimizer, outputs

    try:
        cfg = config.parse_config(args.config)
    except config.ConfigError as err:
        return _fail(str(err))
    try:
        problem = build_problem_from_config(cfg)
    except Exception as err:
        return _fail(f"problem construction failed: {err}")
    try:
        opt_cfg = _optimizer_config(cfg, problem, args.max_iterations)
    except ValueError as err:
        return _fail(str(err))

    outdir = args.output or cfg.get("", "output_dir")
    os.makedirs(outdir, exist_ok=True)
    resolved = config.dump_config(cfg)
    with open(os.path.join(outdir, "config_resolved.cfg"), "w",
              encoding="utf-8") as f:
        f.write(resolved)

    def dump_density(name, design):
        flds = problem.fields(design)
        outputs.write_vtk(os.path.join(outdir, name), problem.mesh,
                          outputs.density_cell_data(problem.mesh, flds))

    with open(os.path.join(outdir, "run.log"), "w", encoding="utf-8") as log:
        def say(msg):
            log.write(f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] {msg}\n")
            log.flush()
            if not args.quiet:
                print(msg)

        say(f"problem {problem.name}: {problem.mesh.num_elements} elements, "
            f"{problem.design0.size} design variables, "
            f"{len(problem.constraints)} constraints")

        dump_every = cfg.get("output", "dump_every")
        history = outputs.HistoryWriter(os.path.join(outdir, "history.csv"),
                                        problem)

        def on_iteration(rec, design, evaluation):
            history(rec, design, evaluation)
            say(f"iter {rec.iteration}: objective {rec.objective:.6g}, "
                f"max g {rec.g.max():.3g}, mean |drho| {rec.mean_drho:.2e}"
                + (f" [{evaluation.failure}]" if evaluation.failed else ""))
            if dump_every and rec.iteration % dump_every == 0:
                dump_density(f"density_{rec.iteration:03d}.vtk", design)

        t0 = time.perf_counter()
        try:
            result = optimizer.run_optimization(problem, opt_cfg,
                                                on_iteration=on_iteration)
        finally:
            history.close()
        say(f"finished: {result.stop_reason} after {len(result.history)} "
            f"iterations in {time.perf_counter() - t0:.1f} s")

        dump_density("density_final.vtk", result.design)
        msh.write_mesh(problem.mesh, os.path.join(outdir, "mesh.mesh"))
        if result.evaluation is not None:
            outputs.write_case_artifacts(
                outdir, problem, result.evaluation.paths, result.design)
        outputs.write_design_summary(
            os.path.join(outdir, "design_summary.json"), problem, result,
            resolved)
    return 0


def cmd_verify(args):
    from .verify import run_verification

    ok, _ = run_verification()
    return 0 if ok else 1


def cmd_mesh(args):
    from . import config, mesh as msh

    try:
        cfg = config.parse_config(args.config)
        problem = build_problem_from_config(cfg)
    except Exception as err:
        return _fail(str(err))
    out = args.output or "mesh.mesh"
    msh.write_mesh(problem.mesh, out)
    tags = problem.mesh.element_tag
    print(f"{problem.mesh.num_elements} elements, "
          f"{problem.mesh.num_nodes} nodes -> {out}")
    print(f"designable {int((tags == 0).sum())}, "
          f"solid {int((tags == 1).sum())}, void {int((tags == 2).sum())}")
    return 0


def cmd_replay(args):
    import numpy as np

    from . import config, outputs
    from .design_field import DesignVector

    try:
        with open(args.summary, "r", encoding="utf-8") as f:
            doc = json.load(f)
        cfg = config.parse_config(doc["resolved_config"])
    except (OSError, config.ConfigError) as err:
        return _fail(str(err))
    mesh_file = os.path.join(os.path.dirname(args.summary) or ".",
                             "mesh.mesh")
    if os.path.exists(mesh_file):
        cfg.values["mesh"].update(source="import", path=mesh_file)
    try:
        problem = build_problem_from_config(cfg)
    except Exception as err:
        return _fail(f"problem reconstruction failed: {err}")
    d = doc["design"]
    design = DesignVector(rho=np.array(d["rho"]),
                          supports=np.array(d["supports"]),
                          load=np.array(d["load"]), theta=d["theta"])
    outdir = args.output or (os.path.dirname(args.summary) or ".")
    os.makedirs(outdir, exist_ok=True)
    try:
        # the run's own solver settings, at the requested increments
        solver_cfg = dataclasses.replace(
            _optimizer_config(cfg, problem).solver, steps=args.steps)
        paths, fields, control = outputs.replay_design(
            problem, design, solver_cfg, stroke_scale=args.stroke_scale)
    except Exception as err:
        return _fail(f"replay solve failed: {err}")
    outputs.write_case_artifacts(outdir, problem, paths, design,
                                 u_in_norm=control.u_in_norm,
                                 prefix="replay_")
    print(f"replayed {len(paths)} load case(s) at {args.steps} increments "
          f"-> {outdir}/replay_*.csv")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="varibc",
        description="Compliant mechanism synthesis with movable loads and "
                    "supports (nonlinear topology optimization)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization from a config")
    p_run.add_argument("config")
    p_run.add_argument("--output", "-o", default=None)
    p_run.add_argument("--max-iterations", type=int, default=None)
    p_run.add_argument("--quiet", "-q", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify",
                           help="run acceptance criteria 1-6 and the "
                                "property checks")
    p_ver.set_defaults(func=cmd_verify)

    p_mesh = sub.add_parser("mesh", help="generate the mesh only")
    p_mesh.add_argument("config")
    p_mesh.add_argument("--output", "-o", default=None)
    p_mesh.set_defaults(func=cmd_mesh)

    p_rep = sub.add_parser("replay",
                           help="re-solve a stored design finely")
    p_rep.add_argument("summary", help="design_summary.json from a run")
    p_rep.add_argument("--steps", type=int, default=50)
    p_rep.add_argument("--stroke-scale", type=float, default=1.0)
    p_rep.add_argument("--output", "-o", default=None)
    p_rep.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return _fail("interrupted", 130)


if __name__ == "__main__":
    sys.exit(main())
