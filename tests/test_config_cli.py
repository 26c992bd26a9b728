import io
import json
import os

import numpy as np
import pytest

from varibc import cli, config
from varibc import mesh as M
from varibc import outputs, problems, verify
from varibc.optimizer import OptimizerConfig
from varibc.solver import SolverConfig


class TestParseConfig:
    def test_minimal_gripper_gets_table_defaults(self):
        cfg = config.parse_config('problem = "gripper"')
        assert cfg.get("", "problem") == "gripper"
        assert cfg.get("", "fixed_bcs") is False
        assert cfg.get("parameters", "b") == 2.0
        assert cfg.get("parameters", "Q") == 12.0
        assert cfg.get("solver", "max_corrector_iters") == 20
        assert cfg.get("solver", "tol_residual") == 1e-6
        # the key order of config_resolved.cfg, set by the field order of
        # ProjectionParams, SolverConfig and OptimizerConfig
        assert list(cfg.values["parameters"]) == [
            "E0", "nu", "E_s", "nu_s", "t_s", "p_simp", "rho0", "b", "P",
            "Q", "beta", "r", "r_min", "u_in", "k_out"]
        assert list(cfg.values["solver"]) == [
            "steps", "tol_residual", "max_corrector_iters", "max_bisections"]
        assert list(cfg.values["optimizer"]) == [
            "max_iterations", "feas_tol", "density_change_tol"]
        # a config that sets nothing else builds the library's defaults
        cfg = config.parse_config(
            'problem = "gripper"\n[mesh]\nelement_size = 0.008\n')
        problem = cli.build_problem_from_config(cfg)
        library = problems.make_problem("gripper", element_size=0.008)
        assert problem.params == library.params
        assert problem.material == library.material
        assert cli._optimizer_config(cfg, problem) == OptimizerConfig(
            solver=SolverConfig(steps=problem.steps))

    def test_beta_override(self):
        cfg = config.parse_config(
            'problem = "gripper"\n[parameters]\nbeta = 2000\n')
        assert cfg.get("parameters", "beta") == 2000.0
        assert cfg.get("parameters", "b") == 2.0  # rest untouched

    def test_misspelled_key_suggests_nearest(self):
        with pytest.raises(config.ConfigError) as ei:
            config.parse_config('problem = "gripper"\n[parameters]\nbeta_ = 5')
        msg = str(ei.value)
        assert "beta_" in msg and "beta" in msg
        assert "line 3" in msg

    def test_parse_error_has_line_and_col(self):
        with pytest.raises(config.ConfigError) as ei:
            config.parse_config('problem = "gripper"\nsteps 4\n')
        assert "line 2" in str(ei.value)
        with pytest.raises(config.ConfigError) as ei:  # a duplicate key
            config.parse_config('problem = "gripper"\n[solver]\nsteps = 4\n'
                                'steps = 5\n')
        assert "line 4" in str(ei.value)

    def test_toml_multiline_list_and_hash_in_string(self):
        cfg = config.parse_config(
            'problem = "custom"\noutput_dir = "out#1"  # a comment\n'
            '[custom]\noutline = [\n  0.0, 0.0,  # first corner\n'
            '  0.1, 0,\n  0.1, 0.1,\n]\n'
            'supports = [0.0, 0.0]\nload = [0.0, 0.05]\n')
        assert cfg.get("", "output_dir") == "out#1"
        outline = cfg.get("custom", "outline")
        assert outline == [0.0, 0.0, 0.1, 0.0, 0.1, 0.1]
        assert all(type(v) is float for v in outline)
        assert config.parse_config(config.dump_config(cfg)) == cfg

    def test_removed_custom_keys_are_unknown(self):
        # [mesh] element_size and thickness, [parameters] u_in and k_out
        # and [solver] steps are the only spellings of these settings
        for key in ("element_size", "thickness", "u_in", "steps",
                    "output_k"):
            with pytest.raises(config.ConfigError) as ei:
                config.parse_config(
                    'problem = "gripper"\n[mesh]\nelement_size = 0.003\n'
                    f'thickness = 0.02\n[custom]\n{key} = 1\n')
            assert f"unknown key [custom] {key!r}" in str(ei.value)
            assert "line 6" in str(ei.value)

    def test_unknown_problem_suggests(self):
        with pytest.raises(config.ConfigError) as ei:
            config.parse_config('problem = "griper"')
        assert "gripper" in str(ei.value)

    def test_bad_value_types(self):
        with pytest.raises(config.ConfigError):
            config.parse_config('problem = gripper')  # unquoted string
        with pytest.raises(config.ConfigError):
            config.parse_config('problem = "gripper"\n[solver]\nsteps = "two"')
        with pytest.raises(config.ConfigError, match="bad list entry 'a'"):
            config.parse_config('problem = "gripper"\n[custom]\n'
                                'load = [0.0, "a"]')
        with pytest.raises(config.ConfigError, match="expects float"):
            config.parse_config('problem = "gripper"\n[parameters]\n'
                                'beta = true')

    def test_unknown_section(self):
        with pytest.raises(config.ConfigError) as ei:
            config.parse_config('[turbo]\nx = 1')
        assert "[turbo]" in str(ei.value)

    def test_import_requires_path(self):
        with pytest.raises(config.ConfigError):
            config.parse_config('problem = "gripper"\n[mesh]\n'
                                'source = "import"')

    def test_round_trip_resolved_config(self):
        cfg = config.parse_config(
            'problem = "bistable_airfoil"\nfixed_bcs = true\n'
            '[parameters]\nbeta = 1234.5\n[solver]\nsteps = 6\n')
        text = config.dump_config(cfg)
        cfg2 = config.parse_config(text)
        assert cfg2 == cfg
        assert config.dump_config(cfg2) == text

    def test_custom_problem_validation(self):
        with pytest.raises(config.ConfigError):
            config.parse_config('problem = "custom"')  # no outline/load


# [section] key -> (a value other than the default, where it lands in the
# problem p or the OptimizerConfig o that the CLI builds from the config)
CONFIG_TARGETS = {
    **{("parameters", key): (value, lambda p, o, key=key: getattr(p.params,
                                                                key))
       for key, value in (("E0", 2.5e7), ("E_s", 1.5e9), ("nu_s", 0.25),
                          ("t_s", 0.02), ("p_simp", 2.5), ("rho0", 0.01),
                          ("b", 3.0), ("P", 5.0), ("Q", 10.0),
                          ("beta", 800.0), ("r", 3e-3), ("r_min", 4e-3))},
    ("parameters", "nu"): (0.45, lambda p, o: {p.params.nu, p.material.nu}),
    ("parameters", "u_in"): (4e-3, lambda p, o: p.u_in_norm),
    ("parameters", "k_out"): (250.0,
                              lambda p, o: {k for _, k in p.output_springs}),
    ("solver", "steps"): (3, lambda p, o: {p.steps, o.solver.steps}),
    **{("solver", key): (value, lambda p, o, key=key: getattr(o.solver, key))
       for key, value in (("tol_residual", 2e-7), ("max_corrector_iters", 17),
                          ("max_bisections", 3))},
    **{("optimizer", key): (value, lambda p, o, key=key: getattr(o, key))
       for key, value in (("max_iterations", 7), ("feas_tol", 2e-3),
                          ("density_change_tol", 5e-5))},
}


def test_config_targets_cover_every_key():
    assert set(CONFIG_TARGETS) == {
        (section, key) for section in ("parameters", "solver", "optimizer")
        for key in config._SCHEMA[section]}


@pytest.mark.parametrize("section,key", sorted(CONFIG_TARGETS))
def test_every_key_reaches_what_it_configures(section, key):
    value, where = CONFIG_TARGETS[(section, key)]

    def reached(text):
        cfg = config.parse_config(
            'problem = "gripper"\n[mesh]\nelement_size = 0.008\n' + text)
        problem = cli.build_problem_from_config(cfg)
        got = where(problem, cli._optimizer_config(cfg, problem))
        return got.pop() if isinstance(got, set) and len(got) == 1 else got

    assert reached(f"[{section}]\n{key} = {value!r}\n") == value
    assert reached("") != value


@pytest.fixture()
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(
        'problem = "gripper"\nfixed_bcs = true\n'
        f'output_dir = "{tmp_path}/out"\n'
        '[mesh]\nelement_size = 0.008\n'
        '[optimizer]\nmax_iterations = 2\n'
    )
    return str(p)


# keys whose negative values the config rejects, with such a value; at 0
# each but dump_every takes the family's value
NEGATIVE_VALUES = [
    ("parameters", "u_in", -0.004), ("parameters", "t_s", -0.01),
    ("parameters", "beta", -3), ("parameters", "r", -0.002),
    ("parameters", "r_min", -0.003), ("mesh", "element_size", -0.008),
    ("mesh", "thickness", -0.01), ("solver", "steps", -1),
    ("output", "dump_every", -1)]


class TestCliRun:
    def test_artifacts_written(self, tiny_cfg, tmp_path):
        assert cli.main(["run", tiny_cfg, "-q"]) == 0
        out = tmp_path / "out"
        for name in ("history.csv", "density_final.vtk",
                     "design_summary.json", "load_displacement_case1.csv",
                     "output_path_case1.csv", "config_resolved.cfg",
                     "mesh.mesh", "run.log"):
            assert (out / name).exists(), name

    def test_history_csv_shape(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q"])
        rows = (tmp_path / "out" / "history.csv").read_text() \
            .strip().splitlines()
        assert rows[0].startswith("iteration,objective")
        ncols = len(rows[0].split(","))
        assert all(len(r.split(",")) == ncols for r in rows)
        assert len(rows) == 3  # header + 2 iterations

    def test_max_iterations_zero_overrides_the_config(self, tiny_cfg,
                                                      tmp_path):
        assert cli.main(["run", tiny_cfg, "-q", "--max-iterations", "0"]) == 0
        out = tmp_path / "out"
        doc = json.loads((out / "design_summary.json").read_text())
        assert doc["stop_reason"] == "zero_budget"
        rows = (out / "history.csv").read_text().splitlines()
        assert len(rows) == 1 and rows[0].startswith("iteration,objective")

    def test_load_displacement_rows_match_steps(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q"])
        rows = (tmp_path / "out" / "load_displacement_case1.csv") \
            .read_text().strip().splitlines()
        assert rows[0] == "step,input_disp_m,F_in_N,F_p_N,lambda_x,lambda_y"
        assert len(rows) == 1 + 4  # gripper solves four steps

    def test_determinism_bit_identical_history(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q", "-o", str(tmp_path / "a")])
        cli.main(["run", tiny_cfg, "-q", "-o", str(tmp_path / "b")])
        ha = (tmp_path / "a" / "history.csv").read_bytes()
        hb = (tmp_path / "b" / "history.csv").read_bytes()
        assert ha == hb

    def test_vtk_reimports_with_same_counts(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q"])
        vtk = tmp_path / "out" / "density_final.vtk"
        mesh = M.read_mesh(str(vtk))
        orig = M.read_mesh(str(tmp_path / "out" / "mesh.mesh"))
        assert mesh.num_nodes == orig.num_nodes
        assert mesh.num_elements == orig.num_elements
        assert np.array_equal(mesh.element_tag, orig.element_tag)

    def test_summary_reevaluates(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q"])
        doc = json.loads((tmp_path / "out" / "design_summary.json")
                         .read_text())
        assert doc["problem"] == "gripper"
        assert len(doc["design"]["rho"]) > 0
        cfg2 = config.parse_config(doc["resolved_config"])
        assert cfg2.get("", "problem") == "gripper"

    def test_load_displacement_forces_match_summary(self, tmp_path):
        # the CSV reports the F_in/F_p the optimizer constrained, bit for bit
        cfg = tmp_path / "var.cfg"
        cfg.write_text('problem = "gripper"\n[mesh]\nelement_size = 0.006\n'
                       '[optimizer]\nmax_iterations = 3\n')
        out = tmp_path / "var"
        assert cli.main(["run", str(cfg), "-q", "-o", str(out)]) == 0
        values = json.loads((out / "design_summary.json")
                            .read_text())["quantities"]
        rows = (out / "load_displacement_case1.csv").read_text() \
            .strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            m, _, fin, fp = row.split(",")[:4]
            assert float(fin) == values[f"f_in[{m},0]"]
            assert float(fp) == values[f"f_p[{m},0]"]

    def test_dump_every_writes_the_solved_density(self, tiny_cfg, tmp_path):
        cfg = tmp_path / "dump.cfg"
        cfg.write_text((tmp_path / "tiny.cfg").read_text()
                       + "[output]\ndump_every = 2\n")
        assert cli.main(["run", str(cfg), "-q"]) == 0
        out = tmp_path / "out"
        assert not (out / "density_001.vtk").exists()
        assert (out / "density_002.vtk").read_bytes() == \
            (out / "density_final.vtk").read_bytes()

    def test_adjoint_failure_fails_the_iteration_not_the_run(
            self, tiny_cfg, tmp_path, monkeypatch):
        from varibc import adjoint as A

        calls = []
        real = A.StateAdjoint.solve_multipliers

        def failing(self, dfdU, dfdlam):
            calls.append(1)
            if len(calls) == 1:
                raise A.SingularReducedSystem("injected")
            return real(self, dfdU, dfdlam)

        monkeypatch.setattr(A.StateAdjoint, "solve_multipliers", failing)
        assert cli.main(["run", tiny_cfg, "-q"]) == 0
        out = tmp_path / "out"
        assert (out / "density_final.vtk").exists()
        doc = json.loads((out / "design_summary.json").read_text())
        assert doc["stop_reason"] == "max_iterations"
        header, *rows = (out / "history.csv").read_text().splitlines()
        col = header.split(",").index("path_failed")
        assert [row.split(",")[col] for row in rows] == ["1", "0"]
        iters = [line for line in (out / "run.log").read_text().splitlines()
                 if "] iter " in line]
        assert iters[0].endswith(
            "[load case 1: SingularReducedSystem at step 1: injected]")
        assert not iters[1].endswith("]")

    def test_summary_says_how_the_run_went(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q", "-o", str(tmp_path / "a")])
        cli.main(["run", tiny_cfg, "-q", "-o", str(tmp_path / "b")])
        text = (tmp_path / "a" / "design_summary.json").read_bytes()
        assert text == (tmp_path / "b" / "design_summary.json").read_bytes()
        doc = json.loads(text)
        assert doc["failure"] == ""
        assert (doc["failed_iterations"], doc["mma_fallbacks"],
                doc["solver_bisections"]) == (0, 0, 0)

    def test_summary_counts_failures_and_fallbacks(self, tiny_cfg, tmp_path,
                                                   monkeypatch):
        from varibc import mma
        from varibc import optimizer as O
        from varibc import solver as S

        def failing_subproblem(*args, **kwargs):
            raise mma.SubproblemError("synthetic failure")

        real = O.solve_equilibrium_path
        evaluations = []

        def failing_last_path(model, control, config, on_state=None):
            evaluations.append(1)
            if len(evaluations) < 2:
                return real(model, control, config, on_state=on_state)
            raise S.PathFailed(0.5, "synthetic failure",
                               partial=S.EquilibriumPath(
                                   states=[], total_bisections=3))

        monkeypatch.setattr(mma, "mmasub", failing_subproblem)
        monkeypatch.setattr(O, "solve_equilibrium_path", failing_last_path)
        assert cli.main(["run", tiny_cfg, "-q"]) == 0
        out = tmp_path / "out"
        doc = json.loads((out / "design_summary.json").read_text())
        assert doc["failure"] == ("load case 1: path failed at input "
                                  "fraction 0.5: synthetic failure")
        assert (doc["failed_iterations"], doc["mma_fallbacks"],
                doc["solver_bisections"]) == (1, 1, 3)
        header, *rows = (out / "history.csv").read_text().splitlines()
        cols = header.split(",")
        for key, col in (("failed_iterations", "path_failed"),
                         ("mma_fallbacks", "mma_fallback"),
                         ("solver_bisections", "solver_bisections")):
            i = cols.index(col)
            assert doc[key] == sum(int(row.split(",")[i]) for row in rows)

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("problem = gripper\n")
        assert cli.main(["run", str(bad)]) != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("table,flags", [
        ("", ["--max-iterations", "-3"]),
        ("[optimizer]\nfeas_tol = -1.0\n", []),
        ("[solver]\nmax_bisections = -1\n", []),
    ], ids=["max_iterations", "feas_tol", "max_bisections"])
    def test_bad_solver_or_optimizer_value_fails_before_writing(
            self, tmp_path, capsys, table, flags):
        bad = tmp_path / "bad.cfg"
        bad.write_text('problem = "gripper"\n[mesh]\nelement_size = 0.008\n'
                       + table)
        out = tmp_path / "out"
        assert cli.main(["run", str(bad), "-q", "-o", str(out), *flags]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "config_resolved.cfg").exists()

    @pytest.mark.parametrize("section,key,value", NEGATIVE_VALUES,
                             ids=[key for _, key, _ in NEGATIVE_VALUES])
    def test_negative_value_fails_before_writing(self, tmp_path, capsys,
                                                 section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text('problem = "gripper"\n'
                       + (f"[mesh]\n{key} = {value}\n" if section == "mesh"
                          else "[mesh]\nelement_size = 0.008\n"
                          f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "out"
        assert cli.main(["run", str(bad), "-q", "-o", str(out),
                         "--max-iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not (out / "config_resolved.cfg").exists()


class TestCliReplay:
    def test_replay_rows(self, tiny_cfg, tmp_path):
        cli.main(["run", tiny_cfg, "-q"])
        summary = str(tmp_path / "out" / "design_summary.json")
        dest = str(tmp_path / "rep")
        assert cli.main(["replay", summary, "--steps", "7",
                         "-o", dest]) == 0
        rows = (tmp_path / "rep" / "replay_load_displacement_case1.csv") \
            .read_text().strip().splitlines()
        assert len(rows) == 1 + 7

    def test_replay_at_the_run_steps_reproduces_its_forces(self, tmp_path):
        # the variable-BC run moves the actuator point away from design0's;
        # the replay must keep the load normalization the optimizer froze.
        # The custom plate's thickness must reach the replayed mesh and t_s.
        gripper = ('problem = "gripper"\n[mesh]\nelement_size = 0.006\n'
                   '[optimizer]\nmax_iterations = 8\n')
        plate = ('problem = "custom"\nfixed_bcs = true\n'
                 '[mesh]\nelement_size = 0.012\nthickness = 0.02\n'
                 '[parameters]\nr = 0.012\nr_min = 0.015\nu_in = 0.002\n'
                 'k_out = 100.0\n[solver]\nsteps = 2\n'
                 '[custom]\n'
                 'outline = [0.0, 0.0, 0.1, 0.0, 0.1, 0.1, 0.0, 0.1]\n'
                 'supports = [0.015, 0.015, 0.015, 0.085]\n'
                 'load = [0.015, 0.05]\n'
                 'output_point = [0.1, 0.05]\noutput_axis = "x"\n'
                 'vf_bound = 0.4\n[optimizer]\nmax_iterations = 1\n')
        for name, text, run_steps in (("var", gripper, 4),
                                      ("plate", plate, 2)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / name
            assert cli.main(["run", str(cfg), "-q", "-o", str(out)]) == 0
            summary = out / "design_summary.json"
            values = json.loads(summary.read_text())["quantities"]
            run_rows = (out / "load_displacement_case1.csv").read_text() \
                .strip().splitlines()[1:]
            steps = len(run_rows)
            rep = tmp_path / f"{name}_rep"
            assert cli.main(["replay", str(summary), "--steps", str(steps),
                             "-o", str(rep)]) == 0
            rows = (rep / "replay_load_displacement_case1.csv") \
                .read_text().strip().splitlines()[1:]
            assert len(rows) == steps == run_steps
            for row, run_row in zip(rows, run_rows):
                m, _, fin, fp = row.split(",")[:4]
                run_fin, run_fp = run_row.split(",")[2:4]
                # the plate constrains, and so reports, its last step only
                for got, key, csv in ((fin, f"f_in[{m},0]", run_fin),
                                      (fp, f"f_p[{m},0]", run_fp)):
                    want = values.get(key, float(csv))
                    assert abs(float(got) - want) <= 1e-6 * abs(want), key

    def test_replay_uses_the_run_solver_settings(self, tmp_path,
                                                 monkeypatch):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text('problem = "gripper"\nfixed_bcs = true\n'
                       '[mesh]\nelement_size = 0.008\n'
                       '[optimizer]\nmax_iterations = 1\n'
                       '[solver]\ntol_residual = 2e-7\n'
                       'max_corrector_iters = 17\nmax_bisections = 3\n')
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "-q", "-o", str(out)]) == 0
        seen = []
        real = outputs.solve_equilibrium_path

        def capturing(model, control, config, **kwargs):
            seen.append(config)
            return real(model, control, config, **kwargs)

        monkeypatch.setattr(outputs, "solve_equilibrium_path", capturing)
        assert cli.main(["replay", str(out / "design_summary.json"),
                         "--steps", "5", "-o", str(tmp_path / "rep")]) == 0
        want = SolverConfig(tol_residual=2e-7, max_corrector_iters=17,
                            max_bisections=3, steps=5)
        assert seen == [want]

    def test_summary_with_removed_key_fails_cleanly(self, tiny_cfg,
                                                    tmp_path, capsys):
        # summaries written while the root `threads` key existed embed it
        cli.main(["run", tiny_cfg, "-q"])
        path = tmp_path / "out" / "design_summary.json"
        doc = json.loads(path.read_text())
        doc["resolved_config"] = "threads = 1\n" + doc["resolved_config"]
        path.write_text(json.dumps(doc))
        assert cli.main(["replay", str(path), "-o",
                         str(tmp_path / "rep")]) == 1
        assert "unknown key 'threads'" in capsys.readouterr().err

    DESIGN = {"rho": [0.3], "supports": [0.01, 0.02], "load": [0.0, 0.05],
              "theta": 0.0}

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"design": DESIGN}),
        json.dumps({"resolved_config": 'problem = "gripper"\n'}),
        json.dumps({"resolved_config": 'problem = "gripper"\n',
                    "design": {**DESIGN, "rho": [1.5]}}),
    ], ids=["not_json", "no_resolved_config", "no_design", "bad_design"])
    def test_malformed_summary_fails_before_writing(self, tmp_path, capsys,
                                                    text):
        path = tmp_path / "design_summary.json"
        path.write_text(text)
        rep = tmp_path / "rep"
        assert cli.main(["replay", str(path), "-o", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err
        assert not rep.exists()


class TestCliMesh:
    def test_mesh_subcommand(self, tiny_cfg, tmp_path, capsys):
        out = str(tmp_path / "m.mesh")
        assert cli.main(["mesh", tiny_cfg, "-o", out]) == 0
        mesh = M.read_mesh(out)
        assert mesh.num_elements > 100
        assert "elements" in capsys.readouterr().out


class TestCliVerify:
    def test_every_check_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(verify.CHECKS) + 1
        for line, (name, _) in zip(lines, verify.CHECKS):
            assert line.startswith("PASS") and name in line
        assert lines[-1] == "all checks passed"

    def test_raising_check_is_a_failed_row(self, monkeypatch, capsys):
        def boom():
            raise RuntimeError("kaput")

        checks = list(verify.CHECKS)
        name = checks[4][0]
        checks[4] = (name, boom)
        monkeypatch.setattr(verify, "CHECKS", checks)
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        row = lines[4]
        assert row.startswith("FAIL") and name in row
        assert "raised RuntimeError: kaput" in row
        passed = [line for line in lines if line.startswith("PASS")]
        assert len(passed) == len(checks) - 1
        assert lines[-1] == "FAILURES present"


class TestCustomProblem:
    def test_custom_config_end_to_end(self, tmp_path):
        p = tmp_path / "custom.cfg"
        p.write_text(
            'problem = "custom"\nfixed_bcs = true\n'
            f'output_dir = "{tmp_path}/cout"\n'
            '[mesh]\nelement_size = 0.012\n'
            '[parameters]\nr = 0.012\nr_min = 0.015\nu_in = 0.002\n'
            'k_out = 100.0\n'
            '[solver]\nsteps = 2\n'
            '[custom]\n'
            'outline = [0.0, 0.0, 0.1, 0.0, 0.1, 0.1, 0.0, 0.1]\n'
            'supports = [0.015, 0.015, 0.015, 0.085]\n'
            'load = [0.015, 0.05]\n'
            'objective = "max_u_out"\n'
            'output_point = [0.1, 0.05]\noutput_axis = "x"\n'
            'vf_bound = 0.4\n'
            '[optimizer]\nmax_iterations = 2\n'
        )
        assert cli.main(["run", str(p), "-q"]) == 0
        doc = json.loads((tmp_path / "cout" / "design_summary.json")
                         .read_text())
        assert doc["problem"] == "custom"

    @pytest.mark.parametrize("key,value", [
        ("vf_bound", 0.0), ("f_in_bound", 0.0), ("f_p_bound", 0.0),
        ("f_p_bound", -0.4), ("f_in_bound", -30.0),
        ("f_in_bound", float("inf"))])
    def test_out_of_range_bound_fails_before_writing(self, tmp_path, capsys,
                                                     key, value):
        # each bound also scales its constraint: 0 divides by zero, a
        # negative one inverts the constraint and an infinite one gives NaN
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            'problem = "custom"\n[mesh]\nelement_size = 0.02\n'
            '[custom]\noutline = [0.0, 0.0, 0.1, 0.0, 0.1, 0.1, 0.0, 0.1]\n'
            'supports = [0.015, 0.015, 0.015, 0.085]\n'
            'load = [0.015, 0.05]\noutput_point = [0.1, 0.05]\n'
            f'{key} = {value}\n')
        out = tmp_path / "out"
        assert cli.main(["run", str(bad), "-q", "-o", str(out),
                         "--max-iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem construction failed:")
        assert key in err
        assert not (out / "config_resolved.cfg").exists()

    @pytest.mark.parametrize("key,value,name", [
        ("supports", "[-0.01, 0.0, 0.09, 0.0]", "X_s1"),
        ("load", "[0.05, 0.06]", "Y_f"),
        ("theta_deg", "270.0", "theta")])
    def test_design_outside_its_bounds_fails_before_writing(
            self, tmp_path, capsys, key, value, name):
        # the supports and the load are bounded by the outline's box and
        # theta by [-pi, pi]; MMA cannot start outside its box
        entries = {"supports": "[0.01, 0.0, 0.09, 0.0]",
                   "load": "[0.05, 0.025]", "theta_deg": "0.0", key: value}
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            'problem = "custom"\n[mesh]\nelement_size = 0.01\n'
            '[custom]\noutline = [0.0, 0.0, 0.1, 0.0, 0.1, 0.05, 0.0, 0.05]\n'
            'output_point = [0.1, 0.025]\n'
            + "".join(f"{k} = {v}\n" for k, v in entries.items()))
        out = tmp_path / "out"
        assert cli.main(["run", str(bad), "-q", "-o", str(out),
                         "--max-iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem construction failed: initial "
                              f"{name} = ")
        assert not (out / "config_resolved.cfg").exists()


def test_bistable_curve_has_eight_rows(tmp_path):
    # one analysis (no optimization) of the coarse bistable problem: the
    # load-displacement file must carry one row per displacement step
    from varibc import optimizer as O
    from varibc import problems as P

    prob = P.make_problem("bistable_airfoil", element_size=3e-3)
    ev = O.evaluate_design(prob, prob.design0)
    outputs.write_case_artifacts(str(tmp_path), prob, ev.paths,
                                 prob.design0)
    rows = (tmp_path / "load_displacement_case1.csv").read_text() \
        .strip().splitlines()
    assert len(rows) == 1 + 8


def test_write_vtk_cell_data_parses(tmp_path):
    mesh = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.4))
    path = str(tmp_path / "f.vtk")
    outputs.write_vtk(path, mesh, {
        "rho_phys": np.linspace(0, 1, mesh.num_elements),
        "region_tag": mesh.element_tag,
    })
    again = M.read_mesh(path)
    assert again.num_elements == mesh.num_elements
    assert np.allclose(again.nodes, mesh.nodes)
    assert np.array_equal(again.element_tag, mesh.element_tag)
