"""The demo scripts run end to end as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd=None):
    """Run one demo script; cwd receives any file it writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300, cwd=cwd)


def test_adjoint_gradients_demo_matches_finite_differences():
    out = run_demo("adjoint_gradients.py")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    head = next(i for i, line in enumerate(lines)
                if line.split()[-2:] == ["rel", "err"])
    rows = []
    for line in lines[head + 1:]:
        if not line.strip():
            break
        rows.append(float(line.split()[-1]))
    assert len(rows) == 10
    assert max(rows) <= 1e-4, out.stdout


def test_custom_problem_demo_runs():
    out = run_demo("custom_problem.py")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == (
        "custom L-domain: 858 elements, 4 constraints, objective max u_out[3]")


def test_arch_demo_snaps_through_and_recovers_by_bisection(tmp_path):
    out = run_demo("arch_snap_through.py", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    peak = next(line for line in lines if line.startswith("force peak"))
    words = peak.replace(";", "").split()
    assert float(words[2]) > 0.0 > float(words[-2]), peak
    assert "crosses zero at u =" in peak
    done = next(line for line in lines if line.startswith("with bisection"))
    assert "completed to fraction 1.0 using" in done
    assert not done.endswith("using 0 bisection(s)")


def test_mesh_and_fields_demo_normalizes_the_reference_load(tmp_path):
    out = run_demo("mesh_and_fields.py", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert ("  total reference load  sum f_e V_e = 1.000000000 N "
            "(normalized to 1)") in out.stdout.splitlines()
