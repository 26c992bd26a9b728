"""The demo scripts run end to end as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


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
