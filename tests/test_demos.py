"""Each demo script, and the README's quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiwave

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(Path(equiwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(capsys):
    # the python block under "## Quick start", so the README cannot drift
    # from the API
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")  # the hyperbolic base is admissible
