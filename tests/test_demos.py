"""The demo scripts and the README's Library example run against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_all_four_demos_are_collected():
    assert [p.name for p in DEMOS] == [
        "adaptive_delivery.py",
        "bit_level_roundtrip.py",
        "correlated_demands.py",
        "placement_profiles.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python(["-c", snippet + "\nprint(rate, worst, bound)\n"])
    assert proc.returncode == 0, proc.stderr
    rate, worst, bound = (float(v) for v in proc.stdout.split())
    assert bound <= rate <= worst
