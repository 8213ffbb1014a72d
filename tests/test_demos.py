"""The demos are callers of the public API: the quick ones must run, and
every name any demo imports from tqd must exist."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# the other two demos train for about a minute each, so only their
# imports are checked
QUICK_DEMOS = ["demo_quality_dilemma.py", "demo_timestep_laws.py", "demo_scorer_noise.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_quick_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("demo_*.py")))
def test_demo_imports_exist(demo):
    tree = ast.parse((DEMOS / demo).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "tqd"
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
