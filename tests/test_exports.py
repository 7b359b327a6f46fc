import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zgptda

MODULES = ["zgptda"] + [f"zgptda.{m.name}" for m in pkgutil.iter_modules(zgptda.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_tracer_lookups_resolve():
    """perfbench/instrument.py wraps functions by name where zgptda looks them
    up; every name it wraps must exist. Run apart, as it patches the modules."""
    root = Path(__file__).resolve().parents[1]
    code = "import zgptda, zgptda.cli, instrument, tracer; instrument.instrument(tracer.Tracer(0), zgptda)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
