"""Tests of the scripts under ``tools/`` (plain files, not a package)."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def load_tool(name):
    """Import ``tools/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
