import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetascope

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_module():
    code = (
        "import sys, zetascope; "
        "print(sorted(m for m in sys.modules if m.startswith(('zetascope.', 'numpy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_each_name_is_the_defining_module_object():
    for name in zetascope.__all__:
        obj = getattr(zetascope, name)
        assert obj.__module__ == "zetascope." + zetascope._EXPORTS[name], name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert name in dir(zetascope), name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        zetascope.nope
    assert not hasattr(zetascope, "_bisect")


def test_no_module_reads_the_environment():
    # flags are the only way in: no environment variable sets anything
    for path in sorted((ROOT / "src" / "zetascope").glob("*.py")):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name


def test_only_series_imports_numpy():
    # so every other module a verify process runs is compiled before numpy
    # loads, and a scan, the exact evals and the CLI never load it
    importers = set()
    for path in sorted((ROOT / "src" / "zetascope").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"series.py"}
