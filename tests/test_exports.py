import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mollmc

MODULES = ["mollmc"] + [f"mollmc.{m.name}" for m in pkgutil.iter_modules(mollmc.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_are_exported(path):
    # the demos show the public surface: what they import must be in __all__
    hidden = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mollmc"
        for alias in node.names
        if alias.name not in getattr(importlib.import_module(node.module), "__all__", ())
    ]
    assert hidden == []
