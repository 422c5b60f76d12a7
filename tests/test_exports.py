import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mollmc
from mollmc.cli import entry

MODULES = ["mollmc"] + [f"mollmc.{m.name}" for m in pkgutil.iter_modules(mollmc.__path__)]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted(Path(mollmc.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_mollmc_script_resolves_to_cli_entry():
    # the installed command runs what pyproject.toml names: a renamed entry would break it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    script = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = script["project"]["scripts"]["mollmc"].partition(":")
    assert getattr(importlib.import_module(module), name, None) is entry


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


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    # an import the module never reads is dead weight and, for numpy or
    # mpmath, start-up time; one marked "# noqa: F401" is kept on purpose
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module("mollmc" if path.stem == "__init__" else f"mollmc.{path.stem}")
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


RULE_TEXTS = ("np.integer", "must be a positive integer", "must lie in (0, 1]",
              "must be finite and positive", "must be finite and nonnegative",
              "must be a finite real number", "must be finite, got", "a positive number",
              "a number in (0, 1]", "a real number", "in [0, 2**64)", "fit in 64 bits",
              "must be a nonnegative real number", "must be a nonnegative real or inf")


def test_argument_rules_are_stated_only_in_args():
    # mollmc._args states each argument rule once; a second statement of one
    # elsewhere lets the package's rules for a count or a radius drift apart
    stated = [
        f"{path.name}:{number}"
        for path in SOURCES if path.name != "_args.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(text in line for text in RULE_TEXTS)
    ]
    assert stated == []
