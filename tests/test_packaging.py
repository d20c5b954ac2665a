"""Packaging metadata agrees with the importable package, and its modules import only what they use."""

import ast
import warnings
from pathlib import Path

import fcrg

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is flagged as beta
        config = read_configuration(str(PYPROJECT))
    assert config["project"]["version"] == fcrg.__version__


def test_no_unused_top_level_imports():
    """Every name a module of ``fcrg`` imports at top level is read in it, or listed in its ``__all__``."""
    unused = []
    for path in sorted(Path(fcrg.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"unused imports: {unused}"
