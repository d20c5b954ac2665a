"""Packaging metadata agrees with the importable package, and its modules import and define only what they use."""

import ast
import importlib
import pkgutil
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import fcrg

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is flagged as beta
        config = read_configuration(str(PYPROJECT))
    assert config["project"]["version"] == fcrg.__version__


def test_a_failing_property_test_fails_without_stopping_the_run(tmp_path):
    """Under the repo's warning filters, a failing ``@given`` test reports a failure and later tests still run.

    While hypothesis reports a falsifying example it imports a module that
    raises a DeprecationWarning; turned into an error, that ended the run
    with an INTERNALERROR and hid the example and every later test.
    """
    (tmp_path / "test_generated.py").write_text(textwrap.dedent('''
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    '''))
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run([*argv, "test_generated.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout and "INTERNALERROR" not in result.stdout + result.stderr


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


def _reads(tree) -> Counter:
    """Names read in ``tree``: loaded bare names and loaded attribute names."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_function_class_and_method_is_read():
    """Each top-level function, class and method of ``fcrg`` is read outside its own
    definition, in the package or in the acceptance gate; re-exports in ``__init__``
    do not count, and dunder methods are read by the language itself.

    Matching is by name only: any ``Name`` or ``Attribute`` with the same identifier
    counts as a read, so an unused method that shares a common name (``load``,
    ``step``) passes.  This catches orphaned definitions; it is not a full
    dead-code check."""
    package = Path(fcrg.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.rglob("*.py"))}
    reads = sum((_reads(tree) for path, tree in trees.items() if path.name != "__init__.py"), Counter())
    reads += _reads(ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")))
    unread = []
    for path, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body if isinstance(n, ast.FunctionDef)]
        for node in defs:
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if reads[node.name] - _reads(node)[node.name] <= 0:
                unread.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unread, f"defined but never read: {unread}"


def test_no_exception_class_is_defined():
    """``fcrg`` defines no exception type: every failure a user can cause is a
    ``ValueError`` or an ``OSError``, which ``fcrg.cli.main`` prints as one line.
    Module-level classes are checked."""
    modules = [fcrg] + [importlib.import_module(info.name) for info in pkgutil.walk_packages(fcrg.__path__, "fcrg.")]
    defined = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
    ]
    assert not defined, f"exception classes: {defined}"
