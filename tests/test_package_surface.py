"""Every exported name resolves: module ``__all__`` lists and package re-exports.

A stale ``__all__`` entry only fails when someone star-imports the module,
so it is checked here instead.  So are the names the benchmark's tracer
wraps, which would otherwise drop a per-layer timing without an error.
The project's pytest settings are checked here too: a mistyped marker
must fail collection.
"""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nbiot_noma

ROOT = Path(__file__).resolve().parents[1]

# Modules that declare a public surface (cli and errors do not).
MODULES = [
    name
    for name in sorted(info.name for info in pkgutil.iter_modules(nbiot_noma.__path__))
    if hasattr(importlib.import_module(f"nbiot_noma.{name}"), "__all__")
]


def _reexports():
    """(module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse(Path(nbiot_noma.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(f"nbiot_noma.{module_name}")
    exported = module.__all__
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec(f"from nbiot_noma.{module_name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_resolve():
    pairs = _reexports()
    assert pairs
    for module_name, name in pairs:
        module = importlib.import_module(f"nbiot_noma.{module_name}")
        assert getattr(nbiot_noma, name) is getattr(module, name), name
        assert name in module.__all__, f"{module_name}.{name} is not in its __all__"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _called_names(module) -> set[str]:
    """Every name a module calls, as ``f(...)`` or ``x.f(...)``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_traced_names_resolve():
    # The tracer times a function only through the namespace attributes it
    # wraps.  So every traced name must be an attribute of one namespace,
    # and a namespace that calls a traced function must hold it.
    tracing = _tracing()
    held = {
        ns: {tracing._key(fn) for fn in vars(getattr(nbiot_noma, ns)).values()}
        for ns in tracing.NAMESPACES
    }
    assert tracing.TRACED <= set().union(*held.values())
    for ns in tracing.NAMESPACES:
        called = _called_names(getattr(nbiot_noma, ns))
        missing = {key for key in tracing.TRACED if key.split(".")[1] in called} - held[ns]
        assert not missing, f"{ns} calls {sorted(missing)} without holding them"


def test_unregistered_marker_fails_collection(tmp_path):
    # The project's pytest settings turn a mistyped marker into an error,
    # so a test cannot silently land in the wrong tier.
    (tmp_path / "test_typo.py").write_text(
        "import pytest\n\n@pytest.mark.acceptence\ndef test_x():\n    pass\n"
    )
    pyproject = ROOT / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "'acceptence' not found in `markers`" in proc.stdout
