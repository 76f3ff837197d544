"""Package-wide checks of the modules' public names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import anisoline

_PACKAGE = Path(anisoline.__file__).parent
_BENCH = _PACKAGE.parents[1] / "bench"

# public names kept for users though no loop, the CLI or the benchmark
# calls them, each with its reason
_KEPT_FOR_USERS = {
    "tmesh.TMesh.validate": "the mesh's structural self-check, for users who build meshes by hand",
}


def test_every_exported_name_exists():
    # a stale `__all__` entry breaks `from anisoline.<module> import *`
    names = [info.name for info in pkgutil.iter_modules(anisoline.__path__)]
    assert "tmesh" in names and "refine" in names
    missing = []
    for name in names:
        module = importlib.import_module(f"anisoline.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def _public_definitions():
    """(module.qualified name, short name) of every public module-level
    function and method of a module-level class in the package."""
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for member in members:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.stem}.{prefix}{member.name}", member.name


def _referenced_names():
    """Every name the package and the benchmark read: names, attributes
    and imports, and the words of the benchmark's string constants, such
    as the "Class.method" entries of its tracer.  A definition is no
    reference, nor is `__all__`, whose strings are the package's."""
    names = set()
    for path in [*sorted(_PACKAGE.glob("*.py")), *sorted(_BENCH.rglob("*.py"))]:
        in_bench = _BENCH in path.parents
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif in_bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_name_has_a_caller():
    # the package holds what the adaptive loops, the CLI or the benchmark
    # read; references go by short name, so a name two definitions share
    # counts as used for both once either is read
    assert (_BENCH / "tracing.py").is_file(), "the package is not imported from this checkout"
    names = _referenced_names()
    uncalled = [qualified for qualified, name in _public_definitions()
                if name not in names and qualified not in _KEPT_FOR_USERS]
    assert uncalled == []
    defined = {qualified for qualified, _ in _public_definitions()}
    assert set(_KEPT_FOR_USERS) <= defined
