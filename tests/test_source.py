"""Static checks over the package source."""

import ast
from pathlib import Path

import zonegraph

SRC = Path(zonegraph.__file__).resolve().parent


def unreferenced_definitions(src: Path) -> list[str]:
    """`module.name` of every top-level function or class in `src/*.py`
    that no file there names: as a bare name, an attribute or an import."""
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_top_level_definition_is_used_in_the_package():
    # a function only the tests call belongs in the tests; public API is
    # referenced by its import into zonegraph/__init__.py
    assert unreferenced_definitions(SRC) == []


def test_the_guard_names_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    used()\n")
    (tmp_path / "b.py").write_text("from .a import used\n\n\nclass Orphan:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == ["a.unused", "b.Orphan"]
