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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(src: Path) -> list[str]:
    """`Class.field` of every annotated field of a `@dataclass` in
    `src/*.py` that no file there reads as an attribute (`x.field`).

    The check goes by name alone, so a read of another class's attribute of
    the same name hides an unread field: the reads of `TrainConfig.seed` and
    `Scene.seed` hid `EpisodeRecord.seed`, which nothing read."""
    fields, read = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_every_top_level_definition_is_used_in_the_package():
    # a function only the tests call belongs in the tests; public API is
    # referenced by its import into zonegraph/__init__.py
    assert unreferenced_definitions(SRC) == []


def test_the_guard_names_an_unused_definition(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    used()\n")
    (tmp_path / "b.py").write_text("from .a import used\n\n\nclass Orphan:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == ["a.unused", "b.Orphan"]


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_dataclass_fields(SRC) == []


def test_the_guard_names_an_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Pair:\n    left: int\n    right: int = 0\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Box:\n    size: int\n\n\n"
        "class Plain:\n    unread: int\n")
    (tmp_path / "b.py").write_text(
        "def use(pair, box):\n    pair.right = box.size\n    return pair.left\n")
    assert unread_dataclass_fields(tmp_path) == ["Pair.right"]
