"""Count the code lines of the package and its tests: every line that holds
part of a statement, so no blank line, comment or docstring counts. A line
inside a multi-line string or bracket counts; a docstring's lines do not.

    python scripts/code_lines.py            # src/ and tests/ of this checkout
    python scripts/code_lines.py <root>     # those of another checkout

Prints each file's count, then each directory's total and the sum.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

DIRS = ("src", "tests")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> dict[str, dict[str, int]]:
    """{directory: {file path relative to root: code lines}} for DIRS."""
    return {d: {str(p.relative_to(root)): code_lines(p.read_text(encoding="utf-8"))
                for p in sorted((root / d).rglob("*.py"))}
            for d in DIRS}


def main(root: Path) -> None:
    counts = count_tree(root)
    for files in counts.values():
        for path, n in files.items():
            print(f"{n:6d}  {path}")
    for d, files in counts.items():
        print(f"{sum(files.values()):6d}  {d}/ total")
    print(f"{sum(sum(f.values()) for f in counts.values()):6d}  total")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit("usage: code_lines.py [<root>]")
    main(Path(sys.argv[1]) if len(sys.argv) == 2 else Path(__file__).resolve().parent.parent)
